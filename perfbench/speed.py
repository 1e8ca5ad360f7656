"""Machine-speed calibration for noisy shared hosts.

On a host shared with other tenants the same code can run 1.5 to 2 times
slower from one second to the next, and CPU time slows with wall time, so
raw timings of the program do not repeat.  Each timed call is therefore
paired with a fixed piece of reference work run just before it, and its time
is scaled by ``REF_S / reference time``: the time the call would have taken
on a machine where the reference work takes exactly ``REF_S``.

The reference work uses only the interpreter and numpy, never the program,
so a change to the program cannot move it.  Its mix (bytecode, float
arithmetic, ``repr`` of floats, small numpy arrays and 2x2 solves) is the
mix the CLI spends its time on.
"""

from __future__ import annotations

import time

PY_ITERATIONS = 1500
NP_ITERATIONS = 120
# the reference times: about what each loop takes on a quiet 2-core Xeon VM
REF_S = 0.004
PY_REF_S = 0.0015


def python_work() -> float:
    """Seconds spent on a fixed pure-Python loop (no imports)."""
    t0 = time.perf_counter()
    acc = 0.0
    parts = []
    for i in range(PY_ITERATIONS):
        f = i * 1.000001 + 0.5
        acc += (f - 2.0) ** 2 / (f + 1.0)
        parts.append(repr(acc))
    ",".join(parts)
    return time.perf_counter() - t0


def reference_work() -> float:
    """Seconds spent on the pure-Python loop plus a fixed small-numpy loop."""
    import numpy as np

    t0 = time.perf_counter()
    python_work()
    m = np.array([[1.0, 0.5], [0.25, 2.0]])
    eye = np.eye(2)
    acc = 0.0
    for i in range(NP_ITERATIONS):
        y = np.linalg.solve(m + i * 1e-6 * eye, np.array([1.0, 0.5 + i]))
        acc += float(y[0])
    return time.perf_counter() - t0
