"""Spans around calls into the package's layers, installed from outside it.

The package's modules bind each other's functions at import
(``from .attractors import solve_attractors``), so a wrapper on the defining
module alone would miss most calls.  :func:`install` replaces every binding
of a public package function, in every loaded ``duffing_qubit`` module, with
one timing wrapper, and :func:`uninstall` puts the originals back.

Spans are kept in flat arrays in memory (name, start, end, parent, the
invocation they belong to, and a work count such as grid points) and are
written out once, at the end of the run.  A layer is the module that defines
a function: ``attractors``, ``fluctuations``, ``rates``, ``model`` or ``cli``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "duffing_qubit"
LAYERS = ("attractors", "fluctuations", "rates", "model", "cli")

# public entry points of rate assembly; one call per grid row from the CLI
RATE_ENTRIES = frozenset({
    "rates.resonant_1q_scaled",
    "rates.gamma_resonant_1q",
    "rates.gamma_resonant_2q",
    "rates.gamma_total_resonant",
    "rates.gamma_nonresonant",
    "rates.gamma_nonresonant_2q",
    "rates.gamma_linear_resonant",
    "rates.gamma_linear_nonresonant",
})
CLOSED_FORMS = ("fluctuations.emission_spectrum", "fluctuations.absorption_spectrum")
PARSE_SPANS = ("cli.build_parser", "cli.parse_args", "cli.load_config")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _points(args: tuple, kwargs: dict) -> float:
    """Array elements a closed-form spectrum call evaluates."""
    return float(np.size(_arg(args, kwargs, 0, "omega")))


def _rows(args: tuple, kwargs: dict) -> float:
    rows = _arg(args, kwargs, 2, "rows")
    return float(len(rows)) if rows is not None else 0.0


# every per-layer metric layer_metrics reports (plus two the runner adds)
UNITS = {
    "attractors.solve_attractors.calls": "count",
    "attractors.solve_attractors.us_per_call": "us",
    "attractors.solve_attractors.max_per_invocation": "count",
    "attractors.self_s": "s",
    "fluctuations.stationary_covariance.calls": "count",
    "fluctuations.stationary_covariance.us_per_call": "us",
    "fluctuations.spectrum_matrix.calls": "count",
    "fluctuations.spectrum_matrix.us_per_call": "us",
    "fluctuations.closed_form.points": "count",
    "fluctuations.closed_form.ns_per_point": "ns",
    "fluctuations.self_s": "s",
    "rates.rate_calls": "count",
    "rates.us_per_rate_call": "us",
    "rates.dephasing_g_zero.calls_per_row": "ratio",
    "rates.dephasing_g_zero.calls_per_resonant_total_row": "ratio",
    "rates.self_s": "s",
    "model.scale_params.calls_per_row": "ratio",
    "model.planck.calls": "count",
    "model.bath_j.calls": "count",
    "model.self_s": "s",
    "cli.parse.ms_per_call": "ms",
    "cli.emit_table.us_per_row": "us",
    "cli.bytes_out": "bytes",
    "cli.invocations": "count",
    "cli.rows": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

WORK = {name: _points for name in CLOSED_FORMS}
WORK["cli.emit_table"] = _rows


class Tracer:
    """Flat in-memory span store; ``call`` tags spans with their invocation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.work = array("d")
        self._stack: list[int] = []
        self.current_call = -1

    def clear(self) -> None:
        # in place: the wrappers hold these very arrays
        for a in (self.name, self.start, self.end, self.parent, self.call, self.work):
            del a[:]

    def wrap(self, span: str, fn):
        """A wrapper that records one span named ``span`` per call of ``fn``."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        work = WORK.get(span)
        name_a, start_a, end_a = self.name, self.start, self.end
        parent_a, call_a, work_a = self.parent, self.call, self.work
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            call_a.append(tracer.current_call)
            work_a.append(work(args, kwargs) if work else 0.0)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[i] = t0
                end_a[i] = t1

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.call, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _package_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def public_functions() -> dict:
    """Every public function defined in the package -> its span name."""
    found = {}
    for mod in _package_modules():
        for value in vars(mod).values():
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not value.__name__.startswith("_")):
                found[value] = f"{mod.__name__.rsplit('.', 1)[-1]}.{value.__name__}"
    return found


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of every public package function; returns the undo list."""
    wrappers = {fn: tracer.wrap(span, fn) for fn, span in public_functions().items()}
    undo = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    # the CLI parses through the argparse class its parser derives from
    cls = argparse.ArgumentParser
    undo.append((cls, "parse_args", cls.parse_args))
    cls.parse_args = tracer.wrap("cli.parse_args", cls.parse_args)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def _layer_index(span: str) -> int:
    layer = span.split(".", 1)[0]
    return LAYERS.index(layer) if layer in LAYERS else -1


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval.  The spans come from one
    thread, so the children of one span do not overlap each other.
    """
    has = parent >= 0
    p = parent[has]
    lo = np.maximum(start[has], start[p])
    hi = np.minimum(end[has], end[p])
    covered = np.zeros(len(start))
    np.add.at(covered, p, np.clip(hi - lo, 0.0, None))
    return (end - start) - covered


def layer_metrics(tracer: Tracer, rows: np.ndarray, regimes: list[str]) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced pass.

    ``rows[k]`` is the output rows of invocation ``k`` and ``regimes[k]`` its
    ``rates --regime`` (empty for other commands).  A time per call or per
    point reads 0 when there were no calls.
    """
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    layer_of = np.array([_layer_index(n) for n in tracer.names] + [-1])
    layer = layer_of[a["name"]]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    total_rows = float(rows.sum())

    def mask(*names: str) -> np.ndarray:
        return np.isin(a["name"], [ids.get(n, -1) for n in names])

    def per(value: float, base: float, scale: float = 1.0) -> float:
        return float(value) / float(base) * scale if base else 0.0

    out: dict[str, float] = {}
    for k, lay in enumerate(LAYERS):
        out[f"{lay}.self_s"] = float(own[layer == k].sum())

    solve = mask("attractors.solve_attractors")
    out["attractors.solve_attractors.calls"] = int(solve.sum())
    out["attractors.solve_attractors.us_per_call"] = per(dur[solve].sum(), solve.sum(), 1e6)
    out["attractors.solve_attractors.max_per_invocation"] = (
        int(np.unique(a["call"][solve], return_counts=True)[1].max()) if solve.any() else 0)

    for name in ("stationary_covariance", "spectrum_matrix"):
        m = mask(f"fluctuations.{name}")
        out[f"fluctuations.{name}.calls"] = int(m.sum())
        out[f"fluctuations.{name}.us_per_call"] = per(dur[m].sum(), m.sum(), 1e6)
    closed = mask(*CLOSED_FORMS)
    points = a["work"][closed].sum()
    out["fluctuations.closed_form.points"] = int(points)
    out["fluctuations.closed_form.ns_per_point"] = per(dur[closed].sum(), points, 1e9)

    entry = mask(*RATE_ENTRIES)
    nested = np.zeros_like(entry)
    has = a["parent"] >= 0
    nested[has] = entry[a["parent"][has]]
    outer = entry & ~nested
    out["rates.rate_calls"] = int(outer.sum())
    out["rates.us_per_rate_call"] = per(dur[outer].sum(), outer.sum(), 1e6)
    deph = mask("rates.dephasing_g_zero")
    out["rates.dephasing_g_zero.calls_per_row"] = per(deph.sum(), total_rows)
    total = [k for k, r in enumerate(regimes) if r == "resonant-total"]
    out["rates.dephasing_g_zero.calls_per_resonant_total_row"] = per(
        np.isin(a["call"][deph], total).sum(), rows[total].sum())

    out["model.scale_params.calls_per_row"] = per(mask("model.scale_params").sum(), total_rows)
    out["model.planck.calls"] = int(mask("model.planck").sum())
    out["model.bath_j.calls"] = int(mask("model.bath_j").sum())

    out["cli.parse.ms_per_call"] = per(dur[mask(*PARSE_SPANS)].sum(), len(rows), 1e3)
    emit = mask("cli.emit_table")
    out["cli.emit_table.us_per_row"] = per(dur[emit].sum(), a["work"][emit].sum(), 1e6)
    out["cli.invocations"] = len(rows)
    out["cli.rows"] = int(total_rows)
    return out
