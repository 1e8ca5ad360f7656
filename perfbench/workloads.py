"""Seeded generation of the benchmark's CLI invocations.

Every input is computed here with this module's own arithmetic; nothing from
``duffing_qubit`` is imported, so two versions of the program given the same
seed receive byte-identical argv.  Each call carries the exit code and row
count its inputs imply, and the few known inputs the output checks need.

Grid sizes and the shares of each kind of call are stratified, so that one
pass of a workload does about the same amount of work whatever the seed:
seeds change the parameters, not the size of the job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# exact SI-2019 values, so derived SI inputs do not depend on scipy
HBAR = 6.62607015e-34 / (2.0 * math.pi)
K_B = 1.380649e-23

WORKLOADS = ("beta-sweep", "omega-sweep", "si-rates", "short-calls")

SI_REGIMES = (
    "resonant-2q",
    "resonant-total",
    "nonresonant",
    "nonresonant-2q",
    "linear-resonant",
    "linear-nonresonant",
)

# relative distance kept between a drawn beta and the bistability window edges
BETA_MARGIN = 0.03
# damping of bistable calls; a narrow band keeps the window's shape, and so
# the share of three-root rows, about the same from call to call
KAPPA_BISTABLE = (0.25, 0.35)
# the CLI refuses nonresonant channels with |w0^2 - wi^2| < GUARD * kappa * w0
GUARD = 10.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its inputs imply about the result."""

    argv: tuple[str, ...]
    kind: str         # which output check applies
    exit: int         # expected exit code
    rows: int         # expected table rows (0 for a refused call)
    info: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: tuple[Call, ...]   # one pass; the benchmark repeats it
    files: dict[str, str]     # --config files: relative path -> content


def window(kappa: float) -> tuple[float, float] | None:
    """(beta_low, beta_high) of the bistable window, None when monostable.

    Turning radii of beta(u) = u[(u-1)^2 + kappa^2] are
    u± = (2 ∓ sqrt(1 - 3 kappa^2)) / 3; u+ gives beta_low, u- beta_high.
    """
    disc = 1.0 - 3.0 * kappa * kappa
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    u_minus = (2.0 - root) / 3.0
    u_plus = (2.0 + root) / 3.0
    return beta_of_u(u_plus, kappa), beta_of_u(u_minus, kappa)


def beta_of_u(u: float, kappa: float) -> float:
    return u * ((u - 1.0) ** 2 + kappa * kappa)


def branches_at(beta: float, kappa: float) -> set[str] | None:
    """Stable branches present at beta, None when too close to an edge to say.

    Monostable parameters return None as well: the single branch is labelled
    by its radius, which needs the root.
    """
    win = window(kappa)
    if win is None:
        return None
    low, high = win
    if low * (1.0 + 1e-9) < beta < high * (1.0 - 1e-9):
        return {"small", "large"}
    if beta < low * (1.0 - 1e-9):
        return {"small"}
    if beta > high * (1.0 + 1e-9):
        return {"large"}
    return None


def _sig(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits}g}")


def _num(x: float) -> str:
    return repr(float(x))


def _grid(start: float, stop: float, count: int) -> str:
    # a leading '-' would be read as a flag, so the value is attached with '='
    return f"--grid={_num(start)}:{_num(stop)}:{count}"


class _Draw:
    """Seeded draws; stratified helpers keep per-pass totals seed-independent."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")

    def uniform(self, lo: float, hi: float) -> float:
        return _sig(self.rng.uniform(lo, hi))

    def log_uniform(self, lo: float, hi: float) -> float:
        return _sig(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))

    def strata(self, n: int, lo: int, hi: int, k: int = 0) -> list[tuple[int, bool]]:
        """n (grid size, flag) pairs, smallest stratum first.

        One size is drawn from the middle fifth of each of n log-spaced strata
        of [lo, hi], and k flags go to evenly spaced strata, so neither the
        total size of a pass nor the sizes of its flagged calls move much
        with the seed.
        """
        step = (math.log(hi) - math.log(lo)) / n
        sizes = [
            int(round(math.exp(math.log(lo) + (i + 0.4 + 0.2 * self.rng.random()) * step)))
            for i in range(n)
        ]
        flagged = {int((j + 0.5) * n / k) for j in range(k)} if k else set()
        return [(size, i in flagged) for i, size in enumerate(sizes)]

    def choice(self, seq):
        return self.rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self.rng.shuffle(seq)

    def beta_inside(self, kappa: float) -> float:
        low, high = window(kappa)
        return self.uniform(low * (1.0 + BETA_MARGIN), high * (1.0 - BETA_MARGIN))

    def beta_outside(self, kappa: float) -> tuple[float, str]:
        """A beta outside the window and the one branch that exists there."""
        low, high = window(kappa)
        if self.rng.random() < 0.5:
            return self.uniform(0.2 * low, low * (1.0 - BETA_MARGIN)), "small"
        return self.uniform(high * (1.0 + BETA_MARGIN), 2.0 * high), "large"


# ----------------------------------------------------------------------------
# call builders, one per output kind
# ----------------------------------------------------------------------------

def attractors_call(d: _Draw, n: int, monostable: bool) -> Call:
    if monostable:
        kappa = d.uniform(0.6, 0.9)
        start, stop = d.uniform(0.0, 0.02), d.uniform(0.35, 0.45)
    else:
        # the window takes a fixed share of the grid, so three-root rows
        # (the costlier ones) are a seed-independent share of the work
        kappa = d.uniform(*KAPPA_BISTABLE)
        low, high = window(kappa)
        span = (high - low) / d.uniform(0.38, 0.42)
        start = _sig(max(0.0, low - d.uniform(0.25, 0.35) * span))
        stop = _sig(start + span)
    argv = ["attractors", "--kappa-scaled", _num(kappa), _grid(start, stop, n)]
    return Call(tuple(argv), "attractors", 0, n, {"start": start, "stop": stop})


def teff_call(d: _Draw, n: int, monostable: bool, branch: str) -> Call:
    """teff over a beta grid on which the branch exists on a fixed share of points.

    The small branch exists below an edge and the large one above it: the
    window edges when bistable, otherwise the beta at which u = 2/3, where
    the single branch changes its label.
    """
    kappa = d.uniform(0.6, 0.9) if monostable else d.uniform(*KAPPA_BISTABLE)
    nbar = d.uniform(0.05, 1.5)
    omega_rel = d.uniform(-1.0, 1.0)
    share = d.uniform(0.78, 0.82)
    if monostable:
        small_edge = large_edge = beta_of_u(2.0 / 3.0, kappa)
    else:
        large_edge, small_edge = window(kappa)
    if branch == "small":
        start = d.uniform(0.1, 0.3) * small_edge
        stop = start + (small_edge - start) / share
    else:
        start = d.uniform(0.4, 0.6) * large_edge
        stop = (large_edge - share * start) / (1.0 - share)
    start, stop = _sig(start), _sig(stop)
    argv = ["teff", "--kappa-scaled", _num(kappa), "--nbar", _num(nbar),
            f"--omega-rel={_num(omega_rel)}", "--attractor", branch,
            _grid(start, stop, n)]
    return Call(tuple(argv), "teff", 0, n,
                {"branch": branch, "start": start, "stop": stop})


def _omega_grid(d: _Draw) -> tuple[float, float]:
    return -d.uniform(2.0, 6.0), d.uniform(2.0, 6.0)


def spectrum_call(d: _Draw, n: int, inside: bool, fmt: str = "csv") -> Call:
    kappa = d.uniform(*KAPPA_BISTABLE)
    if inside:
        beta, branch = d.beta_inside(kappa), d.choice(("small", "large"))
    else:
        beta, branch = d.beta_outside(kappa)
    lam = d.log_uniform(1e-3, 3e-2)
    nbar = d.uniform(0.05, 1.5)
    start, stop = _omega_grid(d)
    argv = ["spectrum", "--beta", _num(beta), "--kappa-scaled", _num(kappa),
            "--lambda-s", _num(lam), "--nbar", _num(nbar), "--attractor", branch,
            "--check", _grid(start, stop, n)]
    if fmt == "json":
        argv += ["--format", "json"]
    return Call(tuple(argv), "spectrum", 0, n,
                {"branch": branch, "format": fmt, "start": start, "stop": stop})


def rates_1q_call(d: _Draw, n: int, inside: bool) -> Call:
    kappa = d.uniform(*KAPPA_BISTABLE)
    beta = d.beta_inside(kappa) if inside else d.beta_outside(kappa)[0]
    nbar = d.uniform(0.05, 1.5)
    start, stop = _omega_grid(d)
    argv = ["rates", "--regime", "resonant-1q", "--beta", _num(beta),
            "--kappa-scaled", _num(kappa), "--nbar", _num(nbar),
            "--attractor", "both", _grid(start, stop, n)]
    return Call(tuple(argv), "rates-1q", 0, n,
                {"present": sorted(branches_at(beta, kappa)), "start": start, "stop": stop})


def si_physical(d: _Draw, kappa: float, beta: float, lam: float, nbar: float) -> dict:
    """Lab-frame parameters whose scaled values are (beta, kappa, lam, nbar).

    Inverse of the rotating-frame scaling: omega_f = ratio * detuning,
    gamma_s = 2 lam m^2 omega_f^2 detuning / (3 hbar),
    f0 = sqrt(2 beta (m omega_f detuning)^3 / (3 gamma_s)),
    and the temperature that puts nbar quanta at omega_f.
    """
    det = d.log_uniform(1e8, 5e8)
    ratio = d.uniform(30.0, 60.0)
    m = 3e-13
    omega_f = ratio * det
    omega_0 = omega_f + det
    gamma_s = 2.0 * lam * m * m * omega_f**2 * det / (3.0 * HBAR)
    f0 = math.sqrt(2.0 * beta * (m * omega_f * det) ** 3 / (3.0 * gamma_s))
    temperature = HBAR * omega_f / (K_B * math.log(1.0 + 1.0 / nbar))
    return {
        "mass": m, "omega0": omega_0, "omega_f": omega_f, "gamma_s": gamma_s,
        "f0": f0, "kappa": kappa * (omega_0 - omega_f),
        "temperature": temperature, "omega_c": 1e3 * omega_f,
    }


_SI_FLAG = {"mass": "--mass", "omega0": "--omega0", "omega_f": "--omega-f",
            "gamma_s": "--gamma-s", "f0": "--f0", "kappa": "--kappa",
            "temperature": "--temperature", "omega_c": "--omega-c"}


def _channels(regime: str, wq: float, p: dict) -> list[float]:
    """Frequencies the nonresonant formulas probe at qubit frequency wq."""
    wf, w0 = p["omega_f"], p["omega0"]
    if regime == "nonresonant":
        return [w for w in (wq + wf, wq - wf, wf - wq) if w > 0.0]
    if regime == "nonresonant-2q":
        return [w for w in (wq - w0, w0 - wq, wq + w0) if w > 0.0]
    if regime == "linear-nonresonant":
        return [wq]
    return []


def guard_clear(regime: str, start: float, stop: float, p: dict) -> bool:
    """True when no channel over [start, stop] enters the resonance guard band.

    Each channel frequency is monotone in wq, so it suffices to test that the
    band around omega_0 lies wholly on one side of the channel's range.
    """
    w0 = p["omega0"]
    band = GUARD * p["kappa"] * w0
    lo_edge = math.sqrt(max(w0 * w0 - band, 0.0))
    hi_edge = math.sqrt(w0 * w0 + band)
    a, b = _channels(regime, start, p), _channels(regime, stop, p)
    if len(a) != len(b):
        return False  # a channel opens or closes inside the range
    for wa, wb in zip(a, b):
        lo, hi = min(wa, wb), max(wa, wb)
        if not (hi < lo_edge * 0.999 or lo > hi_edge * 1.001):
            return False
    return True


def si_grid(d: _Draw, regime: str, p: dict) -> tuple[float, float]:
    wf, w0, kap = p["omega_f"], p["omega0"], p["kappa"]
    det = w0 - wf
    if regime == "resonant-total":
        return 2.0 * wf - d.uniform(2.0, 5.0) * det, 2.0 * wf + d.uniform(2.0, 5.0) * det
    if regime == "linear-resonant":
        return wf - d.uniform(2.0, 5.0) * det, wf + d.uniform(2.0, 5.0) * det
    if regime == "resonant-2q":
        return 2.0 * w0 - d.uniform(5.0, 50.0) * kap, 2.0 * w0 + d.uniform(5.0, 50.0) * kap
    if regime == "nonresonant":
        return d.uniform(3.0, 3.5) * wf, d.uniform(4.0, 6.0) * wf
    if regime == "nonresonant-2q":
        return d.uniform(2.5, 3.0) * w0, d.uniform(3.5, 5.0) * w0
    return d.uniform(1.5, 2.0) * w0, d.uniform(2.5, 3.5) * w0  # linear-nonresonant


def si_call(d: _Draw, regime: str, n: int, fmt: str = "json") -> Call:
    kappa = d.uniform(*KAPPA_BISTABLE)
    beta = d.beta_inside(kappa)
    branch = d.choice(("small", "large"))
    lam = d.log_uniform(1e-5, 1e-3)
    nbar = d.uniform(0.1, 1.0)
    p = si_physical(d, kappa, beta, lam, nbar)
    start, stop = si_grid(d, regime, p)
    if not guard_clear(regime, start, stop, p):
        raise AssertionError(f"{regime} grid enters the guard band")
    argv = ["rates", "--regime", regime]
    for key, flag in _SI_FLAG.items():
        argv += [flag, _num(p[key])]
    argv += ["--qubit-delta", _num(d.uniform(1e-3, 1e-2) * p["omega_f"])]
    if regime.startswith("linear"):
        argv += ["--v-x", _num(d.log_uniform(1e-16, 1e-14)),
                 "--v-z", _num(d.log_uniform(1e-16, 1e-14))]
    else:
        argv += ["--delta-q", _num(d.log_uniform(1e5, 1e7))]
    if regime in ("resonant-total", "nonresonant", "linear-resonant"):
        argv += ["--attractor", branch]
    argv += [_grid(start, stop, n), "--format", fmt]
    return Call(tuple(argv), "rates-si", 0, n,
                {"regime": regime, "format": fmt, "start": start, "stop": stop})


def match_call(d: _Draw) -> Call:
    hier = sorted(d.rng.sample([10, 20, 30, 50, 100], d.choice((2, 3))))
    argv = ["match", "--hierarchies", ",".join(str(h) for h in hier)]
    return Call(tuple(argv), "match", 0, len(hier), {"hierarchies": hier})


def validate_call(d: _Draw) -> Call:
    # kappa stays at the command's default: the bifurcation-gap self-check
    # fails for some other kappa (0.321752 gives |det K| = 2.3e-8 > 1e-8)
    beta = d.beta_inside(0.3)
    argv = ["validate", "--beta", _num(beta), "--lambda-s",
            _num(d.log_uniform(1e-3, 3e-2)), "--nbar", _num(d.uniform(0.05, 1.5))]
    return Call(tuple(argv), "validate", 0, 6, {})


def absent_branch_call(d: _Draw, n: int) -> Call:
    """A branch that does not exist at beta: refused with exit 1."""
    kappa = d.uniform(*KAPPA_BISTABLE)
    beta, present = d.beta_outside(kappa)
    missing = "large" if present == "small" else "small"
    start, stop = _omega_grid(d)
    argv = ["spectrum", "--beta", _num(beta), "--kappa-scaled", _num(kappa),
            "--attractor", missing, _grid(start, stop, n)]
    return Call(tuple(argv), "refused", 1, 0, {})


def near_resonance_call(d: _Draw, n: int) -> Call:
    """A nonresonant grid whose middle point sits on a channel resonance: exit 2."""
    kappa = d.uniform(*KAPPA_BISTABLE)
    beta = d.beta_inside(kappa)
    p = si_physical(d, kappa, beta, d.log_uniform(1e-5, 1e-3), d.uniform(0.1, 1.0))
    regime = d.choice(("nonresonant", "linear-nonresonant"))
    centre = p["omega_f"] + p["omega0"] if regime == "nonresonant" else p["omega0"]
    half = 1e-3 * centre
    argv = ["rates", "--regime", regime]
    for key, flag in _SI_FLAG.items():
        argv += [flag, _num(p[key])]
    argv += ["--qubit-delta", _num(1e-3 * p["omega_f"]), "--delta-q", "1e6",
             "--v-x", "1e-15", "--attractor", "large",
             _grid(centre - half, centre + half, n | 1)]
    return Call(tuple(argv), "refused", 2, 0, {})


# ----------------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------------

def _teff_calls(d: _Draw, strata: list[tuple[int, bool]]) -> list[Call]:
    """teff calls whose branch alternates over the strata (the small branch
    costs more per row), separately among monostable and bistable calls."""
    first = d.choice((0, 1))
    seen = {True: first, False: first}
    calls = []
    for n, mono in strata:
        calls.append(teff_call(d, n, mono, ("small", "large")[seen[mono] % 2]))
        seen[mono] += 1
    return calls


def _beta_sweep(d: _Draw) -> tuple[list[Call], dict[str, str]]:
    calls = [attractors_call(d, n, mono) for n, mono in d.strata(12, 1000, 8000, 3)]
    calls += _teff_calls(d, d.strata(12, 1000, 8000, 3))
    d.shuffle(calls)
    return calls, {}


def _omega_sweep(d: _Draw) -> tuple[list[Call], dict[str, str]]:
    calls = [spectrum_call(d, n, inside) for n, inside in d.strata(16, 600, 5000, 10)]
    calls += [rates_1q_call(d, n, True) for n, _ in d.strata(16, 600, 5000)]
    d.shuffle(calls)
    return calls, {}


def _si_rates(d: _Draw) -> tuple[list[Call], dict[str, str]]:
    calls = [si_call(d, regime, n)
             for regime in SI_REGIMES for n, _ in d.strata(5, 200, 2000)]
    d.shuffle(calls)
    return calls, {}


def _short_calls(d: _Draw, workdir: str) -> tuple[list[Call], dict[str, str]]:
    calls = [attractors_call(d, n, mono) for n, mono in d.strata(6, 60, 150, 2)]
    calls += [spectrum_call(d, n, inside, "json" if k == 0 else "csv")
              for k, (n, inside) in enumerate(d.strata(6, 60, 150, 4))]
    calls += [rates_1q_call(d, n, inside) for n, inside in d.strata(6, 60, 150, 4)]
    calls += [si_call(d, regime, n, d.choice(("csv", "json")))
              for regime, (n, _) in zip(SI_REGIMES, d.strata(6, 60, 150))]
    calls += _teff_calls(d, d.strata(6, 60, 150, 2))
    calls += [match_call(d), match_call(d), validate_call(d)]
    calls += [absent_branch_call(d, n) for n, _ in d.strata(3, 60, 150)]
    calls += [near_resonance_call(d, n) for n, _ in d.strata(3, 60, 150)]

    # a quarter of the table calls take their parameters from a --config file
    files: dict[str, str] = {}
    table = [i for i, c in enumerate(calls) if c.kind in ("attractors", "rates-1q", "teff")]
    for j, i in enumerate(sorted(d.rng.sample(table, len(table) // 4))):
        path = f"{workdir}/call{j:02d}.conf"
        argv, files[path] = _config_split(calls[i].argv, path)
        c = calls[i]
        calls[i] = Call(argv, c.kind, c.exit, c.rows, c.info)
    d.shuffle(calls)
    return calls, files


def _config_split(argv: tuple[str, ...], path: str) -> tuple[tuple[str, ...], str]:
    """Move every value flag except --grid into a key=value file."""
    kept = [argv[0]]
    lines = ["# generated benchmark input"]
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--grid") or "=" in tok or i + 1 >= len(argv):
            kept.append(tok)
            i += 1
            continue
        key = tok[2:].replace("-", "_")
        lines.append(f"{key} = {argv[i + 1]}")
        i += 2
    kept += ["--config", path]
    return tuple(kept), "\n".join(lines) + "\n"


def generate(name: str, seed: int, workdir: str = "perfbench/.work") -> Workload:
    """One pass of workload ``name`` for ``seed``.

    ``workdir`` is the relative directory the --config files of
    ``short-calls`` are written to; it appears verbatim in their argv.
    """
    d = _Draw(name, seed)
    if name == "beta-sweep":
        calls, files = _beta_sweep(d)
    elif name == "omega-sweep":
        calls, files = _omega_sweep(d)
    elif name == "si-rates":
        calls, files = _si_rates(d)
    elif name == "short-calls":
        calls, files = _short_calls(d, f"{workdir}/short-calls-{seed}")
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(name, seed, tuple(calls), files)
