"""Output checks for the benchmark's CLI invocations.

Every check works from the printed table and the inputs the generator
recorded, with formulas written out here; none of them calls the library.
A check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import HBAR, K_B, Call, window

SCHEMA = "duffing-qubit/1"
WEAK_DAMPING = "WeakDampingViolated"

# tolerances: the cubic residual and the closed-form oracle as stated in the
# paper's checks, the dual-route agreement the CLI itself gates on
ROOT_TOL = 1e-10
ORACLE_TOL = 1e-10
ROUTE_TOL = 1e-6
IDENTITY_TOL = 1e-12
TEMPERATURE_TOL = 1e-9


class Table:
    """A parsed CSV or JSON table: header params, column names and rows."""

    def __init__(self, params: dict, columns: list[str], rows: list[list]):
        self.params = params
        self.columns = columns
        self.rows = rows

    def col(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([float(r[i]) for r in self.rows])

    def text(self, name: str) -> list[str]:
        i = self.columns.index(name)
        return [str(r[i]) for r in self.rows]

    def param(self, name: str) -> float:
        return float(self.params[name])


def parse_csv(text: str) -> Table:
    params: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        params[key] = value
        i += 1
    if i == len(lines):
        raise ValueError("no column line")
    columns = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:]]
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("ragged rows")
    return Table(params, columns, rows)


def parse_json(text: str) -> Table:
    doc = json.loads(text)
    return Table(dict(doc["params"], schema=doc["schema"]), doc["columns"], doc["rows"])


def parse(text: str, fmt: str) -> Table:
    return parse_json(text) if fmt == "json" else parse_csv(text)


def _rel_bad(value: np.ndarray, ref: np.ndarray, tol: float) -> int:
    """Count entries with |value - ref| > tol * |ref|; equal infinities and nans pass."""
    same = (value == ref) | (np.isnan(value) & np.isnan(ref))
    with np.errstate(invalid="ignore"):
        close = np.abs(value - ref) <= tol * np.abs(ref)
    return int(np.count_nonzero(~(same | close)))


def cubic_residual(u: np.ndarray, beta: np.ndarray, kappa: float) -> np.ndarray:
    """|u[(u-1)^2 + kappa^2] - beta| / max(beta, 1)."""
    return np.abs(u * ((u - 1.0) ** 2 + kappa * kappa) - beta) / np.maximum(beta, 1.0)


def gap_squared(u: np.ndarray, kappa: float) -> np.ndarray:
    """nu^2 = kappa^2 + 3u^2 - 4u + 1, the drift determinant at radius u."""
    return kappa * kappa + (3.0 * u - 4.0) * u + 1.0


def closed_form(w, u, nu, kappa, lam, n_bar, emission: bool):
    """2 lam kappa {a[(w-(2u-1))^2 + kappa^2] + b u^2} / [(w^2-nu^2)^2 + 4 kappa^2 w^2].

    Emission weights (a, b) = (n+1, n); absorption interchanges them.
    """
    a, b = (n_bar + 1.0, n_bar) if emission else (n_bar, n_bar + 1.0)
    num = a * ((w - (2.0 * u - 1.0)) ** 2 + kappa**2) + b * u * u
    den = (w * w - nu**2) ** 2 + 4.0 * kappa**2 * w * w
    return 2.0 * lam * kappa * num / den


def _header(t: Table, columns: list[str], call: Call) -> list[str]:
    out = []
    if t.params.get("schema") != SCHEMA:
        out.append(f"schema header {t.params.get('schema')!r}, expected {SCHEMA!r}")
    if t.columns != columns:
        out.append(f"columns {t.columns}, expected {columns}")
    if len(t.rows) != call.rows:
        out.append(f"{len(t.rows)} rows, expected {call.rows}")
    return out


def _grid_ends(x: np.ndarray, call: Call) -> list[str]:
    if len(x) and (x[0] != call.info["start"] or x[-1] != call.info["stop"]):
        return [f"grid runs {x[0]!r}..{x[-1]!r}, expected "
                f"{call.info['start']!r}..{call.info['stop']!r}"]
    if np.any(np.diff(x) <= 0.0):
        return ["grid is not increasing"]
    return []


def _root_problems(u: np.ndarray, nu: np.ndarray | None, beta, kappa: float,
                   label: str) -> list[str]:
    out = []
    ok = np.isfinite(u)
    beta = np.broadcast_to(beta, u.shape)
    res = cubic_residual(u[ok], beta[ok], kappa)
    if res.size and res.max() > ROOT_TOL:
        out.append(f"{label}: cubic residual {res.max():.3e} > {ROOT_TOL:g}")
    if nu is not None:
        nu_ok = nu[ok]
        det = gap_squared(u[ok], kappa)
        bad = np.abs(nu_ok * nu_ok - det) > ROOT_TOL * np.maximum(1.0, np.abs(det))
        if np.any(bad):
            out.append(f"{label}: nu^2 differs from the drift determinant")
    return out


def _expected_count(beta: np.ndarray, kappa: float) -> np.ndarray:
    """Expected number of steady states per beta, 0 where too close to an edge."""
    win = window(kappa)
    if win is None:
        return np.ones_like(beta, dtype=int)
    low, high = win
    near = (np.abs(beta - low) <= 1e-9 * low) | (np.abs(beta - high) <= 1e-9 * high)
    inside = (beta > low) & (beta < high)
    return np.where(near, 0, np.where(inside, 3, 1))


def check_attractors(call: Call, out: str) -> list[str]:
    cols = ["beta", "u_small", "nu_small", "u_unstable", "u_large", "nu_large"]
    t = parse_csv(out)
    problems = _header(t, cols, call)
    if problems:
        return problems
    kappa = t.param("kappa_scaled")
    beta = t.col("beta")
    problems += _grid_ends(beta, call)
    us, ul, uu = t.col("u_small"), t.col("u_large"), t.col("u_unstable")
    problems += _root_problems(us, t.col("nu_small"), beta, kappa, "small")
    problems += _root_problems(ul, t.col("nu_large"), beta, kappa, "large")
    problems += _root_problems(uu, None, beta, kappa, "unstable")

    count = np.isfinite(us).astype(int) + np.isfinite(uu) + np.isfinite(ul)
    expected = _expected_count(beta, kappa)
    known = expected > 0
    if np.any(count[known] != expected[known]):
        problems.append("branch count does not match the bistability window")
    win = window(kappa)
    if win is not None:
        low, high = win
        below = beta < low * (1.0 - 1e-9)
        above = beta > high * (1.0 + 1e-9)
        if np.any(~np.isfinite(us[below])) or np.any(~np.isfinite(ul[above])):
            problems.append("single branch outside the window has the wrong label")
    else:
        if np.any(us[np.isfinite(us)] > 2.0 / 3.0) or np.any(ul[np.isfinite(ul)] <= 2.0 / 3.0):
            problems.append("monostable branch label disagrees with u = 2/3")
    three = count == 3
    if np.any(~((us[three] < uu[three]) & (uu[three] < ul[three]))):
        problems.append("branches are not ordered small < unstable < large")
    return problems


def _rate_problems(w, u, nu, ge, gg, kappa, n_bar, label: str) -> list[str]:
    """Scaled resonant-1q rates against the closed form (lambda_s stripped)."""
    out = []
    if _rel_bad(ge, closed_form(w, u, nu, kappa, 1.0, n_bar, True), ORACLE_TOL):
        out.append(f"{label}: gamma_e_scaled differs from the closed form")
    if _rel_bad(gg, closed_form(w, u, nu, kappa, 1.0, n_bar, False), ORACLE_TOL):
        out.append(f"{label}: gamma_g_scaled differs from the closed form")
    return out


def _teff_star(ge: np.ndarray, gg: np.ndarray) -> np.ndarray:
    """1/ln(ge/gg): nan unless both rates are positive, inf when they balance."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ln = np.log(ge / gg)
        return np.where((ge > 0) & (gg > 0), 1.0 / ln, np.nan)


def _flag_problems(flags: list[str], kappa: float, nu: np.ndarray, label: str) -> list[str]:
    want = [WEAK_DAMPING if kappa >= v else "" for v in nu]
    if flags != want:
        return [f"{label}: weak-damping flags disagree with kappa >= nu"]
    return []


def check_teff(call: Call, out: str) -> list[str]:
    cols = ["beta", "u", "nu", "gamma_e_scaled", "gamma_g_scaled", "ln_ratio",
            "teff_star", "flags"]
    t = parse_csv(out)
    problems = _header(t, cols, call)
    if problems:
        return problems
    kappa, n_bar, w = t.param("kappa_scaled"), t.param("nbar"), t.param("omega_rel")
    beta = t.col("beta")
    problems += _grid_ends(beta, call)
    flags = t.text("flags")
    gone = np.array([f in ("absent", "marginal") for f in flags])
    ok = ~gone
    u, nu = t.col("u")[ok], t.col("nu")[ok]
    ge, gg = t.col("gamma_e_scaled")[ok], t.col("gamma_g_scaled")[ok]
    ln = t.col("ln_ratio")[ok]
    problems += _root_problems(u, nu, beta[ok], kappa, "teff")
    problems += _rate_problems(w, u, nu, ge, gg, kappa, n_bar, "teff")
    with np.errstate(divide="ignore", invalid="ignore"):
        want_ln = np.where((ge > 0) & (gg > 0), np.log(ge / gg), np.nan)
        if _rel_bad(ln, want_ln, ORACLE_TOL):
            problems.append("ln_ratio differs from ln(gamma_e/gamma_g)")
        if _rel_bad(t.col("teff_star")[ok], 1.0 / ln, IDENTITY_TOL):
            problems.append("teff_star differs from 1/ln(gamma_e/gamma_g)")
    problems += _flag_problems([f for f, g in zip(flags, gone) if not g], kappa, nu, "teff")
    if np.any(np.isfinite(t.col("u")[gone])):
        problems.append("absent rows carry values")

    branch = call.info["branch"]
    win = window(kappa)
    if win is not None:
        low, high = win
        if branch == "small":
            must_gone, must_have = beta > high * (1 + 1e-9), beta < high * (1 - 1e-9)
        else:
            must_gone, must_have = beta < low * (1 - 1e-9), beta > low * (1 + 1e-9)
        if np.any(~gone[must_gone]) or np.any(gone[must_have]):
            problems.append(f"{branch} branch presence disagrees with the window")
    elif np.any((u > 2.0 / 3.0) if branch == "small" else (u <= 2.0 / 3.0)):
        problems.append("monostable branch label disagrees with u = 2/3")
    return problems


def check_spectrum(call: Call, out: str) -> list[str]:
    cols = ["omega", "emission_closed", "absorption_closed", "emission_matrix",
            "absorption_matrix"]
    t = parse(out, call.info["format"])
    problems = _header(t, cols, call)
    if problems:
        return problems
    if t.params.get("attractor") != call.info["branch"]:
        problems.append(f"attractor {t.params.get('attractor')!r}, asked for {call.info['branch']!r}")
    kappa, lam, n_bar = t.param("kappa_scaled"), t.param("lambda_s"), t.param("nbar")
    u, nu, beta = t.param("u"), t.param("nu"), t.param("beta")
    w = t.col("omega")
    problems += _grid_ends(w, call)
    problems += _root_problems(np.array([u]), np.array([nu]), beta, kappa, "spectrum")
    worst = 0.0
    for kind, emission in (("emission", True), ("absorption", False)):
        closed, matrix = t.col(f"{kind}_closed"), t.col(f"{kind}_matrix")
        if _rel_bad(closed, closed_form(w, u, nu, kappa, lam, n_bar, emission), ORACLE_TOL):
            problems.append(f"{kind}_closed differs from the closed form")
        scale = np.maximum(np.maximum(np.abs(closed), np.abs(matrix)), 1e-300)
        worst = max(worst, float(np.max(np.abs(closed - matrix) / scale)))
    if not worst <= ROUTE_TOL:
        problems.append(f"dual-route deviation {worst:.3e} > {ROUTE_TOL:g}")
    if not t.param("max_route_deviation") <= ROUTE_TOL:
        problems.append("header max_route_deviation exceeds the limit")
    return problems


def check_rates_1q(call: Call, out: str) -> list[str]:
    tags = ("small", "large")
    cols = ["omega"] + [
        f"{name}_{tag}" for tag in tags
        for name in ("u", "nu", "gamma_e_scaled", "gamma_g_scaled", "teff_star", "flags")
    ]
    t = parse_csv(out)
    problems = _header(t, cols, call)
    if problems:
        return problems
    kappa, n_bar, beta = t.param("kappa_scaled"), t.param("nbar"), t.param("beta")
    w = t.col("omega")
    problems += _grid_ends(w, call)
    for tag in tags:
        u, nu = t.col(f"u_{tag}"), t.col(f"nu_{tag}")
        flags = t.text(f"flags_{tag}")
        if tag not in call.info["present"]:
            if np.any(np.isfinite(u)) or any(f != "absent" for f in flags):
                problems.append(f"absent {tag} branch carries values")
            continue
        if np.any(u != t.param(f"u_{tag}")) or np.any(nu != t.param(f"nu_{tag}")):
            problems.append(f"{tag}: u or nu differs from the header")
            continue
        ge, gg = t.col(f"gamma_e_scaled_{tag}"), t.col(f"gamma_g_scaled_{tag}")
        problems += _root_problems(u[:1], nu[:1], beta, kappa, tag)
        problems += _rate_problems(w, u, nu, ge, gg, kappa, n_bar, tag)
        if _rel_bad(t.col(f"teff_star_{tag}"), _teff_star(ge, gg), IDENTITY_TOL):
            problems.append(f"{tag}: teff_star differs from 1/ln(gamma_e/gamma_g)")
        problems += _flag_problems(flags, kappa, nu, tag)
    return problems


def check_rates_si(call: Call, out: str) -> list[str]:
    cols = ["omega_q", "gamma_e", "gamma_g", "t1", "t_eff", "flags"]
    t = parse(out, call.info["format"])
    problems = _header(t, cols, call)
    if problems:
        return problems
    wq, ge, gg = t.col("omega_q"), t.col("gamma_e"), t.col("gamma_g")
    t1, t_eff = t.col("t1"), t.col("t_eff")
    problems += _grid_ends(wq, call)
    if not (np.all(np.isfinite(ge)) and np.all(np.isfinite(gg))):
        return problems + ["rates are not finite"]
    if np.any(ge < 0.0) or np.any(gg < 0.0):
        problems.append("negative rate")
    total = ge + gg
    with np.errstate(divide="ignore"):
        want_t1 = np.where(total == 0.0, np.inf, 1.0 / total)
    if _rel_bad(t1, want_t1, IDENTITY_TOL):
        problems.append("t1 differs from 1/(gamma_e + gamma_g)")
    both = (ge > 0.0) & (gg > 0.0) & (ge != gg)
    want_teff = HBAR * wq[both] / (K_B * np.log(ge[both] / gg[both]))
    if _rel_bad(t_eff[both], want_teff, TEMPERATURE_TOL):
        problems.append("t_eff differs from hbar omega_q / (kB ln(gamma_e/gamma_g))")
    if call.info["regime"] == "linear-nonresonant":
        temp = t.param("temperature")
        if _rel_bad(t_eff[both], np.full(int(both.sum()), temp), TEMPERATURE_TOL):
            problems.append("linear-nonresonant t_eff differs from the bath temperature")
    return problems


def check_match(call: Call, out: str) -> list[str]:
    cols = ["h", "ratio_e", "ratio_g", "dev_e", "dev_g"]
    t = parse_csv(out)
    problems = _header(t, cols, call)
    if problems:
        return problems
    if list(t.col("h")) != [float(h) for h in call.info["hierarchies"]]:
        problems.append("hierarchy column differs from the request")
    for kind in ("e", "g"):
        dev = t.col(f"dev_{kind}")
        if np.any(dev != np.abs(t.col(f"ratio_{kind}") - 1.0)):
            problems.append(f"dev_{kind} differs from |ratio_{kind} - 1|")
        if np.any(np.diff(dev) >= 0.0):
            problems.append(f"dev_{kind} does not shrink as the hierarchy deepens")
    return problems


def check_validate(call: Call, out: str) -> list[str]:
    lines = out.splitlines()
    if len(lines) != call.rows:
        return [f"{len(lines)} self-check lines, expected {call.rows}"]
    failed = [line for line in lines if not line.startswith("ok  ")]
    return [f"self-check not ok: {line}" for line in failed]


CHECKS = {
    "attractors": check_attractors,
    "teff": check_teff,
    "spectrum": check_spectrum,
    "rates-1q": check_rates_1q,
    "rates-si": check_rates_si,
    "match": check_match,
    "validate": check_validate,
}


def check(call: Call, code, out: str, err: str) -> list[str]:
    """Problems with one invocation's exit code and output; empty when correct."""
    if code != call.exit:
        detail = err.strip().splitlines()[-1] if err.strip() else ""
        return [f"exit {code!r}, expected {call.exit}: {detail}"]
    if call.exit != 0:
        if out or not err.startswith("error:"):
            return ["refused call printed a table or no error message"]
        return []
    try:
        return CHECKS[call.kind](call, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {call.kind} output: {exc!r}"]


def rows_out(call: Call, code) -> int:
    """Output rows a completed call produced (0 for a refused or failed one)."""
    return call.rows if code == call.exit == 0 else 0

