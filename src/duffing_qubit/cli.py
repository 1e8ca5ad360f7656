"""Command-line front end: parameter sweeps and figure-style tables.

Subcommands
-----------
attractors  branch radii and quasienergy gaps vs drive intensity
spectrum    emission/absorption spectra, closed form and matrix route
rates       decay/excitation rates vs detuning (regime selected explicitly)
teff        effective qubit temperature vs drive intensity
match       resonant vs nonresonant rate ratio across a frequency hierarchy
validate    internal self-checks (root residuals, Lyapunov, dual route)

Output is CSV with a commented ``# key=value`` header block (or JSON with
``--format json``), deterministic byte-for-byte for identical inputs.
Dimensionless-first: resonant commands take (beta, kappa_scaled, lambda_s,
n_bar, omega_rel) directly; SI parameters are needed only for the
nonresonant and two-quantum regimes.

Exit codes: 0 success, 1 input error (also an arithmetic fault on an extreme
input), 2 validity-fatal (marginal attractor, singular denominator), 3
self-check failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .attractors import (
    Branch,
    MarginalAttractorError,
    bifurcation_betas,
    drift_matrix,
    solve_branches,
)
from .fluctuations import spectra, spectra_from_matrix, stationary_covariance
from .model import PhysicalParams, physical_from_scaled, scale_params
from .rates import (
    FLAG_THRESHOLDS,
    FLAG_WEAK_DAMPING,
    NearResonanceError,
    QubitParams,
    gamma_linear_nonresonant,
    gamma_linear_resonant,
    gamma_nonresonant,
    gamma_nonresonant_2q,
    gamma_resonant_1q,
    gamma_resonant_2q,
    gamma_total_resonant,
    log_rate_ratio,
    resonant_1q_scaled,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDITY = 2
EXIT_SELFCHECK = 3

SCHEMA = "duffing-qubit/1"

# largest relative closed-form vs matrix-route deviation the self-checks pass
DUAL_ROUTE_LIMIT = 1e-6

_REGIMES = (
    "resonant-1q",
    "resonant-2q",
    "resonant-total",
    "nonresonant",
    "nonresonant-2q",
    "linear-resonant",
    "linear-nonresonant",
)

# the SI oscillator parameters, in the field order of PhysicalParams
_SI_KEYS = ("mass", "omega0", "omega_f", "gamma_s", "f0", "kappa", "temperature", "omega_c")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad input; remap to our input-error code
    def error(self, message):
        raise ValueError(message)


def parse_grid(spec: str) -> np.ndarray:
    """Parse start:stop:count[:log] into an array of sweep points."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"bad grid {spec!r}, expected start:stop:count[:log]")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {spec!r}: {exc}") from None
    log = len(parts) == 4
    if log and parts[3] != "log":
        raise ValueError(f"bad grid suffix {parts[3]!r}, only 'log' is allowed")
    # also catches finite endpoints whose span overflows to inf
    if not math.isfinite(stop - start):
        raise ValueError(f"bad grid {spec!r}: endpoints and their span must be finite")
    if count < 2:
        raise ValueError("grid count must be at least 2")
    if not start < stop:
        raise ValueError("grid start must be below stop")
    if log and start <= 0:
        raise ValueError("log grid requires positive endpoints")
    try:
        return np.geomspace(start, stop, count) if log else np.linspace(start, stop, count)
    except MemoryError as exc:  # numpy refuses a count it cannot allocate
        raise ValueError(f"bad grid {spec!r}: {exc}") from None


def load_config(path: str | None) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment; flags override these."""
    if path is None:
        return {}
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    return out


# Each subcommand's parameters, in the order they are resolved and echoed in
# the output header: name -> default, REQUIRED, or None for a flag that is
# accepted but not read.  The flag is the name with "-" for "_"; a flag beats
# its config key, which beats the default.
REQUIRED = object()
_BRANCHES = ("small", "large")

_ATTRACTORS = {"kappa_scaled": REQUIRED, "grid": "0:0.25:201"}
_SPECTRUM = {"beta": REQUIRED, "kappa_scaled": REQUIRED, "lambda_s": 0.01, "nbar": 0.5,
             "attractor": "large", "grid": "-5:5:2001"}
# rates reads the table of its --regime after the regime itself
_RATES = {"regime": "resonant-1q"}
_RATES_1Q_BRANCHES = (*_BRANCHES, "both")
_RATES_1Q = {"beta": REQUIRED, "kappa_scaled": REQUIRED, "nbar": 0.5, "lambda_s": None,
             "attractor": "both", "grid": "-5:5:2001"}
_RATES_SI = {**dict.fromkeys(_SI_KEYS, REQUIRED), "grid": REQUIRED, "attractor": "large",
             "qubit_delta": REQUIRED, "delta_q": 0.0, "v_x": 0.0, "v_z": 0.0}
_TEFF = {"beta": None, "kappa_scaled": REQUIRED, "nbar": 0.5, "lambda_s": None,
         "omega_rel": REQUIRED, "attractor": REQUIRED, "grid": "0.01:0.179:170"}
_MATCH = {"beta": 0.12, "kappa_scaled": 0.3, "nbar": 0.5, "lambda_s": 1e-3,
          "hierarchies": "10,30,100"}
_VALIDATE = {"beta": 0.12, "kappa_scaled": 0.3, "lambda_s": 0.01, "nbar": 0.5}

# the parameters read as text; every other one is a float
_TEXT = ("regime", "attractor", "grid", "hierarchies")


def _resolve(args, config: dict[str, str], table: dict, branches=_BRANCHES) -> dict:
    """Set each parameter of ``table`` on ``args``, in table order.

    A regime or an attractor, from a flag or a config key, must be one of
    the choices (``branches`` for the attractor).  Returns the header echo:
    every resolved value but the grid and the hierarchies.
    """
    echo = {}
    for name, default in table.items():
        if default is None:
            continue
        flag = "--" + name.replace("_", "-")
        value = getattr(args, name)
        if value is None and name in config:
            try:
                value = config[name] if name in _TEXT else float(config[name])
            except ValueError as exc:
                raise ValueError(f"config key {name}: {exc}") from None
        if value is None:
            value = default
        if value is REQUIRED:
            raise ValueError(f"missing required parameter {flag}")
        choices = {"regime": _REGIMES, "attractor": branches}.get(name)
        if choices and value not in choices:
            raise ValueError(f"invalid {flag} {value!r}: choose from {', '.join(choices)}")
        setattr(args, name, value)
        if name not in ("grid", "hierarchies"):
            echo[name] = value
    return echo


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return v
        return repr(v)  # "inf", "-inf", "nan"
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _column_text(col: list | tuple, as_json: bool) -> list[str] | tuple[str, ...]:
    """The text of each cell of one column of scalars: ``_fmt``'s, or with
    ``as_json`` the JSON of ``_json_safe``'s value.  This formats list and
    tuple columns and arrays of any dtype but float64; ``_float_block``
    formats float64 arrays, and here the floats of a column of floats that
    is not constant.

    A value that repeats is formatted once: a constant float column, and the
    distinct strings of a string column.  Zeros are never shared, since
    0.0 == -0.0 but their texts differ.
    """
    kinds = set(map(type, col))
    if kinds == {float}:
        first = col[0]
        if first != 0.0 and col.count(first) == len(col):
            text = repr(first)
            return [_QUOTED.get(text, text) if as_json else text] * len(col)
        return _float_block([np.array(col)], as_json).split(_ROW_MARK[as_json])
    if kinds == {str}:
        if not as_json:
            return col
        text = {s: json.dumps(s) for s in set(col)}
        return list(map(text.__getitem__, col))
    if as_json:
        return [json.dumps(_json_safe(v)) for v in col]
    return list(map(_fmt, col))


def _float_block(run: list[np.ndarray], as_json: bool) -> str:
    """The text of a run of adjacent float64 array columns: CSV lines, or with
    ``as_json`` the cells laid out as inside the JSON "rows" list; a row but
    the last ends in ``_ROW_MARK``.  A cell's text is ``_fmt``'s, or with
    ``as_json`` the JSON of ``_json_safe``'s value.

    One ``orjson.dumps`` writes the run's cells in row-major order with
    Ryu's shortest round-trip digits, which are ``repr``'s, and the commas
    between them give each cell's bytes.  orjson's layout is mended on that
    one text, with no cell formatted on its own:
    - a non-finite cell is dumped as 0.0 (-0.0 for -inf), which orjson
      writes fast and which is as wide as nan, inf or -inf, written over it;
      one regex quotes these words in JSON;
    - the comma that ends a row becomes the row mark;
    - an exponent gains repr's sign (e16 -> e+16) or two digits (e-7 ->
      e-07), and a cell with 1e-5 <= |x| < 1e-4 turns from 0.0000ddd into
      d.ddde-05: in place, with marker bytes that one pass of ``replace``
      widens and zero bytes, which it drops, for the bytes the cell frees.
    """
    import orjson  # here, not at import: that would add ~6 ms to every start-up
    cells = np.column_stack(run).reshape(-1)
    mag = np.abs(cells)
    band, odd = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4)), np.flatnonzero(~(mag < np.inf))
    odd_values = cells[odd]
    cells[odd] = np.where(odd_values < 0, -0.0, 0.0)
    text = orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)
    buf = bytearray(text)
    at = np.frombuffer(buf, np.uint8)
    if b"e" in text:  # e16 -> \1 16 and e-7 -> e \2 7, where \1 -> e+ and \2 -> -0 below
        e = np.flatnonzero(at == ord("e"))
        at[e[at[e + 1] != ord("-")]] = 1
        at[e[(at[e + 1] == ord("-")) & (at[e + 3] - ord("0") > 9)] + 1] = 2  # no 2nd digit
    seps = np.concatenate(([0], np.flatnonzero(at == ord(",")), [len(buf) - 1]))  # around cells
    if odd.size:  # nan or inf over 0.0, or over the 0.0 of -0.0
        at[(seps[odd] + 1 + (odd_values < 0))[:, None] + np.arange(3)] = np.where(
            np.isnan(odd_values)[:, None], list(b"nan"), list(b"inf"))
    if band.size:  # [-]0.0000d[ddd] -> [-]d[.ddd]e-05 and one or two zero bytes
        p, e = seps[band] + 1 + (cells[band] < 0), seps[band + 1]
        more = e - p - 7  # the digits after the first
        src = np.arange(more.sum()) + np.repeat(p + 7 - np.cumsum(more) + more, more)
        at[p], at[p + 1] = at[p + 6], np.where(more > 0, ord("."), 0)
        at[src - 5] = at[src]
        at[(e - 5)[:, None] + np.arange(5)] = list(b"e-05\0")
    at[seps[len(run):-1:len(run)]] = ord(_ROW_MARK[as_json])
    if band.size or b"e" in text:
        buf = buf.replace(b"\1", b"e+").replace(b"\2", b"-0").replace(b"\0", b"")
    text = re.sub(rb"-?inf|nan", rb'"\g<0>"', buf[1:-1]) if as_json and odd.size else buf[1:-1]
    return (text.replace(b",", _SEPS[True][1].encode()) if as_json else text).decode()


def _text(cols, as_json: bool) -> str:
    """The lines of the table ``cols`` (one sequence per column): CSV, or the
    inside of the JSON "rows" list.  Each run of adjacent float64 array
    columns is formatted by ``_float_block``, every other column by
    ``_column_text``, an array as Python scalars.  A table of one run is that
    run's text; otherwise each run's text is split once into row fragments,
    which are joined with the other columns' cells."""
    rows, cells = _SEPS[as_json]
    if all(map(_is_float64, cols)):
        return _float_block(cols, as_json).replace(_ROW_MARK[True], rows)
    texts = []
    for is_float, run in itertools.groupby(cols, _is_float64):
        texts += [_float_block(list(run), as_json).split(_ROW_MARK[as_json])] if is_float else [
            _column_text(col.tolist() if isinstance(col, np.ndarray) else col, as_json)
            for col in run]
    return rows.join(map(cells.join, zip(*texts)))


def _is_float64(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype == np.float64


_SEPS = {False: ("\n", ","), True: ("\n    ],\n    [\n      ", ",\n      ")}  # rows, cells
_ROW_MARK = {False: "\n", True: ";"}  # ends a row of a float block but the last


def emit_table(params: dict, columns: list[str], cols, fmt: str, out) -> None:
    """Write a table with a header: CSV, or JSON with ``fmt == "json"``.

    ``cols`` holds one sequence of scalar cells per name of ``columns``, all
    of one length: a list, a tuple or a numpy array.  Each run of adjacent
    float64 array columns takes its digits from one row-major
    ``orjson.dumps`` (``_float_block``), which writes ``repr``'s shortest
    round-trip digits, and orjson's layout is mended in place on the run's
    text; other columns are formatted a column at a time, and the runs and
    columns are joined into lines with ``str.join``.  The output is
    byte-identical to formatting every cell with ``_fmt`` (CSV) or to
    ``json.dumps(doc, indent=2)`` of the ``_json_safe`` cells.
    """
    # zip(*texts) would drop the cells of a long column without a word
    if not columns or len(cols) != len(columns) or len(set(map(len, cols))) > 1:
        raise ValueError(f"a table needs one cell per column in every row, got {columns}")
    as_json = fmt == "json"
    n_rows = len(cols[0])
    body = _text(cols, as_json)
    if as_json:
        doc = {
            "schema": SCHEMA,
            "version": __version__,
            "params": {k: _json_safe(v) for k, v in params.items()},
            "columns": columns,
        }
        # the indent=2 layout of the "rows" entry, written from the cell texts
        body = f"[\n    [\n      {body}\n    ]\n  ]" if n_rows else "[]"
        out.write(f'{json.dumps(doc, indent=2)[:-2]},\n  "rows": {body}\n}}\n')
        return
    head = [f"# schema={SCHEMA}", f"# version={__version__}"]
    head += [f"# {key}={_fmt(value)}" for key, value in params.items()]
    head.append(",".join(columns))
    out.write("\n".join(head + [body] * bool(n_rows)))
    out.write("\n")


def _pick_required(beta: float, kappa_scaled: float, branch: Branch) -> tuple[float, float]:
    """(u, nu) of ``branch`` at the scalar ``beta``: ValueError where the
    branch is absent, MarginalAttractorError where it is marginal."""
    u, nu, marginal = solve_branches(beta, kappa_scaled).pick(branch)
    if math.isnan(u):
        raise ValueError(
            f"no {branch.value}-amplitude attractor exists at beta={beta:g}, "
            f"kappa_scaled={kappa_scaled:g}"
        )
    if marginal:
        raise MarginalAttractorError(f"{branch.value} attractor is marginal")
    return u, nu


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_attractors(args, config) -> int:
    params = {"command": "attractors", **_resolve(args, config, _ATTRACTORS)}
    grid = parse_grid(args.grid)
    if grid[0] < 0:
        raise ValueError("beta grid must be non-negative")
    info = bifurcation_betas(args.kappa_scaled)
    params.update(bistable=info.bistable, beta_low=info.beta_low, beta_high=info.beta_high)
    columns = ["beta", "u_small", "nu_small", "u_unstable", "u_large", "nu_large"]
    s = solve_branches(grid, args.kappa_scaled)
    cols = (grid, s.u_small, s.nu_small, s.u_unstable, s.u_large, s.nu_large)
    emit_table(params, columns, cols, args.format, args.out_stream)
    return EXIT_OK


def cmd_spectrum(args, config) -> int:
    params = {"command": "spectrum", **_resolve(args, config, _SPECTRUM)}
    kappa, lambda_s, n_bar = args.kappa_scaled, args.lambda_s, args.nbar
    branch = Branch(args.attractor)
    grid = parse_grid(args.grid)

    u, nu = _pick_required(args.beta, kappa, branch)
    k = drift_matrix(u, args.beta, kappa)
    cov = stationary_covariance(k, lambda_s, kappa, n_bar)

    params.update(u=u, nu=nu)
    columns = [
        "omega",
        "emission_closed",
        "absorption_closed",
        "emission_matrix",
        "absorption_matrix",
    ]
    spectra, worst = _dual_route(u, nu, k, cov, kappa, lambda_s, n_bar, grid)
    params["max_route_deviation"] = worst
    emit_table(params, columns, (grid, *spectra), args.format, args.out_stream)
    if args.check and not worst <= DUAL_ROUTE_LIMIT:
        print(
            f"self-check failed: dual-route deviation {worst:g} exceeds "
            f"{DUAL_ROUTE_LIMIT:g}",
            file=sys.stderr,
        )
        return EXIT_SELFCHECK
    return EXIT_OK


def _dual_route(u: float, nu: float, drift: np.ndarray, cov: np.ndarray, kappa: float,
                lambda_s: float, n_bar: float, omega: np.ndarray) -> tuple[tuple, float]:
    """Both routes to both spectra over ``omega`` about the steady state ``u``
    with gap ``nu``, drift ``drift`` and covariance ``cov``, and their worst
    deviation.

    Returns (emission_closed, absorption_closed, emission_matrix,
    absorption_matrix) and the largest relative closed-vs-matrix deviation,
    which the self-checks hold to ``DUAL_ROUTE_LIMIT``; NaN if any cell of
    either route is NaN or infinite, so that the check fails closed.
    """
    ec, ac = spectra(omega, u, nu, kappa, lambda_s, n_bar)
    em, am = spectra_from_matrix(drift, cov, lambda_s, omega)
    closed, matrix = np.array([ec, ac]), np.array([em, am])
    scale = np.maximum(np.maximum(np.abs(closed), np.abs(matrix)), 1e-300)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN
        return (ec, ac, em, am), float(np.max(np.abs(closed - matrix) / scale))


def _flags_str(flags) -> str:
    return "|".join(sorted(flags))


def cmd_rates(args, config) -> int:
    _resolve(args, config, _RATES)
    if args.regime == "resonant-1q":
        return _rates_scaled(args, config)
    return _rates_si(args, config, args.regime)


def _rates_scaled(args, config) -> int:
    """Dimensionless resonant one-quantum sweep over the scaled detuning."""
    params = {"command": "rates", "regime": "resonant-1q",
              **_resolve(args, config, _RATES_1Q, _RATES_1Q_BRANCHES)}
    kappa, which = args.kappa_scaled, args.attractor
    grid = parse_grid(args.grid)
    solved = solve_branches(args.beta, kappa)
    columns = ["omega"]
    # one column per output column, each branch evaluated on the whole grid
    cols: list = [grid]
    for branch in [Branch.SMALL, Branch.LARGE] if which == "both" else [Branch(which)]:
        u, nu, marginal = solved.pick(branch)
        if marginal:
            raise MarginalAttractorError(f"{branch.value} attractor is marginal")
        tag = branch.value
        columns += [f"u_{tag}", f"nu_{tag}", f"gamma_e_scaled_{tag}",
                    f"gamma_g_scaled_{tag}", f"teff_star_{tag}", f"flags_{tag}"]
        params[f"u_{tag}"], params[f"nu_{tag}"] = u, nu
        u, nu, ge, gg, _, teff_star, flags = _resonant_1q_columns(
            grid, u, nu, marginal, kappa, args.nbar)
        cols += [u, nu, ge, gg, teff_star, flags]
    emit_table(params, columns, cols, args.format, args.out_stream)
    return EXIT_OK


def _resonant_1q_columns(omega_rel, u, nu, marginal, kappa: float, n_bar: float) -> list:
    """The u, nu, gamma_e_scaled, gamma_g_scaled, ln_ratio, teff_star and
    flags columns of the resonant one-quantum channel.

    ``u``, ``nu`` and ``marginal`` are one branch of ``solve_branches``:
    arrays over a drive sweep, or the scalars of a stable or absent branch
    over a detuning sweep ``omega_rel``.  A row without a stable attractor
    has NaN cells and the flag "absent" or "marginal"; teff_star is
    kB*T_eff/(hbar*omega_q) = 1/ln_ratio.
    """
    absent = np.isnan(u)
    if np.ndim(u):
        u, nu = np.where(marginal, np.nan, u), np.where(marginal, np.nan, nu)
    # one call on every row: a NaN row stays NaN, and a bad n_bar is refused
    # even when no row is stable
    ge, gg = resonant_1q_scaled(omega_rel, u, nu, kappa, n_bar)
    ln_ratio = log_rate_ratio(ge, gg)
    with np.errstate(divide="ignore", invalid="ignore"):
        teff_star = np.divide(1.0, ln_ratio)
        weak = kappa / np.asarray(nu) >= FLAG_THRESHOLDS[FLAG_WEAK_DAMPING]
    flags = np.where(absent, "absent", np.where(
        marginal, "marginal", np.where(weak, FLAG_WEAK_DAMPING, "")))
    # an array stays one; a value constant over the sweep (a scalar u, nu or
    # flag) becomes a list of one shared cell
    n = np.size(ge)
    return [c if np.ndim(c) else [np.asarray(c).tolist()] * n
            for c in (u, nu, ge, gg, ln_ratio, teff_star, flags)]


# regime -> (needs an attractor, rate call of the steady state (u, nu)); the
# rate functions are looked up when called, so a rebinding of the module
# attributes takes effect
_SI_RATES = {
    "resonant-2q": (False, lambda q, p, u, nu: gamma_resonant_2q(q, p)),
    "resonant-total": (True, lambda q, p, u, nu: gamma_total_resonant(q, p, u, nu)),
    "nonresonant": (True, lambda q, p, u, nu: gamma_nonresonant(q, p, u, nu)),
    "nonresonant-2q": (False, lambda q, p, u, nu: gamma_nonresonant_2q(q, p)),
    "linear-resonant": (True, lambda q, p, u, nu: gamma_linear_resonant(q, p, u, nu)),
    "linear-nonresonant": (False, lambda q, p, u, nu: gamma_linear_nonresonant(q, p)),
}


def _rates_si(args, config, regime: str) -> int:
    """SI sweep over the qubit frequency for the remaining regimes."""
    _resolve(args, config, _RATES_SI)
    phys = PhysicalParams(*(getattr(args, key) for key in _SI_KEYS))
    scaled = scale_params(phys)
    grid = parse_grid(args.grid)

    needs_attractor, rate = _SI_RATES[regime]
    u = nu = None
    if needs_attractor:
        u, nu = _pick_required(scaled.beta, scaled.kappa_scaled, Branch(args.attractor))

    params = {
        "command": "rates",
        "regime": regime,
        "beta": scaled.beta,
        "kappa_scaled": scaled.kappa_scaled,
        "lambda_s": scaled.lambda_s,
        "nbar": scaled.n_bar,
        "attractor": args.attractor if needs_attractor else "",
        **{key: getattr(args, key) for key in _SI_KEYS},
    }
    # the qubit swept over omega_q: one QubitParams with an array splitting
    delta = args.qubit_delta
    if np.any(grid <= abs(delta)):
        raise ValueError("swept omega_q must exceed |qubit-delta|")
    qubit = QubitParams(w=np.sqrt(grid**2 - delta**2), delta=delta, delta_q=args.delta_q,
                        v_x=args.v_x, v_z=args.v_z)
    columns = ["omega_q", "gamma_e", "gamma_g", "t1", "t_eff", "flags"]
    res = rate(qubit, phys, u, nu)
    names = {flags: _flags_str(flags) for flags in set(res.flags)}
    cols = (grid, res.gamma_e, res.gamma_g, res.t1, res.t_eff,
            [names[flags] for flags in res.flags])
    emit_table(params, columns, cols, args.format, args.out_stream)
    return EXIT_OK


def cmd_teff(args, config) -> int:
    params = {"command": "teff", **_resolve(args, config, _TEFF)}
    kappa = args.kappa_scaled
    branch = Branch(args.attractor)
    grid = parse_grid(args.grid)

    columns = ["beta", "u", "nu", "gamma_e_scaled", "gamma_g_scaled",
               "ln_ratio", "teff_star", "flags"]
    u, nu, marginal = solve_branches(grid, kappa).pick(branch)
    cols = _resonant_1q_columns(args.omega_rel, u, nu, marginal, kappa, args.nbar)
    emit_table(params, columns, [grid, *cols], args.format, args.out_stream)
    return EXIT_OK


def match_report(
    hierarchies: list[float],
    beta: float,
    kappa_scaled: float,
    n_bar: float,
    lambda_s: float,
) -> list[tuple[float, float, float]]:
    """Resonant-1q / nonresonant rate ratios across a frequency hierarchy.

    For each factor h a parameter set is built with
    |omega_rel| = h * max(nu, kappa_scaled, 1) and omega_f/|delta_omega| =
    h * |omega_rel|, so the overlap condition nu, kappa << |omega_q - 2
    omega_f| << omega_f deepens with h.  Returns (h, ratio_e, ratio_g) rows;
    both ratios approach 1.  Raises ValueError when a factor gives a
    parameter set beyond float arithmetic, or a nonresonant rate underflows
    to 0.
    """
    rows = []
    _, nu = _pick_required(beta, kappa_scaled, Branch.LARGE)
    width = max(nu, kappa_scaled, 1.0)
    physical_from_scaled(beta, kappa_scaled, lambda_s, n_bar)  # a bad input is not a bad factor
    for h in hierarchies:
        omega_rel = h * width
        beyond = (f"bad --hierarchies: factor {h!r} gives omega_f/|delta_omega| = "
                  f"{h * omega_rel!r}, beyond float arithmetic")
        try:  # detuning scale 1 rad/s; the ratio is invariant under the overall scale
            phys = physical_from_scaled(beta, kappa_scaled, lambda_s, n_bar,
                                        detuning=1.0, omega_f_ratio=h * omega_rel)
            scaled = scale_params(phys)
            omega_q = 2.0 * phys.omega_f + omega_rel
            delta = 1e-3 * omega_q
            qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta, delta_q=1.0)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{beyond} ({exc})") from None
        # outside the guards: the rescaled beta may differ from beta by an ulp,
        # and a branch absent there is refused as at beta, not as a bad factor
        u, nu = _pick_required(scaled.beta, scaled.kappa_scaled, Branch.LARGE)
        try:
            res = gamma_resonant_1q(qubit, phys, u, nu)
            non = gamma_nonresonant(qubit, phys, u, nu)
        except MarginalAttractorError:  # the covariance's own rule refuses the drift
            raise MarginalAttractorError("large attractor is marginal") from None
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{beyond} ({exc})") from None
        if not (non.gamma_e > 0.0 and non.gamma_g > 0.0):
            raise ValueError(f"arithmetic fault: at --hierarchies factor {h!r} the nonresonant "
                             f"rate underflows to 0, so the rate ratio is undefined")
        rows.append((h, res.gamma_e / non.gamma_e, res.gamma_g / non.gamma_g))
    return rows


def cmd_match(args, config) -> int:
    params = {"command": "match", **_resolve(args, config, _MATCH)}
    try:
        hierarchies = [float(tok) for tok in args.hierarchies.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --hierarchies: {exc}") from None
    for h in hierarchies:  # |omega_rel| = h * max(nu, kappa, 1) needs h > 0
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"bad --hierarchies: each factor must be finite and positive, "
                             f"got {h!r}")
    if not hierarchies:
        raise ValueError("at least one hierarchy factor is required")

    rows_raw = match_report(hierarchies, args.beta, args.kappa_scaled, args.nbar, args.lambda_s)
    columns = ["h", "ratio_e", "ratio_g", "dev_e", "dev_g"]
    rows = [
        [h, re, rg, abs(re - 1.0), abs(rg - 1.0)] for h, re, rg in rows_raw
    ]
    cols = list(np.array(rows).T)
    emit_table(params, columns, cols, args.format, args.out_stream)

    devs_e, devs_g = cols[3], cols[4]
    converges = all(b < a for a, b in zip(devs_e, devs_e[1:])) and all(
        b < a for a, b in zip(devs_g, devs_g[1:])
    )
    if len(rows) > 1 and not converges:
        print("self-check failed: rate ratio does not converge to 1", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def cmd_validate(args, config) -> int:
    params = {"command": "validate", **_resolve(args, config, _VALIDATE)}
    beta, kappa, lambda_s, n_bar = args.beta, args.kappa_scaled, args.lambda_s, args.nbar
    # the library calls below refuse a bad parameter; the report is written
    # whole at the end, so an error part way through leaves stdout empty
    checks: list[tuple[str, bool, str]] = []

    def report(name: str, ok: bool, metric: str) -> None:
        checks.append((name, bool(ok), metric))

    # one root solve over the residual sweep, the count sweep, the window
    # edges and the four drives; it works per element, so each part is what
    # a solve of its own gives
    info = bifurcation_betas(kappa)
    grid, counted = np.linspace(0.0, 0.25, 101), np.linspace(1e-3, 0.25, 97)
    # an edge that underflows to 0 (beta_low ~ kappa^2 below kappa ~ 1.6e-162)
    # is left out: at beta = 0 the only steady state is u = 0, with no pair
    edges = [b for b in (info.beta_low, info.beta_high) if info.bistable and b > 0.0]
    drives = [0.0, 0.05, beta, 0.2]
    betas = np.concatenate([grid, counted, edges, drives])
    s = solve_branches(betas, kappa)
    us = (s.u_small, s.u_unstable, s.u_large)

    # steady-state equation residuals across the sweep
    worst = 0.0
    for u in us:
        u = u[:grid.size]
        res = np.abs(u * ((u - 1.0) ** 2 + kappa**2) - grid) / np.maximum(grid, 1.0)
        worst = max(worst, float(np.nanmax(res, initial=0.0)))
    report("attractor_residual", worst < 1e-10, f"max={worst:.3e} (limit 1e-10)")

    # attractor count matches the bistability window: 3 inside, 1 outside,
    # and 2 on an edge, where the merging pair is one marginal entry (the
    # solver merges a pair only where beta is within ~1e-14 of an edge)
    rows = slice(grid.size, grid.size + counted.size)
    n = sum(~np.isnan(u[rows]) for u in us)
    inside = info.bistable & (info.beta_low < counted) & (counted < info.beta_high)
    off_edge = np.minimum(abs(counted - info.beta_low), abs(counted - info.beta_high))
    on_edge = (s.marginal_small[rows] | s.marginal_large[rows]) & (off_edge < 1e-14)
    ok = bool(np.all(n == np.where(on_edge, 2, np.where(inside, 3, 1))))
    report("attractor_count", ok, "1 outside / 3 inside the bistable window")

    # the small and large columns of the edges and drives as (2, n) stacks,
    # with one drift per steady state
    tail = slice(grid.size + counted.size, None)
    u = np.stack([s.u_small[tail], s.u_large[tail]])
    nu = np.stack([s.nu_small[tail], s.nu_large[tail]])
    marginal = np.stack([s.marginal_small[tail], s.marginal_large[tail]])
    k = drift_matrix(u, betas[tail], kappa)

    # quasienergy gap closes at the boundaries, each with its merging pair
    if info.bistable:
        at_edge = marginal[:, :len(edges)]
        missing = int(np.count_nonzero(at_edge.sum(axis=0) != 1))
        gap = float(np.max(np.abs(np.linalg.det(k[:, :len(edges)][at_edge])), initial=0.0))
        metric = f"|det K|={gap:.3e} at boundaries"
        if len(edges) < 2:
            metric += ", beta_low underflows to 0"
        if missing:
            metric += f", no marginal pair at {missing} of {len(edges)}"
        report("bifurcation_gap", not missing and gap < 1e-8, metric)

    # Lyapunov residual and positive definiteness from one covariance stack
    # over the stable attractors of the four drives, and the dual-route
    # spectrum agreement at beta; a NaN metric fails its check
    stable = ~np.isnan(u) & ~marginal
    stable[:, :len(edges)] = False
    k, u, nu = k[stable], u[stable], nu[stable]
    cov = stationary_covariance(k, lambda_s, kappa, n_bar)
    # the residual K C + C K^T + s I on its own rounding scale, 2 |K| |C| + s
    # with |.| the largest entry of a row; K and C are divided by theirs first,
    # so that no product overflows (a C that underflows to 0 gives NaN)
    k_max, c_max = (np.abs(x).max(axis=(-2, -1), keepdims=True) for x in (k, cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        kn, cn = k / k_max, cov / c_max
        src = lambda_s * kappa * (2.0 * n_bar + 1.0) / k_max / c_max
        lyapunov = kn @ cn + cn @ kn.swapaxes(-1, -2) + src * np.eye(2)
        rel = np.abs(lyapunov).max(axis=(-2, -1)) / (2.0 + src[..., 0, 0])
    worst = float(np.max(rel, initial=0.0))
    report("lyapunov_residual", worst < 1e-12, f"max rel={worst:.3e} (limit 1e-12)")
    report("covariance_positive", np.all(np.linalg.eigvalsh(cov) > 0.0), "eigenvalues > 0")
    omega = np.linspace(-5, 5, 201)
    at_beta = np.nonzero(stable)[1] == len(edges) + 2  # beta is drives[2]
    deviations = [0.0] + [_dual_route(*row, kappa, lambda_s, n_bar, omega)[1]
                          for row in zip(u[at_beta], nu[at_beta], k[at_beta], cov[at_beta])]
    worst = float(np.max(deviations))
    report("dual_route", worst <= DUAL_ROUTE_LIMIT,
           f"max rel dev={worst:.3e} (limit 1e-6)")

    if args.format == "json":
        emit_table(params, ["check", "ok", "metric"], list(zip(*checks)), "json",
                   args.out_stream)
    else:
        args.out_stream.write("".join(
            f"{'ok  ' if ok else 'FAIL'} {name}: {metric}\n" for name, ok, metric in checks))
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_SELFCHECK


# ----------------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------------

# subcommand -> (help, --attractor choices, the parameters that get a flag);
# rates takes the flags of all three of its tables.  main runs cmd_<subcommand>,
# looked up when called, so a rebinding of the module attribute takes effect.
_COMMANDS = {
    "attractors": ("branch radii and quasienergy gaps vs beta", None, _ATTRACTORS),
    "spectrum": ("emission/absorption spectra, both routes", _BRANCHES, _SPECTRUM),
    "rates": ("decay/excitation rates vs detuning", _RATES_1Q_BRANCHES,
              {**_RATES, **_RATES_1Q, **_RATES_SI}),
    "teff": ("effective temperature vs beta", _BRANCHES, _TEFF),
    "match": ("resonant vs nonresonant ratio across hierarchies", None, _MATCH),
    "validate": ("run internal self-checks", None, _VALIDATE),
}

_HELP = {
    "grid": "sweep grid start:stop:count[:log]",
    "omega_rel": "fixed scaled detuning (omega_q - 2 omega_f)/|delta_omega|",
    "hierarchies": "comma-separated factors (10,30,100)",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="duffing-qubit", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, branches, params) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        choices = {"regime": _REGIMES, "attractor": branches}
        for name in params:
            sp.add_argument("--" + name.replace("_", "-"), choices=choices.get(name),
                            type=None if name in _TEXT else float, help=_HELP.get(name))
        if command == "spectrum":
            sp.add_argument("--check", action="store_true",
                            help="exit 3 if the two routes disagree beyond 1e-6")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--config", help="flat key=value parameter file")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every ``main`` call of this process reuses, built at the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = load_config(args.config)
        run = globals()["cmd_" + args.command]
        if args.out:
            try:
                fh = open(args.out, "w", encoding="utf-8")
            except OSError as exc:
                raise ValueError(f"cannot write output file: {exc}") from None
            with fh:
                args.out_stream = fh
                return run(args, config)
        args.out_stream = sys.stdout
        return run(args, config)
    except (MarginalAttractorError, NearResonanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as exc:  # an input too large for float arithmetic
        print(f"error: numerical overflow ({exc}); an input is out of range", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:  # e.g. an input so small a scale underflows to 0
        print(f"error: arithmetic fault ({exc}); an input is out of range", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
