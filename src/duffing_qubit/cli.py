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
import json
import math
import sys

import numpy as np

from . import __version__, rates
from .attractors import (
    Branch,
    MarginalAttractorError,
    _pick_required,
    _pick_stable,
    bifurcation_betas,
    drift_matrix,
    solve_branches,
)
from .fluctuations import (DUAL_ROUTE_LIMIT, _limit_text, dual_route, self_checks,
                           stationary_covariance)
from .model import PhysicalParams
from .rates import NearResonanceError, match_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDITY = 2
EXIT_SELFCHECK = 3

SCHEMA = "duffing-qubit/1"

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
# the output header: name -> default or REQUIRED.  The flag is the name with
# "-" for "_"; a flag beats its config key, which beats the default.
REQUIRED = object()
_BRANCHES = ("small", "large")

_ATTRACTORS = {"kappa_scaled": REQUIRED, "grid": "0:0.25:201"}
_SPECTRUM = {"beta": REQUIRED, "kappa_scaled": REQUIRED, "lambda_s": 0.01, "nbar": 0.5,
             "attractor": "large", "grid": "-5:5:2001"}
# rates reads the table of its --regime after the regime itself
_RATES = {"regime": "resonant-1q"}
_RATES_1Q_BRANCHES = (*_BRANCHES, "both")
_RATES_1Q = {"beta": REQUIRED, "kappa_scaled": REQUIRED, "nbar": 0.5, "attractor": "both",
             "grid": "-5:5:2001"}
_RATES_SI = {**dict.fromkeys(_SI_KEYS, REQUIRED), "grid": REQUIRED, "attractor": "large",
             "qubit_delta": REQUIRED, "delta_q": 0.0, "v_x": 0.0, "v_z": 0.0}
_TEFF = {"kappa_scaled": REQUIRED, "nbar": 0.5, "omega_rel": REQUIRED, "attractor": REQUIRED,
         "grid": "0.01:0.179:170"}
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


def _column_text(col, as_json: bool) -> list[str]:
    """The text of each cell of a sequence of scalars: ``_fmt``'s, or with
    ``as_json`` the JSON of ``_json_safe``'s value."""
    return [json.dumps(_json_safe(v)) for v in col] if as_json else list(map(_fmt, col))


def _slot(col, as_json: bool) -> tuple:
    """One column of ``emit_table`` as ``_text`` writes it: (a float64
    array, None), or (codes, texts), the texts of the column's distinct
    cells and the index of each row's text (one index for a column that is
    constant over the rows)."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return col, None
    if isinstance(col, tuple) and len(col) == 2 and isinstance(col[0], np.ndarray):
        return col[0], _column_text(col[1], as_json)  # (codes, labels)
    if not isinstance(col, (list, tuple, np.ndarray)):
        return 0, _column_text([col], as_json)  # the cell of every row
    cells = _column_text(col.tolist() if isinstance(col, np.ndarray) else col, as_json)
    texts, codes = np.unique(np.array(cells, dtype=object), return_inverse=True)
    return codes, list(texts)


def _joined(parts: list[tuple]) -> tuple:
    """(codes, texts) of the cells that join, row by row, the cells of
    ``parts``, each a pair (codes, texts) as ``_slot`` gives."""
    code, texts = 0, [""]
    for codes, part in parts:
        if getattr(code, "ndim", 0) and getattr(codes, "ndim", 0):  # only the pairs that occur
            found, code = np.unique(code * len(part) + codes, return_inverse=True)
            texts = [texts[k // len(part)] + part[k % len(part)] for k in found.tolist()]
        else:
            code, texts = code * len(part) + codes, [a + b for a in texts for b in part]
    return code, texts


def _text(slots: list[tuple], n_rows: int, as_json: bool, head: str, tail: str) -> str:
    """``head``, the ``n_rows`` lines of the table ``slots`` (``_slot``'s
    columns) as CSV or as the inside of the JSON "rows" list, and ``tail``.

    The table is one byte buffer.  One ``orjson.dumps`` writes the float64
    cells in row-major order with Ryu's shortest round-trip digits, which
    are ``repr``'s, and orjson's layout is mended in place on that text,
    with no cell formatted on its own:
    - a non-finite cell is dumped as 0.0 (-0.0 for -inf), which orjson
      writes fast and which is as wide as nan, inf or -inf, written over it;
      in JSON, fixed ``replace`` passes quote these words before any marker
      widens;
    - the comma that ends a row becomes the row mark;
    - an exponent gains repr's sign (e16 -> e+16) or two digits (e-7 ->
      e-07), and a cell with 1e-5 <= |x| < 1e-4 turns from 0.0000ddd into
      d.ddde-05: in place, with marker bytes that one pass of ``replace``
      widens and zero bytes, which it drops, for the bytes the cell frees;
    - the other columns between two float64 columns are written at the
      comma between them, and those after the last at the row mark (the
      closing bracket on the last row): each distinct text at a separator
      gets a marker, a byte at or above 0x80 that no text holds, and one
      ``replace`` per text widens the markers last, so that no text is
      mended.
    A table that does not start with a float64 column (no command writes
    one), or with more distinct texts at its separators than marker bytes,
    joins the texts of its cells row by row.
    """
    rows, cells = _SEPS[as_json]
    gaps = [[]]  # the other columns after no, one, two... float64 columns
    for slot in slots:
        gaps.append([]) if slot[1] is None else gaps[-1].append(slot)
    width, cell = len(gaps) - 1, (0, [cells])
    groups = {g: _joined([p for part in gaps[g] for p in (cell, part)]
                         + [cell if g < width else (0, [rows])])
              for g in range(1, width + 1) if gaps[g]}
    texts = dict.fromkeys(t for _, group in groups.values() for t in group)
    # the marker bytes: those from 0x80 up that no text holds
    free = bytes(range(0x80, 0x100)).translate(None, "".join(texts).encode())
    if gaps[0] or len(texts) > len(free):
        lines = zip(*(_column_text(col.tolist(), as_json) if labels is None else
                      list(map(labels.__getitem__, np.broadcast_to(col, n_rows).tolist()))
                      for col, labels in slots))
        return head + rows.join(map(cells.join, lines)) + tail
    import orjson  # here, not at import: that would add ~6 ms to every start-up
    table = np.array([col for col, labels in slots if labels is None]).T.reshape(-1)  # a copy
    mag = np.abs(table)
    band, odd = ((mag >= 1e-5) & (mag < 1e-4)).nonzero()[0], (~(mag < np.inf)).nonzero()[0]
    odd_values = table[odd]
    table[odd] = np.where(odd_values < 0, -0.0, 0.0)
    buf = bytearray(orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY))
    at = np.frombuffer(buf, np.uint8)
    if b"e" in buf:  # e16 -> \1 16 and e-7 -> e \2 7, where \1 -> e+ and \2 -> -0 below
        e = (at == ord("e")).nonzero()[0]
        at[e[at[e + 1] != ord("-")]] = 1
        at[e[(at[e + 1] == ord("-")) & (at[e + 3] - ord("0") > 9)] + 1] = 2  # no 2nd digit
    seps = np.concatenate(([0], (at == ord(",")).nonzero()[0], [len(buf) - 1]))  # around cells
    if odd.size:  # nan or inf over 0.0, or over the 0.0 of -0.0
        at[(seps[odd] + 1 + (odd_values < 0))[:, None] + np.arange(3)] = np.frombuffer(
            b"infnan", np.uint8).reshape(2, 3)[np.isnan(odd_values).view(np.uint8)]
    if band.size:  # [-]0.0000d[ddd] -> [-]d[.ddd]e-05 and one or two zero bytes
        p, e = seps[band] + 1 + (table[band] < 0), seps[band + 1]
        more = e - p - 7  # the digits after the first
        src = np.arange(more.sum()) + np.repeat(p + 7 - np.cumsum(more) + more, more)
        at[p], at[p + 1] = at[p + 6], np.where(more > 0, ord("."), 0)
        at[src - 5] = at[src]
        at[(e - 5)[:, None] + np.arange(5)] = list(b"e-05\0")
    at[seps[width:-1:width]] = ord("\n;"[as_json])  # the row mark
    marker = dict(zip(texts, free))
    for g, (code, group) in groups.items():
        at[seps[g::width]] = np.array([marker[t] for t in group], np.uint8)[code]
    del at, table, mag, seps  # only the text from here on
    # -inf is held as \3 while inf is quoted
    quote = [(b"-inf", b"\3"), (b"inf", b'"inf"'), (b"\3", b'"-inf"'), (b"nan", b'"nan"')]
    widen = quote * (as_json and odd.size > 0) + [(b"\1", b"e+"), (b"\2", b"-0"), (b"\0", b"")] + [
        (b",", cells.encode()), (b";", rows.encode())] * as_json
    for old, new in widen + [(bytes([m]), t.encode()) for t, m in marker.items()]:
        if old in buf:  # a replace that finds nothing would still copy
            buf = buf.replace(old, new)
    end = len(buf) - (len(rows.encode()) if width in groups else 1)
    buf = b"".join((head.encode(), memoryview(buf)[1:end], tail.encode()))
    return buf.decode()


_SEPS = {False: ("\n", ","), True: ("\n    ],\n    [\n      ", ",\n      ")}  # rows, cells


def _json_nested(value: dict | list) -> str:
    """A dict or list of scalars as ``json.dumps(..., indent=2)`` writes it
    as a value of a top-level key, from one call of the C encoder (the
    indent layout takes the pure-Python one)."""
    text = json.dumps(value, separators=(",\n    ", ": "))
    return text if len(text) == 2 else f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"


def emit_table(params: dict, columns: list[str], cols, fmt: str, out) -> None:
    """Write a table with a header: CSV, or JSON with ``fmt == "json"``.

    ``cols`` holds one column per name of ``columns``: a list, a tuple or a
    numpy array of scalar cells, all of one length; one scalar, the cell of
    every row; or a pair (codes, labels) of an integer array and the
    labels it indexes, a column of few distinct cells.  The whole table is
    written with one ``out.write``: ``_text`` formats the float64 columns
    with one row-major ``orjson.dumps``, which writes ``repr``'s shortest
    round-trip digits, mends orjson's layout in place on that text, and
    writes each distinct text of the other columns once, widened into the
    same buffer.  The output is byte-identical to formatting every cell
    with ``_fmt`` (CSV) or to ``json.dumps(doc, indent=2)`` of the
    ``_json_safe`` cells.
    """
    as_json = fmt == "json"
    slots = [_slot(col, as_json) for col in cols]
    lengths = {len(codes) for codes, _ in slots if getattr(codes, "ndim", 0)}
    if not columns or len(slots) != len(columns) or len(lengths) != 1:
        raise ValueError(f"a table needs one cell per column in every row, got {columns}")
    n_rows = lengths.pop()
    if as_json:
        params = {k: _json_safe(v) for k, v in params.items()}
        # the indent=2 layout of the document and of its "rows" entry around
        # the cell texts
        head = (f'{{\n  "schema": {json.dumps(SCHEMA)},\n  "version": {json.dumps(__version__)},'
                f'\n  "params": {_json_nested(params)},\n  "columns": {_json_nested(columns)},'
                '\n  "rows": [' + "\n    [\n      " * bool(n_rows))
        tail = "\n    ]\n  " * bool(n_rows) + "]\n}\n"
    else:
        head = "\n".join([f"# schema={SCHEMA}", f"# version={__version__}",
                          *(f"# {key}={_fmt(value)}" for key, value in params.items()),
                          ",".join(columns), ""])
        tail = "\n" * bool(n_rows)
    out.write(_text(slots, n_rows, as_json, head, tail) if n_rows else head + tail)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_attractors(args, config) -> int:
    params = {"command": "attractors", **_resolve(args, config, _ATTRACTORS)}
    grid = parse_grid(args.grid)
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
    spectra, worst = dual_route(u, nu, k, cov, kappa, lambda_s, n_bar, grid)
    params["max_route_deviation"] = worst
    emit_table(params, columns, (grid, *spectra), args.format, args.out_stream)
    if args.check and not worst <= DUAL_ROUTE_LIMIT:
        print(
            f"self-check failed: dual-route deviation {worst:g} exceeds "
            f"{_limit_text(DUAL_ROUTE_LIMIT)}",
            file=sys.stderr,
        )
        return EXIT_SELFCHECK
    return EXIT_OK


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
        u, nu = _pick_stable(solved, branch)
        tag = branch.value
        params[f"u_{tag}"], params[f"nu_{tag}"] = u, nu
        table = rates._resonant_1q_columns(grid, u, nu, kappa, args.nbar)
        del table["ln_ratio"]  # a column of teff alone
        columns += [f"{name}_{tag}" for name in table]
        cols += table.values()
    emit_table(params, columns, cols, args.format, args.out_stream)
    return EXIT_OK


_REGIMES = ("resonant-1q", *rates._SI_REGIMES)


def _rates_si(args, config, regime: str) -> int:
    """SI sweep over the qubit frequency for the remaining regimes: the
    table of ``rates._si_columns``."""
    _resolve(args, config, _RATES_SI)
    phys = PhysicalParams(*(getattr(args, key) for key in _SI_KEYS))
    grid = parse_grid(args.grid)
    head, table = rates._si_columns(regime, phys, grid, Branch(args.attractor),
                                    args.qubit_delta, args.delta_q, args.v_x, args.v_z)
    params = {"command": "rates", "regime": regime, **head,
              **{key: getattr(args, key) for key in _SI_KEYS}}
    emit_table(params, ["omega_q", *table], [grid, *table.values()], args.format,
               args.out_stream)
    return EXIT_OK


def cmd_teff(args, config) -> int:
    params = {"command": "teff", **_resolve(args, config, _TEFF)}
    kappa = args.kappa_scaled
    branch = Branch(args.attractor)
    grid = parse_grid(args.grid)

    u, nu = solve_branches(grid, kappa).pick(branch)
    table = rates._resonant_1q_columns(args.omega_rel, u, nu, kappa, args.nbar)
    emit_table(params, ["beta", *table], [grid, *table.values()], args.format, args.out_stream)
    return EXIT_OK


def cmd_match(args, config) -> int:
    params = {"command": "match", **_resolve(args, config, _MATCH)}
    try:
        hierarchies = [float(tok) for tok in args.hierarchies.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --hierarchies: {exc}") from None
    h, ratio_e, ratio_g = np.array(match_report(
        hierarchies, args.beta, args.kappa_scaled, args.nbar, args.lambda_s)).T
    devs = [np.abs(ratio_e - 1.0), np.abs(ratio_g - 1.0)]
    emit_table(params, ["h", "ratio_e", "ratio_g", "dev_e", "dev_g"], [h, ratio_e, ratio_g, *devs],
               args.format, args.out_stream)
    # both deviations must fall from each distinct factor to the next larger one
    first = np.unique(h, return_index=True)[1]
    if not all((np.diff(dev[first]) < 0.0).all() for dev in devs):
        print("self-check failed: rate ratio does not converge to 1", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


def cmd_validate(args, config) -> int:
    params = {"command": "validate", **_resolve(args, config, _VALIDATE)}
    # the library refuses a bad parameter before it returns any check, and
    # the report is written whole, so an error leaves stdout empty
    checks = self_checks(args.beta, args.kappa_scaled, args.lambda_s, args.nbar)
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
    "check": "exit 3 if the two routes disagree beyond " + _limit_text(DUAL_ROUTE_LIMIT),
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
            sp.add_argument("--check", action="store_true", help=_HELP["check"])
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--config", help="flat key=value parameter file")
    parser.subcommands = sub.choices  # subcommand -> its parser, for main
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every ``main`` call of this process reuses, built at the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code.

    An ``argv`` whose first word is a subcommand is parsed by that
    subcommand's parser alone; the top-level parser is kept for
    ``--version``, ``-h``, an empty ``argv`` and an unknown first word.
    Both are built at the first call and reused.
    """
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _parser()
        subparser = parser.subcommands.get(argv[0]) if argv else None
        if subparser is None:
            args = parser.parse_args(argv)
        else:
            args = subparser.parse_args(argv[1:])
            args.command = argv[0]
        config = load_config(args.config)
        params = _COMMANDS[args.command][2]
        for key in config:
            if key not in params:
                raise ValueError(f"config key {key}: not a parameter of {args.command}")
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
