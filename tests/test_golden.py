"""Golden outputs: CLI stdout byte for byte on a fixed set of small commands.

Each command's stdout is stored in ``tests/golden/<name>.txt``.  A change that
must keep the output (a refactor, a faster emitter) has to pass unchanged.
Every command must also leave stderr empty and raise no RuntimeWarning (a
numpy overflow or invalid operation fails the test).  A change meant to alter
an output regenerates the files and lists the difference in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py            # rewrite every file
    PYTHONPATH=src python tests/test_golden.py NAME ...   # rewrite some

For each file it rewrites, the script prints how many numeric cells moved
and the largest move, in ulps (the number of doubles between the old and the
new value), with the line on which it happened.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import struct
import sys
import warnings
from pathlib import Path

import pytest

from duffing_qubit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# a GHz oscillator driven below resonance: beta 0.12, kappa_scaled 0.3,
# lambda_s 1e-4, n_bar 0.5 (physical_from_scaled, detuning 2e8, omega_f_ratio 46)
_SI = (
    "--mass", "3e-13", "--omega0", "9400000000.0", "--omega-f", "9200000000.0",
    "--gamma-s", "9.631207500566774e+32", "--f0", "3.737775734334028e-09",
    "--kappa", "60000000.0", "--temperature", "0.06396409404992578",
    "--omega-c", "9200000000000.0", "--qubit-delta", "5e8", "--delta-q", "1e8",
    "--v-x", "1e-15", "--v-z", "1e-15",
)

# name -> (argv, exit code)
COMMANDS: dict[str, tuple[tuple[str, ...], int]] = {
    "attractors_csv": (
        ("attractors", "--kappa-scaled", "0.3", "--grid", "0:0.25:11"), 0),
    "attractors_json": (
        ("attractors", "--kappa-scaled", "0.3", "--grid", "0.05:0.2:6", "--format", "json"), 0),
    "spectrum_csv": (
        ("spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--check",
         "--grid=-3:3:7"), 0),
    "spectrum_json": (
        ("spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--attractor", "small",
         "--nbar", "1.5", "--grid=-2:2:5", "--format", "json"), 0),
    # beta below the bistable window: the large branch is absent
    "rates_1q_absent_json": (
        ("rates", "--beta", "0.05", "--kappa-scaled", "0.3", "--attractor", "both",
         "--grid=-3:3:5", "--format", "json"), 0),
    "rates_1q_csv": (
        ("rates", "--beta", "0.12", "--kappa-scaled", "0.3", "--grid=-3:3:7"), 0),
    # crosses the lower window edge: absent, weak-damping and unflagged rows
    "teff_csv": (
        ("teff", "--kappa-scaled", "0.3", "--omega-rel", "0.5", "--attractor", "large",
         "--grid", "0.01:0.3:12"), 0),
    "teff_json": (
        ("teff", "--kappa-scaled", "0.3", "--omega-rel", "0.5", "--attractor", "small",
         "--grid", "0.01:0.3:6", "--format", "json"), 0),
    "si_resonant_2q_csv": (
        ("rates", "--regime", "resonant-2q", *_SI, "--grid", "1.58e10:2.18e10:7"), 0),
    "si_resonant_total_json": (
        ("rates", "--regime", "resonant-total", *_SI, "--grid", "1.76e10:1.92e10:7",
         "--format", "json"), 0),
    "si_nonresonant_csv": (
        ("rates", "--regime", "nonresonant", *_SI, "--grid", "2.944e10:4.6e10:7"), 0),
    "si_nonresonant_2q_json": (
        ("rates", "--regime", "nonresonant-2q", *_SI, "--grid", "2.35e10:3.76e10:7",
         "--format", "json"), 0),
    "si_linear_resonant_csv": (
        ("rates", "--regime", "linear-resonant", *_SI, "--grid", "8.4e9:1e10:7"), 0),
    "si_linear_nonresonant_json": (
        ("rates", "--regime", "linear-nonresonant", *_SI, "--grid", "1.41e10:2.82e10:7",
         "--format", "json"), 0),
    "match_csv": (("match", "--hierarchies", "10,30"), 0),
    "match_json": (("match", "--hierarchies", "10,30,100", "--format", "json"), 0),
    "validate_text": (("validate",), 0),
    "validate_json": (("validate", "--format", "json"), 0),
    # drives and frequencies at which the closed form's squares overflow
    "spectrum_huge_beta_csv": (
        ("spectrum", "--beta", "1e300", "--kappa-scaled", "0.3", "--grid=-1:1:3", "--check"), 0),
    "spectrum_huge_omega_csv": (
        ("spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--grid=-1e200:1e200:3",
         "--check"), 0),
    "validate_huge_beta_text": (("validate", "--beta", "1e300"), 0),
    # a weak qubit drive: rows with and without ResonantPumping
    "si_resonant_total_flags_csv": (
        ("rates", "--regime", "resonant-total", *_SI, "--delta-q", "1e4",
         "--grid", "1.8e10:1.9e10:9"), 0),
    # the large branch is weakly damped, the small one unflagged
    "rates_1q_flags_csv": (
        ("rates", "--beta", "0.2", "--kappa-scaled", "0.45", "--attractor", "both",
         "--grid=-3:3:5"), 0),
    "rates_1q_flags_json": (
        ("rates", "--beta", "0.2", "--kappa-scaled", "0.45", "--attractor", "both",
         "--grid=-3:3:5", "--format", "json"), 0),
    # absent, weak-damping and unflagged rows
    "teff_flags_json": (
        ("teff", "--kappa-scaled", "0.3", "--omega-rel", "0.5", "--attractor", "large",
         "--grid", "0.01:0.3:12", "--format", "json"), 0),
}


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    argv, exit_code = COMMANDS[name]
    code, out, err = run(argv)
    assert (code, err) == (exit_code, "")
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


# what separates the cells of a CSV, JSON or text report line
_SEPARATORS = re.compile(r'[\s,:=\[\]{}"()|/]+')


def _ordinal(x: float) -> int:
    """The position of ``x`` among the doubles: neighbours differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def moves(old: str, new: str) -> str:
    """How many numeric cells differ between two outputs of one command, and
    the largest move in ulps with its line (1-based, in ``new``).  Any other
    changed cell, or a changed number of lines or cells, is named too."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"line count {len(old_lines)} -> {len(new_lines)}"
    moved, other, largest = 0, [], (0, 0, "")
    for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        cells_a, cells_b = _SEPARATORS.split(a), _SEPARATORS.split(b)
        if len(cells_a) != len(cells_b):
            other.append(number)
            continue
        for x, y in zip(cells_a, cells_b):
            if x == y:
                continue
            try:
                u, v = float(x), float(y)
            except ValueError:
                other.append(number)
                continue
            ulps = abs(_ordinal(u) - _ordinal(v)) if u == u and v == v else math.inf
            moved += 1
            if ulps > largest[0]:
                largest = (ulps, number, b.strip())
    text = f"{moved} numeric cells moved"
    if moved:
        text += f", largest {largest[0]} ulps on line {largest[1]}: {largest[2]}"
    if other:
        text += f"; other cells changed on lines {sorted(set(other))}"
    return text


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(COMMANDS):
        argv, exit_code = COMMANDS[name]
        code, out, err = run(argv)
        if (code, err) != (exit_code, ""):
            sys.exit(f"{name}: exit {code}, expected {exit_code}; stderr {err!r}")
        path = GOLDEN / f"{name}.txt"
        old = path.read_text(encoding="utf-8") if path.exists() else None
        path.write_text(out, encoding="utf-8")
        print(f"wrote {name}.txt ({len(out)} bytes): "
              f"{'new file' if old is None else moves(old, out)}")
