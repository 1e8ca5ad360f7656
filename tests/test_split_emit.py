"""Large tables, formatted in the calling process.

The emitter once split a large table between the main process and a forked
helper; the tests here keep their names from then.  Every table now takes
the one serial path, ``cli._text``: these tests hold its output on tables of
tens of thousands of rows to the per-cell reference, check that its errors
are those of the per-cell formatters, and that no table forks a process."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_emit import MENDED_EDGES, floats, reference_emit, scalars, texts

import duffing_qubit.cli as cli
from duffing_qubit.cli import EXIT_OK, emit_table, main

SRC = str(Path(cli.__file__).resolve().parents[1])
# 5001 rows of 6 columns: 30 006 cells
LARGE = ["attractors", "--kappa-scaled", "0.3", "--grid", "0:0.25:5001"]
NO_FORK = mock.Mock(side_effect=AssertionError("forked"))


def emit(params, columns, cols, fmt):
    out = io.StringIO()
    emit_table(params, columns, cols, fmt, out)
    return out.getvalue()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


SPECIAL = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")])


@st.composite
def large_tables(draw):
    """A table of tens of thousands of rows.  Each column repeats a short
    drawn pattern.  A float column is an array or a list, with drawn zeros
    and non-finite values on a few drawn rows.  A "parts" column is a list
    that is constant on each side of a drawn row, but not over the table."""
    n_rows = draw(st.integers(10_000, 30_000))
    n_cols = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["float", "array", "parts", "text", "mixed"]),
                          min_size=n_cols, max_size=n_cols))
    cols = []
    for kind in kinds:
        if kind == "parts":
            cut = draw(st.integers(1, n_rows - 1))
            first, second = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)])
                                 | st.tuples(floats | texts, floats | texts))
            cols.append([first] * cut + [second] * (n_rows - cut))
            continue
        numbers = floats | st.sampled_from(MENDED_EDGES)
        cells = {"float": numbers, "array": numbers, "text": texts, "mixed": scalars}[kind]
        pattern = draw(st.lists(cells, min_size=1, max_size=7))
        col = [pattern[i % len(pattern)] for i in range(n_rows)]
        if kind in ("float", "array"):
            for row in draw(st.lists(st.integers(0, n_rows - 1), max_size=5)):
                col[row] = draw(SPECIAL)
        cols.append(np.array(col) if kind == "array" else col)
    return [f"c{j}" for j in range(n_cols)], cols


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(large_tables(), st.sampled_from(["csv", "json"]))
def test_split_matches_serial_and_per_cell_reference(table, fmt):
    columns, cols = table
    params = {"beta": 0.12, "flag": 'a"b'}
    with mock.patch.object(os, "fork", NO_FORK):
        got = emit(params, columns, cols, fmt)
    assert got == reference_emit(params, columns, cols, fmt)


def test_import_and_build_parser_fork_nothing():
    code = ("import os, sys\n"
            "forks = []\n"
            "os.register_at_fork(before=lambda: forks.append(1))\n"
            "import duffing_qubit.cli as cli\n"
            "cli.build_parser()\n"
            "sys.stdout.write(str(len(forks)))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=60)
    assert done.stdout == "0" and done.stderr == ""


def test_a_table_below_the_threshold_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    code, out, err = run(["attractors", "--kappa-scaled", "0.3"])  # 201 rows: 1 206 cells
    assert (code, err) == (EXIT_OK, "") and out.count("\n") == 8 + 201
    assert not os.fork.called


def test_out_file_of_a_large_table(tmp_path):
    path = tmp_path / "t.json"
    large = ["attractors", "--kappa-scaled", "0.3", "--grid", "0:0.25:20001", "--format", "json"]
    code, out, err = run([*large, "--out", str(path)])
    assert (code, out, err) == (EXIT_OK, "", "")
    assert run(large) == (EXIT_OK, path.read_text(), "")
    assert path.read_text().count("\n    [\n") == 20001


def test_one_usable_cpu_runs_the_serial_path(monkeypatch):
    expected = run(LARGE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    code, out, err = run(LARGE)
    assert (code, out, err) == expected
    assert (code, err) == (EXIT_OK, "") and out.count("\n") == 8 + 5001
    assert not os.fork.called


@pytest.mark.parametrize("where", ["first half", "second half"])
def test_a_cell_that_cannot_be_formatted_raises_as_the_serial_path(where):
    n = 20_000
    cols = [np.arange(float(n)), ["x"] * n]
    cols[1][10 if where == "first half" else n - 10] = {1, 2}  # no JSON for a set
    with pytest.raises(TypeError) as per_cell:
        json.dumps({1, 2})
    with pytest.raises(TypeError) as got:
        emit({}, ["x", "y"], cols, "json")
    assert str(got.value) == str(per_cell.value)
    assert emit({}, ["x"], cols[:1], "json") == reference_emit({}, ["x"], cols[:1], "json")
    assert run(LARGE)[0] == EXIT_OK


def test_a_cell_that_cannot_be_pickled_gives_the_serial_text():
    n = 15_000
    cols = [np.arange(float(n)), [lambda: None for _ in range(n)]]
    assert emit({}, ["x", "f"], cols, "csv") == reference_emit({}, ["x", "f"], cols, "csv")


def test_no_helper_outlives_its_process():
    code = ("import os, sys\n"
            "forks = []\n"
            "os.register_at_fork(before=lambda: forks.append(1))\n"
            "import duffing_qubit.cli as cli\n"
            f"assert cli.main({LARGE!r} + ['--out', os.devnull]) == 0\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    children = 'some'\n"
            "except ChildProcessError:\n"
            "    children = 'none'\n"
            "sys.stdout.write(f'{len(forks)} {children}')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=60)
    assert done.stdout == "0 none" and done.stderr == ""


def test_tables_from_two_threads_stay_whole():
    n = 20_000
    tables = [[np.arange(float(n)) + k, [f"r{k}"] * n] for k in range(2)]
    expected = [reference_emit({}, ["x", "y"], cols, "csv") for cols in tables]
    got = [[], []]

    def worker(k):
        for _ in range(8):
            got[k].append(emit({}, ["x", "y"], tables[k], "csv"))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == [[expected[0]] * 8, [expected[1]] * 8]
