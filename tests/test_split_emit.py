"""Large tables formatted on two cores: the main process writes the first
two thirds of the rows and a forked helper the last third.  The output and
any exception must be those of the serial path."""

from __future__ import annotations

import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_emit import floats, reference_emit, scalars, texts

import duffing_qubit.cli as cli
from duffing_qubit.cli import EXIT_OK, emit_table, main

TWO_CPUS = hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1
SRC = str(Path(cli.__file__).resolve().parents[1])
# 2001 rows of 6 columns: 12 006 cells, past the threshold
LARGE = ["attractors", "--kappa-scaled", "0.3", "--grid", "0:0.25:2001"]


def emit(params, columns, rows, fmt):
    out = io.StringIO()
    emit_table(params, columns, rows, fmt, out)
    return out.getvalue()


def serial_emit(params, columns, rows, fmt):
    with mock.patch.object(cli, "_SPLIT_CELLS", math.inf):
        return emit(params, columns, rows, fmt)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@st.composite
def large_tables(draw):
    """A table just below, at or well above ``_SPLIT_CELLS`` cells.

    Each column repeats a short drawn pattern; a float column gets drawn
    zeros and non-finite values on the rows beside the split row, and a
    "parts" column is constant in each part but not over the table.
    """
    n_cols = draw(st.integers(1, 6))  # each divides the 6000-cell threshold
    size = draw(st.sampled_from(["below", "at", "above"]))
    per_col = cli._SPLIT_CELLS // n_cols
    n_rows = {"below": per_col - 1, "at": per_col, "above": 3 * per_col}[size]
    cut = cli._split_row(n_rows)
    cols = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["float", "parts", "text", "mixed"]))
        if kind == "parts":
            first, second = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)])
                                 | st.tuples(floats | texts, floats | texts))
            cols.append([first] * cut + [second] * (n_rows - cut))
            continue
        pattern = draw(st.lists({"float": floats, "text": texts, "mixed": scalars}[kind],
                                min_size=1, max_size=7))
        col = [pattern[i % len(pattern)] for i in range(n_rows)]
        if kind == "float":
            col[cut - 1:cut + 2] = draw(st.lists(SPECIAL, min_size=3, max_size=3))
        cols.append(col)
    rows = [list(cells) for cells in zip(*cols)]
    return size, [f"c{j}" for j in range(n_cols)], rows


@settings(max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(large_tables(), st.sampled_from(["csv", "json"]))
def test_split_matches_serial_and_per_cell_reference(table, fmt):
    size, columns, rows = table
    params = {"beta": 0.12, "flag": 'a"b'}
    got = emit(params, columns, rows, fmt)
    assert got == serial_emit(params, columns, rows, fmt)
    assert got == reference_emit(params, columns, rows, fmt)
    if TWO_CPUS and size != "below":
        assert cli._helper, "the helper did not format the table's last third"


def test_import_and_build_parser_fork_nothing():
    code = ("import os, sys\n"
            "forks = []\n"
            "os.register_at_fork(before=lambda: forks.append(1))\n"
            "import duffing_qubit.cli as cli\n"
            "cli.build_parser()\n"
            "sys.stdout.write(f'{len(forks)} {len(cli._helper)}')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert done.stdout == "0 0" and done.stderr == ""


def test_a_table_below_the_threshold_forks_nothing(monkeypatch):
    cli._stop_helper()
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    code, out, err = run(["attractors", "--kappa-scaled", "0.3"])  # 201 rows: 1 206 cells
    assert (code, err) == (EXIT_OK, "") and out.count("\n") == 8 + 201
    assert not os.fork.called and cli._helper == []


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs fork and two usable CPUs")
def test_a_killed_helper_costs_nothing_but_time():
    first = run(LARGE)
    pid = cli._helper[0]
    os.kill(pid, signal.SIGKILL)
    assert run(LARGE) == first
    assert first[0] == EXIT_OK and first[1].count("\n") == 8 + 2001
    with pytest.raises(ChildProcessError):  # reaped, not left a zombie
        os.waitpid(pid, os.WNOHANG)
    with mock.patch.object(cli, "_SPLIT_CELLS", math.inf):
        assert run(LARGE) == first


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs fork and two usable CPUs")
def test_a_forked_child_starts_its_own_helper():
    expected = run(LARGE)
    pid = cli._helper[0]
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            ok = cli._helper == [] and run(LARGE) == expected and cli._helper[0] != pid
            cli._stop_helper()
            os.write(write_end, b"ok" if ok else b"bad")
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        answer = fh.read()
    os.waitpid(child, 0)
    assert answer == b"ok"
    assert run(LARGE) == expected and cli._helper[0] == pid


@pytest.mark.skipif(not (TWO_CPUS and Path("/proc/self/task").exists()),
                    reason="the helper steps off the sender's CPU on Linux")
def test_the_helper_steps_off_the_senders_cpu_and_keeps_every_cpu(tmp_path):
    cli._stop_helper()
    log, set_affinity = tmp_path / "affinity", os.sched_setaffinity

    def logged(pid, cpus):  # runs in the helper: it inherits the patch
        with open(log, "a") as f:
            f.write(" ".join(map(str, sorted(cpus))) + "\n")
        set_affinity(pid, cpus)

    usable = os.sched_getaffinity(0)
    with mock.patch.object(cli, "_SPLIT_CELLS", math.inf):
        expected = run(LARGE)
    try:
        with mock.patch.object(os, "sched_setaffinity", logged):
            assert run(LARGE) == expected
        assert os.sched_getaffinity(cli._helper[0]) == usable
    finally:
        cli._stop_helper()
    stepped, restored = ({int(c) for c in line.split()}
                         for line in log.read_text().splitlines())
    assert stepped < usable and restored == usable


@pytest.mark.skipif(not (TWO_CPUS and Path("/proc/sys/fs/pipe-max-size").exists()),
                    reason="pipe sizes are set on Linux")
def test_the_helper_pipes_hold_a_whole_task():
    import fcntl

    run(LARGE)
    if int(Path("/proc/sys/fs/pipe-max-size").read_text()) >= 1 << 20:
        for pipe in cli._helper[1:]:
            assert fcntl.fcntl(pipe, fcntl.F_GETPIPE_SZ) == 1 << 20


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs fork and two usable CPUs")
def test_the_helper_holds_no_descriptor_of_its_parent(tmp_path):
    cli._stop_helper()
    cat = subprocess.Popen(["cat"], stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
    try:
        assert run([*LARGE, "--out", str(tmp_path / "t.csv")])[0] == EXIT_OK
        if Path("/proc/self/fd").exists():  # its two pipe ends and nothing else
            assert len(os.listdir(f"/proc/{cli._helper[0]}/fd")) == 2
        cat.stdin.close()
        assert cat.wait(timeout=10) == 0  # the helper holds no write end of cat's stdin
    finally:
        cli._stop_helper()
        cat.kill()
        cat.wait()


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs fork and two usable CPUs")
def test_a_forked_child_does_not_keep_the_helper_alive():
    run(LARGE)
    hold_r, hold_w = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(hold_w)
            os.read(hold_r, 1)  # outlive the parent's helper
        finally:
            os._exit(0)
    os.close(hold_r)
    stopper = threading.Thread(target=cli._stop_helper, daemon=True)
    try:
        stopper.start()
        stopper.join(10)  # the helper sees EOF though the child is still running
        assert not stopper.is_alive()
    finally:
        os.close(hold_w)
        os.waitpid(child, 0)
        stopper.join()


def test_a_helper_reaped_elsewhere_changes_nothing(monkeypatch):
    expected = run(LARGE)
    if cli._helper:
        os.waitpid(cli._helper[0], os.WNOHANG)  # the helper still runs: nothing reaped
        monkeypatch.setattr(cli.pickle, "load", mock.Mock(side_effect=EOFError))
        reaped = mock.Mock(side_effect=ChildProcessError)
        monkeypatch.setattr(os, "waitpid", reaped)
        assert run(LARGE) == expected and reaped.called and cli._helper == []


def test_out_file_of_a_large_table(tmp_path):
    path = tmp_path / "t.json"
    code, out, err = run([*LARGE, "--format", "json", "--out", str(path)])
    assert (code, out, err) == (EXIT_OK, "", "")
    with mock.patch.object(cli, "_SPLIT_CELLS", math.inf):
        assert run([*LARGE, "--format", "json"]) == (EXIT_OK, path.read_text(), "")


def test_one_usable_cpu_runs_the_serial_path(monkeypatch):
    cli._stop_helper()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    code, out, err = run(LARGE)
    assert (code, err) == (EXIT_OK, "") and out.count("\n") == 8 + 2001
    assert not os.fork.called and cli._helper == []


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs fork and two usable CPUs")
@pytest.mark.parametrize("where", ["first half", "second half"])
def test_a_cell_that_cannot_be_formatted_raises_as_the_serial_path(where):
    rows = [[float(i), "x"] for i in range(6000)]
    rows[10 if where == "first half" else 5000][1] = {1, 2}  # no JSON for a set
    with pytest.raises(TypeError) as serial:
        serial_emit({}, ["x", "y"], rows, "json")
    with pytest.raises(TypeError) as split:
        emit({}, ["x", "y"], rows, "json")
    assert str(split.value) == str(serial.value)
    assert run(LARGE)[0] == EXIT_OK


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs fork and two usable CPUs")
def test_a_cell_that_cannot_be_pickled_gives_the_serial_text():
    rows = [[float(i), lambda: None] for i in range(6000)]
    assert emit({}, ["x", "f"], rows, "csv") == serial_emit({}, ["x", "f"], rows, "csv")
    assert cli._helper == []


def test_no_helper_outlives_its_process():
    code = ("import sys\n"
            "import duffing_qubit.cli as cli\n"
            f"assert cli.main({LARGE!r} + ['--out', '/dev/null']) == 0\n"
            "sys.stdout.write(str(cli._helper[0] if cli._helper else ''))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert done.stderr == ""
    if TWO_CPUS:
        assert not alive(int(done.stdout))


def test_tables_from_two_threads_stay_whole():
    tables = [[[float(i + k), f"r{k}"] for i in range(4000)] for k in range(2)]
    expected = [serial_emit({}, ["x", "y"], rows, "csv") for rows in tables]
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
