"""The column-wise table emitter against the per-cell one it replaced.  Tables
are given column by column, as the commands hand them over."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duffing_qubit import __version__
from duffing_qubit.cli import SCHEMA, _fmt, _json_safe, emit_table


def reference_emit(params, columns, cols, fmt):
    """One ``_fmt`` per cell for CSV, ``json.dumps(doc, indent=2)`` for JSON."""
    rows = list(zip(*cols))
    out = io.StringIO()
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "version": __version__,
            "params": {k: _json_safe(v) for k, v in params.items()},
            "columns": columns,
            "rows": [[_json_safe(v) for v in row] for row in rows],
        }
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
        return out.getvalue()
    out.write(f"# schema={SCHEMA}\n")
    out.write(f"# version={__version__}\n")
    for key, value in params.items():
        out.write(f"# {key}={_fmt(value)}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


def emit(params, columns, cols, fmt):
    out = io.StringIO()
    emit_table(params, columns, cols, fmt, out)
    return out.getvalue()


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
)
# strings that need JSON escaping: quotes, backslashes, control and non-ASCII
texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "absent", "WeakDampingViolated|ResonantPumping", 'a"b\\c',
                     "tab\there\nnewline", "éκ→\U0001d6c3", "\x00\x1f"]),
)
scalars = st.one_of(
    floats,
    texts,
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    floats.map(np.float64),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
)


@st.composite
def columns_of(draw, n):
    """One column of ``n`` cells of one of the kinds the CLI emits or may."""
    kind = draw(st.sampled_from(["float", "array", "zeros", "constant", "text", "mixed"]))
    if kind == "float":
        return draw(st.lists(floats, min_size=n, max_size=n))
    if kind == "array":
        return np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    if kind == "constant":
        return [draw(scalars)] * n
    if kind == "text":
        return draw(st.lists(st.sampled_from(draw(st.lists(texts, min_size=1, max_size=3))),
                             min_size=n, max_size=n))
    return draw(st.lists(scalars, min_size=n, max_size=n))


@st.composite
def tables(draw):
    n_rows = draw(st.sampled_from([0, 1, 2, 5]) | st.integers(0, 12))
    n_cols = draw(st.integers(1, 5))
    cols = [draw(columns_of(n_rows)) for _ in range(n_cols)]
    names = [f"c{j}" for j in range(n_cols)]
    params = draw(st.dictionaries(st.sampled_from(["beta", "nu", "attractor", "flag", "n"]),
                                  scalars, max_size=4))
    return params, names, cols


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_emitter_matches_per_cell_reference(table, fmt):
    params, columns, cols = table
    assert emit(params, columns, cols, fmt) == reference_emit(params, columns, cols, fmt)


def test_signed_zeros_in_one_column_keep_their_sign():
    # 0.0 == -0.0, so a shared text for equal values would print one of them
    for col in ([0.0, -0.0, 0.0], np.array([0.0, -0.0, 0.0])):
        assert emit({}, ["x"], [col], "csv").endswith("x\n0.0\n-0.0\n0.0\n")
        assert emit({}, ["x"], [col], "json").endswith(
            "[\n      0.0\n    ],\n    [\n      -0.0\n    ],\n    [\n      0.0\n    ]\n  ]\n}\n")


def test_empty_and_one_row_tables():
    for cols in ([[], []], [[1.5], ["a"]], [np.array([]), []]):
        for fmt in ("csv", "json"):
            got = emit({"k": float("nan")}, ["x", "y"], cols, fmt)
            assert got == reference_emit({"k": float("nan")}, ["x", "y"], cols, fmt)
    assert '"rows": []\n}\n' in emit({}, ["x"], [[]], "json")


@pytest.mark.parametrize("columns, rows", [
    (["x", "y"], [[1.0, 2.0], [3.0]]),
    (["x", "y"], [[1.0, 2.0, 3.0]]),
    ([], [[], []]),
])
def test_ragged_rows_and_no_columns_are_refused(columns, rows):
    # the cells of the rows, column by column: a short row leaves a short
    # column, a long row one column too many
    cols = [[row[j] for row in rows if j < len(row)] for j in range(max(map(len, rows)))]
    with pytest.raises(ValueError, match="one cell per column"):
        emit({}, columns, cols, "csv")
