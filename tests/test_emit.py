"""The table emitter, which writes each run of float64 array columns from one
dump, against the per-cell one it replaced.  Tables are given column by
column, as the commands hand them over."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duffing_qubit.cli as cli
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


# float64 cells where orjson's layout and repr's part: the neighbours of 0 and
# of the thresholds 1e-5, 1e-4 and 1e16, subnormals, +-max, NaN and +-inf
EDGES = np.array([
    *(np.nextafter(edge, toward) * sign for edge in (0.0, 1e-5, 1e-4, 1e16)
      for toward in (-np.inf, np.inf) for sign in (1.0, -1.0)),
    0.0, -0.0, 1e-5, 1e-4, 1e16, -1e16, 5e-324, -5e-324, 2.225073858507201e-308,
    np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max,
    np.nan, np.inf, -np.inf, 1e-7, 1.5e-10, 1e100, 1e-100, 123456.789,
])


def laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    """``values`` as a contiguous array, or as a strided view of a larger one."""
    if layout == "every other":
        a = np.full(2 * len(values), 1.25)
        a[::2] = values
        return a[::2]
    if layout == "matrix column":
        m = np.full((len(values), 3), 1.25)
        m[:, 0] = values
        return m[:, 0]
    return values.copy()


# one value of each class the block formatter mends, for a row that holds them all
ROW_OF_CLASSES = [np.nan, np.inf, -np.inf, 2.5e-5, -1e-7, 5e16, -1e300, 1e-5]


@st.composite
def split_runs(draw, float_columns, n):
    """The float64 columns drawn by ``float_columns`` (a strategy of one
    column), one to eight of them, in runs split by zero to two str or list
    columns of ``n`` cells; on a drawn row, if any, the float64 cells cycle
    through ``ROW_OF_CLASSES`` from a drawn offset."""
    cols = [draw(float_columns) for _ in range(draw(st.integers(1, 8)))]
    if n and draw(st.booleans()):
        row, offset = draw(st.integers(0, n - 1)), draw(st.integers(0, 7))
        for j, col in enumerate(cols):
            col[row] = ROW_OF_CLASSES[(offset + j) % len(ROW_OF_CLASSES)]
    splitters = st.one_of(
        st.lists(texts, min_size=n, max_size=n),
        st.lists(texts, min_size=n, max_size=n).map(np.array),
        st.lists(floats, min_size=n, max_size=n),
    )
    for _ in range(draw(st.integers(0, 2))):
        cols.insert(draw(st.integers(0, len(cols))), draw(splitters))
    return cols


@st.composite
def float64_column(draw, n):
    """One float64 column of raw bit patterns, some cells replaced by edges,
    laid out as contiguous or strided."""
    bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)):
        values[i] = draw(st.sampled_from(EDGES))
    return laid_out(values, draw(st.sampled_from(["contiguous", "every other", "matrix column"])))


@st.composite
def float64_tables(draw):
    """Runs of ``float64_column``s of 0 to 40 rows (see ``split_runs``)."""
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    return draw(split_runs(float64_column(n), n))


@settings(max_examples=300, deadline=None)
@given(float64_tables(), st.sampled_from(["csv", "json"]))
def test_float64_arrays_match_the_per_cell_reference(cols, fmt):
    columns = [f"c{j}" for j in range(len(cols))]
    assert emit({}, columns, cols, fmt) == reference_emit({}, columns, cols, fmt)


@pytest.mark.parametrize("layout", ["contiguous", "every other", "matrix column"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float64_edges_match_the_per_cell_reference(layout, fmt):
    for values in (EDGES, EDGES[:1], EDGES[:0], np.repeat(EDGES, 50)):
        cols = [laid_out(values, layout), laid_out(values[::-1], layout)]
        assert emit({}, ["x", "y"], cols, fmt) == reference_emit({}, ["x", "y"], cols, fmt)


# one-digit mantissas, two- and three-digit exponents, and the neighbours of
# the thresholds of the mended classes
MENDED_EDGES = [1e-5, 2e-5, 1e-7, 5e16, 9e-5, 1.5e-5, 1e-10, 1e-100, 1e-300, 1e16, 1e100,
                1e300, 5e-324, 9.999999999999999e-05, 1.0000000000000002e-05,
                9.999999999999999e-06, 9999999999999998.0]


@st.composite
def mended_column(draw, n, rng):
    """One float64 column of ``n`` cells in the classes whose layout the
    block formatter mends: log-uniform over [1e-12, 1e-3] and [1e15,
    1.8e308] with both signs (so 1e-5 <= |x| < 1e-4 and exponents of one,
    two and three digits), with drawn edges, NaN and +-inf on drawn rows,
    laid out as contiguous or strided."""
    exponent = np.where(rng.random(n) < 0.5, rng.uniform(-12.0, -3.0, n),
                        rng.uniform(15.0, 308.25, n))
    values = 10.0**exponent * rng.choice([-1.0, 1.0], n)
    picks = draw(st.lists(st.sampled_from([*MENDED_EDGES, math.nan, math.inf]), max_size=12))
    for value, sign, row in zip(picks, rng.choice([-1.0, 1.0], len(picks)),
                                rng.integers(0, n, len(picks))):
        values[row] = sign * value
    return laid_out(values, draw(st.sampled_from(["contiguous", "every other", "matrix column"])))


@st.composite
def mended_tables(draw):
    """Runs of ``mended_column``s of 1 to 2 000 rows (see ``split_runs``)."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw(split_runs(mended_column(n, rng), n))


@settings(max_examples=120, deadline=None)
@given(mended_tables(), st.sampled_from(["csv", "json"]))
def test_mended_float64_classes_match_the_per_cell_reference(cols, fmt):
    columns = [f"c{j}" for j in range(len(cols))]
    assert emit({}, columns, cols, fmt) == reference_emit({}, columns, cols, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_cell_of_a_float64_run_goes_through_column_text(fmt, monkeypatch):
    # NaN, +-inf, the 1e-5 band and the exponents are mended on the text of
    # the table's one dump: no float64 cell takes a per-cell path, and
    # _column_text sees only the columns that are not float64 arrays
    import orjson

    seen, dumps, column_text, dump = [], [], cli._column_text, orjson.dumps

    def counted(col, as_json):
        seen.append(list(col))
        return column_text(col, as_json)

    def counted_dump(obj, *args, **kwargs):
        dumps.append(len(obj))
        return dump(obj, *args, **kwargs)

    monkeypatch.setattr(cli, "_column_text", counted)
    monkeypatch.setattr(orjson, "dumps", counted_dump)
    col = np.array([1e-7, -2e-5, 5e16, 1.5e-5, -1e-300, 9.99e-5, 1e300, np.nan, np.inf, -np.inf,
                    1.0, -0.0] * 50)
    flags = ["a", "b|c"] * 300
    # (columns, the columns _column_text sees, the cells of the one dump)
    for cols, others, runs in (([col, -col], [], [1200]),
                               ([col, flags, col[::-1], -col], [flags], [1800])):
        seen.clear()
        dumps.clear()
        columns = [f"c{j}" for j in range(len(cols))]
        assert emit({}, columns, cols, fmt) == reference_emit({}, columns, cols, fmt)
        assert seen == others and dumps == runs


# texts that the writer carries through its byte buffer untouched:
# separators, float-like words, and characters whose UTF-8 bytes are the
# marker bytes (0x80 and above), one text holding most of them
MARKER_RANGE_TEXT = "".join(map(chr, range(0x80, 0x800, 3)))
SPLICED_TEXTS = st.one_of(
    texts,
    st.sampled_from([",", "a,b", ";", "\n", "nan", "-inf", "1e-05", "e", "0.0", "\x80", "\x9f",
                     "\xff", "\u07ff", "\uffff", "\U0010ffff", MARKER_RANGE_TEXT]),
    st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), max_size=4),
)


@st.composite
def spliced_column(draw, n):
    """A column that the writer places into its buffer at a separator: one
    scalar for every row, a pair (codes, labels) with a code per row or one
    0-d code, or a list of a few distinct cells."""
    labels = draw(st.lists(SPLICED_TEXTS | scalars, min_size=1, max_size=4))
    codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["scalar", "codes", "code", "list"]))
    if kind == "scalar":
        return labels[0]
    if kind == "codes":
        return np.array(codes, dtype=np.intp), labels
    if kind == "code":
        return np.array(draw(st.integers(0, len(labels) - 1))), tuple(labels)
    return [labels[c] for c in codes]


def per_row(col, n):
    """The ``n`` cells of ``col`` as a sequence, the form ``reference_emit`` takes."""
    if isinstance(col, tuple) and isinstance(col[0], np.ndarray):
        codes, labels = col
        return [labels[c] for c in np.broadcast_to(codes, n).tolist()]
    return col if isinstance(col, (list, np.ndarray)) else [col] * n


@st.composite
def spliced_tables(draw):
    """(rows, columns): no, one or a few float64 columns of 0 to 30 rows, and
    one to four spliced columns placed at the start, in the middle or at the
    end; a table with no column of its own length gains a list of texts."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 30))
    cols = [draw(float64_column(n)) for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3])))]
    for where in draw(st.lists(st.sampled_from(["start", "middle", "end"]), min_size=1,
                               max_size=4)):
        at = {"start": 0, "end": len(cols)}.get(where)
        cols.insert(draw(st.integers(0, len(cols))) if at is None else at,
                    draw(spliced_column(n)))
    if all(per_row(col, n) is not col and np.ndim(col[0]) == 0 for col in cols
           if isinstance(col, tuple)) and not any(isinstance(col, (list, np.ndarray))
                                                  for col in cols):
        cols.append(draw(st.lists(SPLICED_TEXTS, min_size=n, max_size=n)))
    return n, cols


@settings(max_examples=400, deadline=None)
@given(spliced_tables(), st.sampled_from(["csv", "json"]))
def test_spliced_columns_match_the_per_cell_reference(table, fmt):
    n, cols = table
    columns = [f"c{j}" for j in range(len(cols))]
    expected = reference_emit({}, columns, [per_row(col, n) for col in cols], fmt)
    assert emit({}, columns, cols, fmt) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scalar_and_coded_columns_are_formatted_once_into_the_one_dump(fmt, monkeypatch):
    # a constant column is one cell, and a (codes, labels) column formats its
    # labels once; both are written into the float64 columns' one dump
    import orjson

    seen, dumps, column_text, dump = [], [], cli._column_text, orjson.dumps
    monkeypatch.setattr(cli, "_column_text", lambda col, as_json: seen.append(list(col))
                        or column_text(col, as_json))
    monkeypatch.setattr(orjson, "dumps", lambda obj, *args, **kwargs: dumps.append(len(obj))
                        or dump(obj, *args, **kwargs))
    col = np.linspace(-1.0, 1.0, 600)
    codes = np.arange(600) % 3
    cols = [col, 2.5, (codes, ["", "a,b", "nan"]), "x", col[::-1], (np.array(1), ("p", "q"))]
    columns = [f"c{j}" for j in range(len(cols))]
    got = emit({}, columns, cols, fmt)
    assert got == reference_emit({}, columns, [per_row(c, 600) for c in cols], fmt)
    assert seen == [[2.5], ["", "a,b", "nan"], ["x"], ["p", "q"]] and dumps == [1200]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_texts_holding_every_marker_byte_are_written_row_by_row(fmt, where):
    # the labels hold every byte a UTF-8 text can hold from 0x80 up, so too
    # few bytes are left to mark them and the table is written row by row
    every = "".join(map(chr, [*range(0x80, 0x800, 3), *range(0x800, 0xD800, 0x1000), 0xD000,
                              0xE000, 0xF000, 0x10000, 0x40000, 0x80000, 0xC0000, 0x100000]))
    assert len(bytes(range(0x80, 0x100)).translate(None, every.encode())) < 20
    labels = [f"{every}{k}" for k in range(20)]
    col = np.array([0.5, np.nan, 1e-5, -2e300] * 5)
    cols = [col, col * 3.0]
    cols.insert(where, (np.arange(20), labels))
    columns = [f"c{j}" for j in range(len(cols))]
    expected = reference_emit({}, columns, [per_row(c, 20) for c in cols], fmt)
    assert emit({}, columns, cols, fmt) == expected


def test_a_table_of_scalars_alone_is_refused():
    # no column gives the number of rows
    for cols in ([1.5], [1.5, "a"], [(np.array(0), ["a"])]):
        with pytest.raises(ValueError, match="one cell per column"):
            emit({}, [f"c{j}" for j in range(len(cols))], cols, "csv")


# header values: finite floats with their edges, the words _json_safe writes
# for the others, bools, None and texts that JSON escapes
header_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, "nan", "inf", "-inf",
                     float("nan"), float("-inf"), True, False, None]),
    texts,
)


@settings(max_examples=300, deadline=None)
@given(params=st.dictionaries(texts, header_values, max_size=6),
       columns=st.lists(texts, min_size=1, max_size=5), n_rows=st.sampled_from([0, 1]))
def test_json_header_matches_the_indented_dump(params, columns, n_rows):
    cols = [np.zeros(n_rows)] * len(columns)
    assert emit(params, columns, cols, "json") == reference_emit(params, columns, cols, "json")


def test_json_nested_writes_empty_and_one_entry_values_as_indent_2():
    for value in ({}, [], {"k": 1.5}, ["a"], {'q"\\é': None, "b": "x"}):
        doc = json.dumps({"key": value}, indent=2)
        assert cli._json_nested(value) == doc[len('{\n  "key": '):-2]
