import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
from workloads import generate

import duffing_qubit.cli as cli


def run(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(call.argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def outputs():
    """One genuine output per kind of call, from a short-calls pass."""
    wl = generate("short-calls", 1, str(Path(__file__).resolve().parents[1] / ".work" / "tests"))
    for path, content in wl.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(content, encoding="utf-8")
    found = {}
    for call in wl.calls:
        fmt = call.info.get("format", "csv")
        found.setdefault((call.kind, fmt, call.exit), (call, *run(call)))
    return found


# column to corrupt per kind, and by how much (relative)
CORRUPT = [
    ("attractors", "csv", "u_small", 1e-6),
    ("teff", "csv", "gamma_e_scaled", 1e-6),
    ("spectrum", "csv", "emission_closed", 1e-6),
    ("spectrum", "csv", "absorption_matrix", 1e-3),
    ("spectrum", "json", "absorption_closed", 1e-6),
    ("rates-1q", "csv", "gamma_g_scaled_large", 1e-6),
    ("rates-si", "json", "t1", 1e-6),
    ("rates-si", "csv", "gamma_e", -2.0),
    ("match", "csv", "dev_g", 1e-3),
]


def corrupt(text: str, fmt: str, column: str, rel: float) -> str:
    """Scale the first finite value of ``column`` by (1 + rel)."""
    if fmt == "json":
        doc = json.loads(text)
        i = doc["columns"].index(column)
        row = next(r for r in doc["rows"] if isinstance(r[i], float))
        row[i] *= 1.0 + rel
        return json.dumps(doc, indent=2) + "\n"
    lines = text.splitlines()
    head = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    i = lines[head].split(",").index(column)
    for k in range(head + 1, len(lines)):
        cells = lines[k].split(",")
        if cells[i] not in ("nan", ""):
            cells[i] = repr(float(cells[i]) * (1.0 + rel))
            lines[k] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no finite {column} value to corrupt")


def test_every_kind_is_exercised(outputs):
    kinds = {key[0] for key in outputs}
    assert kinds == set(checks.CHECKS) | {"refused"}


@pytest.mark.parametrize("kind,fmt,column,rel", CORRUPT)
def test_check_rejects_corrupted_table(outputs, kind, fmt, column, rel):
    call, code, out, err = outputs[(kind, fmt, 0)]
    assert checks.check(call, code, out, err) == []
    assert checks.check(call, code, corrupt(out, fmt, column, rel), err)


@pytest.mark.parametrize("kind", ["attractors", "teff", "rates-1q", "match"])
def test_check_rejects_missing_row_and_schema(outputs, kind):
    call, code, out, err = outputs[(kind, "csv", 0)]
    assert checks.check(call, code, out.rstrip("\n").rsplit("\n", 1)[0] + "\n", err)
    assert checks.check(call, code, out.replace("# schema=duffing-qubit/1\n", ""), err)


def test_check_rejects_wrong_exit_and_bad_json(outputs):
    call, code, out, err = outputs[("rates-si", "json", 0)]
    assert checks.check(call, 3, out, err)
    assert checks.check(call, code, out[: len(out) // 2], err)


def test_validate_must_be_all_ok(outputs):
    call, code, out, err = outputs[("validate", "csv", 0)]
    assert checks.check(call, code, out, err) == []
    assert checks.check(call, code, out.replace("ok  ", "FAIL", 1), err)


@pytest.mark.parametrize("exit_code", [1, 2])
def test_refusals(outputs, exit_code):
    call, code, out, err = outputs[("refused", "csv", exit_code)]
    assert code == exit_code and checks.check(call, code, out, err) == []
    assert checks.check(call, 0, out, err)
    assert checks.check(call, code, "omega\n1.0\n", err)
