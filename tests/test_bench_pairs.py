"""The claim verdict of ``tools/bench_pairs.py`` on synthetic pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "points_per_s", "unit": "rows/s", "better": "higher", "bound": 0.2}
LATENCY = {"name": "call_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25}
PARENT = [100.0 + k for k in range(10)]  # quartiles 102.25 and 106.75: IQR 4.5


def runs(metric, parent, change):
    name = metric["name"]
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("losses, claimed", [(0, True), (1, True), (2, False)])
def test_a_claim_needs_nine_wins_of_ten(losses, claimed):
    change = [p + 20.0 for p in PARENT]
    for k in range(losses):
        change[k] = PARENT[k] - 1.0
    s = bench_pairs.summarize(runs(RATE, PARENT, change), RATE)
    assert s["change_wins"] == 10 - losses
    assert s["parent_iqr"] == pytest.approx(4.5)
    assert s["claim_met"] is claimed


def test_a_claim_needs_a_move_beyond_the_parent_iqr():
    s = bench_pairs.summarize(runs(RATE, PARENT, [p + 1.0 for p in PARENT]), RATE)
    assert s["change_wins"] == 10 and s["claim_met"] is False


@pytest.mark.parametrize("step, claimed", [(-20.0, True), (20.0, False)])
def test_a_lower_is_better_claim_needs_a_fall(step, claimed):
    s = bench_pairs.summarize(runs(LATENCY, PARENT, [p + step for p in PARENT]), LATENCY)
    assert s["claim_met"] is claimed


def fake_main(tmp_path, monkeypatch, capsys, change_rate, correct=True):
    """main over 10 pairs of synthetic runs: (exit status, stdout)."""
    calls = iter(range(20))

    def run_once(checkout, workload, seed, seconds):
        k = next(calls) // 2  # both sides of pair k
        change = checkout == tmp_path / "change"
        rate = change_rate(PARENT[k]) if change else PARENT[k]
        return {"correct": correct or not change, "metrics": {"points_per_s": rate},
                "environment": {}}

    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [RATE]}))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main([str(tmp_path), str(tmp_path / "change"), "--workloads",
                             "omega-sweep", "--seeds", "1-10", "--pairs", "10"])
    return code, capsys.readouterr().out


def test_a_gain_on_correct_runs_exits_zero(tmp_path, monkeypatch, capsys):
    code, out = fake_main(tmp_path, monkeypatch, capsys, lambda p: p + 20.0)
    assert code == 0 and "CLAIM MET" in out and "all_correct True" in out


def test_an_incorrect_run_exits_one(tmp_path, monkeypatch, capsys):
    code, out = fake_main(tmp_path, monkeypatch, capsys, lambda p: p + 20.0, correct=False)
    assert code == 1 and "all_correct False" in out


def test_a_metric_worse_than_its_bound_exits_one(tmp_path, monkeypatch, capsys):
    code, out = fake_main(tmp_path, monkeypatch, capsys, lambda p: 0.7 * p)
    assert code == 1 and "WORSE THAN BOUND" in out and "all_correct True" in out


def test_stale_bytecode_is_removed_from_both_checkouts_and_reported(tmp_path, monkeypatch,
                                                                      capsys):
    # bytecode left in one checkout only would let that side start faster
    cache = tmp_path / "src" / "duffing_qubit" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "cli.cpython-311.pyc").write_bytes(b"stale")
    seen = []  # whether the cache was still there at each run

    def run_once(checkout, workload, seed, seconds):
        seen.append(cache.exists())
        return {"correct": True, "metrics": {"points_per_s": 100.0}, "environment": {}}

    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [RATE]}))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path), str(tmp_path / "change"), "--workloads",
                             "short-calls", "--seeds", "1-2", "--pairs", "2",
                             "--out", str(out)]) == 0
    assert seen == [False] * 4
    err = capsys.readouterr().err
    assert f"removed stale bytecode from the parent checkout: {cache}\n" in err
    assert "change checkout" not in err
    doc = json.loads(out.read_text())
    assert doc["bytecode_removed"] == {"parent": True, "change": False}
