"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workloads short-calls,si-rates \\
        --seeds 9201-9210 --pairs 10 --out BENCH_9.json

PARENT and CHANGE are checkout directories of this repository.  Pair k runs
``perfbench/run.py --seed <k-th seed> --seconds S --trace 0`` once in each
checkout, for each workload; the parent goes first in even pairs and the
change in odd ones.  Each run's end-to-end metrics come from the last line of
its standard output, and the machine and versions from the record it leaves
in ``perfbench/results/``.

For every workload and end-to-end metric of ``BENCHMARK.json`` the script
prints each side's median and quartiles, the parent's interquartile range,
the change's number of wins (ties count for neither side), the relative move
of the median and whether that move is worse than the metric's bound.  A
move whose change median lies within the parent's [q1, q3] is marked
``(inside parent quartiles)``: the parent's own runs spread that far, so the
move may be noise.  With ``--out`` it writes the same summary and every run
as JSON, with that mark as the boolean ``inside_parent_quartiles``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(spec: str) -> list[int]:
    """'9201-9210' -> [9201, ..., 9210]; a single number is one seed."""
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its metrics and its environment record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    env = json.loads(record.read_text(encoding="utf-8"))["environment"]
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    return {"correct": last["correct"], "metrics": metrics, "environment": env}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metric: dict) -> dict:
    """One workload's pairs on one end-to-end metric of BENCHMARK.json."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "pairs": len(runs)}
    for side in SIDES:
        q1, med, q3 = quartiles(values[side])
        out[side] = {"median": med, "q1": q1, "q3": q3, "runs": values[side]}
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["change_wins"] = sum((c > p) if higher else (c < p)
                             for p, c in zip(values["parent"], values["change"]))
    before, after = out["parent"]["median"], out["change"]["median"]
    move = (after - before) / abs(before) if before else 0.0
    out["median_move"] = move
    out["worse_than_bound"] = (-move if higher else move) > metric["bound"]
    out["inside_parent_quartiles"] = out["parent"]["q1"] <= after <= out["parent"]["q3"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="seed range FIRST-LAST, one per pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="perfbench run length")
    parser.add_argument("--out", type=Path, help="write the summary and runs as JSON")
    args = parser.parse_args(argv)

    seeds = seed_range(args.seeds)
    if not 0 < args.pairs <= len(seeds):
        parser.error(f"--pairs must be from 1 to the {len(seeds)} seeds, got {args.pairs}")
    workloads = args.workloads.split(",")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    environment = {}
    for k, seed in enumerate(seeds[:args.pairs]):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                environment.setdefault(side, pair[side].pop("environment"))
                print(f"pair {k + 1}/{args.pairs} {workload} seed {seed} {side}: "
                      f"points_per_s {pair[side]['metrics']['points_per_s']:.0f}",
                      file=sys.stderr, flush=True)
            runs[workload].append(pair)

    results = {w: {m["name"]: summarize(runs[w], m) for m in bench["end_to_end"]}
               for w in workloads}
    for workload, metrics in results.items():
        print(f"{workload} ({args.pairs} pairs)")
        for name, s in metrics.items():
            p, c = s["parent"], s["change"]
            print(f"  {name:13} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  parent IQR {s['parent_iqr']:.3g}  wins {s['change_wins']}/{s['pairs']}"
                  f"  move {s['median_move']:+.1%}"
                  + ("  (inside parent quartiles)" if s["inside_parent_quartiles"] else "")
                  + ("  WORSE THAN BOUND" if s["worse_than_bound"] else ""))
    if args.out:
        doc = {
            "workloads": workloads,
            "seeds": seeds[:args.pairs],
            "first": [pair["first"] for pair in runs[workloads[0]]],
            "seconds": args.seconds,
            "environment": environment,  # of each side's first run
            "all_correct": all(p[side]["correct"] for w in workloads for p in runs[w]
                               for side in SIDES),
            "results": results,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
