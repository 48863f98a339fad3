"""Summaries and commit comparisons over benchmark run records.

    python3 perfbench/report.py run [--workloads verify,analyze]
        [--runs 10] [--first-seed 1] [--seconds 45] [--trace 0] --out FILE
    python3 perfbench/report.py summary FILE...
    python3 perfbench/report.py pairs PARENT_DIR CHANGE_DIR --workload W
        [--pairs 10] [--first-seed 1] [--seconds 45] --out-dir DIR
    python3 perfbench/report.py compare PARENT.jsonl CHANGE.jsonl

`run` makes the runs (one seed each) and prints the summary; `summary`
prints, per workload, every metric with its unit, sample count, median and
quartiles, plus the failed-operation ratio and the tracing overhead when
traced and untraced records are both given. Both exit 1 when any run failed
its reference check.

`pairs` runs two checkouts (parent and change) on the same seeds,
alternating which runs first; `compare` applies the gain rule to the two
record files: the change wins at least 9 of every 10 pairs and the medians
differ by more than the parent's interquartile range. It also applies each
metric's regression bound from BENCHMARK.json, and reports a metric as
unresolved where the parent's spread is wider than that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list[dict]:
    records = []
    for path in paths:
        records += [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(records: list[dict]) -> int:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"], rec.get("odd_files", False))].append(rec)
    for (workload, trace, odd), recs in sorted(groups.items()):
        label = workload + (" traced" if trace else "") + (" +odd-files" if odd else "")
        print(f"\n## {label}: {len(recs)} runs, host {recs[0]['host']}")
        print(f"{'metric':34} {'unit':>6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
        rows = defaultdict(list)
        for rec in recs:
            for name, m in rec["metrics"].items():
                rows[(name, m["unit"])].append(m["value"])
            rows[("ops_failed_ratio", "ratio")].append(rec["ops_failed_ratio"])
            rows[("latency_tail_percentile", "%")].append(rec["latency_tail_percentile"])
            rows[("latency_samples", "count")].append(rec["latency_samples"])
        for (name, unit), values in rows.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:34} {unit:>6} {len(values):>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    walls = defaultdict(dict)
    for (workload, trace, odd), recs in groups.items():
        if not odd:
            key = "trace.wall_s" if trace else "wall_s"
            walls[workload][trace] = statistics.median(r["metrics"][key]["value"] for r in recs)
    for workload, by_trace in sorted(walls.items()):
        if len(by_trace) == 2:
            extra = by_trace[1] - by_trace[0]
            print(f"\ntracing overhead on {workload}: traced wall_s - untraced wall_s = "
                  f"{extra:.3f} s ({100 * extra / by_trace[0]:.1f}% of {by_trace[0]:.3f} s)")
    bad = [r for r in records if not r["correct"]]
    for rec in bad:
        print(f"FAILED {rec['workload']} seed {rec['seed']}: {rec['failures'][:3]}")
    return 1 if bad else 0


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int, out: Path) -> int:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--record", str(out.resolve())]
    return subprocess.run(argv, cwd=checkout, stdout=subprocess.DEVNULL).returncode


def compare(parent: list[dict], change: list[dict]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{'workload':8} {'metric':18} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'wins':>6}  verdict")
    for workload in sorted({r["workload"] for r in parent}):
        p_runs = {r["seed"]: r for r in parent if r["workload"] == workload and not r["trace"]}
        c_runs = {r["seed"]: r for r in change if r["workload"] == workload and not r["trace"]}
        seeds = sorted(p_runs.keys() & c_runs.keys())
        if not seeds:
            continue
        for metric in spec:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            p = [p_runs[s]["metrics"][name]["value"] for s in seeds]
            c = [c_runs[s]["metrics"][name]["value"] for s in seeds]
            sign = -1 if lower else 1  # positive = the change is better
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            worse_by = -sign * (cm - pm) / pm
            if sign * (cm - pm) > 0 and wins >= 0.9 * len(seeds) and abs(cm - pm) > p3 - p1:
                verdict = "gain"
            elif (p3 - p1) / pm > bound and not (
                    min(sign * x for x in c) > max(sign * x for x in p)):
                verdict = "unresolved (spread wider than the bound)"
            elif worse_by > bound:
                verdict = f"regression ({100 * worse_by:.1f}% > {100 * bound:.0f}%)"
            else:
                verdict = "within bound"
            print(f"{workload:8} {name:18} {pm:10.4g} [{p1:.4g}, {p3:.4g}]".ljust(61)
                  + f" {cm:10.4g} [{c1:.4g}, {c3:.4g}]".ljust(33)
                  + f" {wins:>2}/{len(seeds):<3}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default="verify,analyze")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--out-dir", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "run":
        codes = [run_one(ROOT, workload, seed, args.seconds, args.trace, args.out)
                 for workload in args.workloads.split(",")
                 for seed in range(args.first_seed, args.first_seed + args.runs)]
        return max([summary(load([args.out]))] + [1 for code in codes if code])
    if args.command == "summary":
        return summary(load(args.files))
    if args.command == "pairs":
        args.out_dir.mkdir(parents=True, exist_ok=True)
        sides = [(args.parent, args.out_dir / "parent.jsonl"),
                 (args.change, args.out_dir / "change.jsonl")]
        for i in range(args.pairs):
            seed = args.first_seed + i
            for checkout, out in (sides if i % 2 == 0 else sides[::-1]):
                run_one(checkout, args.workload, seed, args.seconds, 0, out)
        return 0
    compare(load([args.parent]), load([args.change]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
