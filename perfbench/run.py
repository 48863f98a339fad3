"""The gammagroups benchmark: one run of one workload.

    python3 perfbench/run.py --workload {verify,analyze,search} --seed N \
        --seconds S --trace {0,1} [--odd-files] [--record FILE]

Run from the root of a source checkout. Each operation is one cold
`python -m gammagroups.cli ... --format json` process, started only after
the previous one has exited (a closed loop with one client). Every output
is checked against references from the catalog JSON files and the paper
(see workloads.py). Times are in seconds at a reference speed: each process
is timed against a calibration loop run on the same CPU (see Child). The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer metrics for --trace 1. The full record
(tail percentile, sample counts, failures, host) goes to --record.

Exit status: 0 when every operation passed its check, 1 when one failed,
2 when the checkout has no gammagroups sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# A run repeats its workload's round floor(seconds / ROUND_SECONDS) times,
# at least once. A round's cold wall time at the seed commit on 2 CPUs:
# verify 49-57 s (one process), analyze 19-24 s (28 calls), search 24-35 s
# (16 calls). The round count depends on --seconds only, never on timing.
ROUND_SECONDS = {"verify": 45, "analyze": 22, "search": 30}
SETUP_REPEATS = 3

# A typical calibrate() time on the 2-CPU VM where the baseline numbers in
# NOTES.md were measured; times are reported at that speed.
CALIBRATION_REF_S = 0.0227
SLICE_S = 0.25

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "exact.matmul.count", "exact.matmul.self_s", "exact.key.count", "exact.key.self_s",
    "groups.closure.count", "groups.closure.self_s", "groups.cayley.cells",
    "groups.cayley.self_s", "groups.subclosure.count", "groups.subclosure.self_s",
    "groups.iso.count", "groups.iso.found_ratio", "groups.iso.self_s",
    "groups.as_group.self_s", "catalog.search.count", "catalog.search.self_s",
    "catalog.search.closures_per_hit", "groups.subgroups.count",
    "groups.subgroups.self_s", "catalog.decompose.self_s", "catalog.extensions.self_s",
    "catalog.pool.self_s", "groups.structure.self_s", "catalog.profile.self_s",
    "reps.census.self_s", "reps.indicator.self_s", "reps.form.self_s",
    "reps.weights.self_s", "brackets.match.count", "brackets.match.self_s",
    "brackets.verify.self_s", "catalog.entry.self_s", "exact.parse.self_s",
    "cli.import_s", "cli.process_overhead_s", "cli.render.self_s", "claims.run.self_s",
    "trace.wall_s",
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "goodput_ops_per_s": "ops/s",
    "latency_p50_s": "s", "latency_tail_s": "s", "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (dicts, string keys, Fractions)."""
    start = time.perf_counter()
    table: dict[str, Fraction] = {}
    for i in range(6000):
        key = f"{i * 7919 % 5003},{i % 13}"
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 7, 3)
    sorted(table.items())
    return time.perf_counter() - start


class Child:
    """Outcome of one cold CLI process, reaped with os.wait4.

    The host's speed drifts by tens of percent within minutes, and CPU time
    drifts with it, so each process is timed against the calibration loop
    run on the same CPU right before it and, every SLICE_S while it runs,
    with the process stopped. `speed` is CALIBRATION_REF_S over the mean
    loop time: a process slowed by bursts of contention is slowed by their
    mean, which a median would ignore. The reported times are the measured
    ones times `speed`, in seconds at the reference speed. Stopped time is
    not counted.
    """

    def __init__(self, argv: list[str], cwd: Path, env: dict):
        loops = [calibrate() for _ in range(3)]
        paused = 0.0
        with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            try:
                exited = os.pidfd_open(proc.pid)
                try:
                    while not select.select([exited], [], [], SLICE_S)[0]:
                        stop = time.perf_counter()
                        os.kill(proc.pid, signal.SIGSTOP)
                        info = os.waitid(os.P_PID, proc.pid,
                                         os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                        if info.si_code == os.CLD_STOPPED:
                            loops.append(calibrate())
                            os.kill(proc.pid, signal.SIGCONT)
                        paused += time.perf_counter() - stop
                finally:
                    os.close(exited)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.raw_latency_s = time.perf_counter() - start - paused
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode("utf-8", "replace")
            self.stderr = err.read().decode("utf-8", "replace")
        self.code = proc.returncode
        self.speed = CALIBRATION_REF_S / statistics.mean(loops)
        self.latency_s = self.raw_latency_s * self.speed
        self.raw_cpu_s = usage.ru_utime + usage.ru_stime
        self.cpu_s = self.raw_cpu_s * self.speed
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def report(self) -> tuple[dict | None, str | None]:
        """(parsed JSON report, None) or (None, why the process failed)."""
        if "Traceback (most recent call last)" in self.stderr:
            return None, "traceback: " + self.stderr.strip().splitlines()[-1]
        try:
            return json.loads(self.stdout), None
        except json.JSONDecodeError:
            return None, f"exit {self.code}, no JSON report: {self.stderr.strip()[-200:]}"


def host() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, "platform": platform.platform()}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10
    if k < 1:
        return ordered[-1], 100.0, n
    return ordered[k - 1], 100.0 * k / n, n


def run_setup(env: dict, workdir: Path, catalog: dict, failures: list) -> list[Child]:
    """Cold `catalog list` processes; checks their output."""
    children, outputs = [], []
    for _ in range(SETUP_REPEATS):
        child = Child([sys.executable, "-m", "gammagroups.cli", "catalog", "list",
                       "--format", "json"], workdir, env)
        children.append(child)
        doc, why = child.report()
        if doc is None or child.code != 0:
            failures.append({"op": "catalog list", "why": why or f"exit {child.code}"})
            continue
        failures.extend({"op": "catalog list", "why": p}
                        for p in workloads.check_catalog_list(doc, catalog))
        outputs.append(workloads.normalized(doc))
    if any(out != outputs[0] for out in outputs[1:]):
        failures.append({"op": "catalog list", "why": "output differs between repeats"})
    return children


def run_stream(ops, env, workdir, trace: bool):
    """Run the operations one after another; returns (children, traces)."""
    children, traces = [], []
    for op_id, op in enumerate(ops):
        argv = [*op.args, "--format", "json"]
        if trace:
            trace_path = workdir / f"trace_{op_id}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), str(op_id), *argv]
        else:
            argv = [sys.executable, "-m", "gammagroups.cli", *argv]
        children.append(Child(argv, workdir, env))
        if trace:
            traces.append(json.loads(trace_path.read_text()) if trace_path.exists() else None)
    return children, traces


def check_stream(ops, children) -> tuple[int, int, list[dict]]:
    """(operations attempted, operations failed, failure records)."""
    attempted = failed = 0
    failures: list[dict] = []
    seen: dict[tuple, dict] = {}
    for op, child in zip(ops, children):
        doc, why = child.report()
        problems = [why] if why else []
        if doc is not None and op.kind == "verify":
            try:
                claims, problems = workloads.check_verify(doc)
            except (KeyError, TypeError, ValueError) as err:
                claims, problems = 0, [f"report not in the expected shape: {err!r}"]
            if child.code != 0 and not problems:
                problems.append(f"exit {child.code}")
            attempted += max(claims, 1)
            failed += min(len(problems), max(claims, 1))
        else:
            if doc is not None:
                if child.code != 0:
                    problems.append(f"exit {child.code}")
                else:
                    check = (workloads.check_search if op.kind == "search"
                             else lambda d: workloads.check_analyze(d, op.reference))
                    try:
                        problems += check(doc)
                    except (KeyError, TypeError, ValueError, AttributeError) as err:
                        problems.append(f"report not in the expected shape: {err!r}")
                key = tuple(op.args)
                if key in seen and seen[key] != workloads.normalized(doc):
                    problems.append("output differs from the same call earlier in the run")
                seen.setdefault(key, workloads.normalized(doc))
            attempted += 1
            failed += bool(problems)
        failures.extend({"op": " ".join(op.args), "why": p} for p in problems)
    return attempted, failed, failures


def end_to_end(setup, children, attempted, failed) -> tuple[dict, dict]:
    """(the end-to-end metrics, the facts reported beside them).

    With one client the operations never overlap, so the stream's wall time
    is the sum of their spawn-to-exit times; the benchmark's own work
    between them (checks, calibration) is left out.
    """
    latencies = [c.latency_s for c in children]
    wall_s = sum(latencies)
    tail_s, tail_pct, samples = tail(latencies)
    return {
        "setup_s": statistics.median(c.latency_s for c in setup),
        "wall_s": wall_s,
        "cpu_s": sum(c.cpu_s for c in children),
        "goodput_ops_per_s": (attempted - failed) / wall_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "peak_rss_mb": max(c.rss_mb for c in children),
    }, {"latency_tail_percentile": tail_pct, "latency_samples": samples,
        "ops_failed_ratio": failed / attempted,
        "measured": {  # the same times before scaling to the reference speed
            "setup_s": statistics.median(c.raw_latency_s for c in setup),
            "wall_s": sum(c.raw_latency_s for c in children),
            "cpu_s": sum(c.raw_cpu_s for c in children),
            "speed_median": statistics.median(c.speed for c in setup + children),
        }}


def per_layer(traces, children) -> dict:
    """Sum the operations' trace summaries into the per-layer metrics.

    Times are scaled by each operation's speed, like the end-to-end ones.
    """
    pairs = [(t, c) for t, c in zip(traces, children) if t is not None]
    traces = [t for t, _ in pairs]

    def total(section, layer):
        return sum(t[section].get(layer, 0) for t in traces)

    def seconds(section, layer):
        return sum(t[section].get(layer, 0.0) * c.speed for t, c in pairs)

    out = {}
    for layer in {layer for layer, _, _ in LAYERS}:
        out[f"{layer}.count"] = (total("count", layer), "count")
        out[f"{layer}.self_s"] = (seconds("self_s", layer), "s")
    iso_calls = total("count", "groups.iso")
    hits = sum(t["search_hits"] for t in traces)
    out["groups.cayley.cells"] = (sum(t["cayley_cells"] for t in traces), "count")
    out["groups.iso.found_ratio"] = (
        sum(t["iso_found"] for t in traces) / iso_calls if iso_calls else 0.0, "ratio")
    out["catalog.search.closures_per_hit"] = (
        sum(t["search_closures"] for t in traces) / hits if hits else 0.0, "ratio")
    out["cli.import_s"] = (sum(t["import_s"] * c.speed for t, c in pairs), "s")
    out["cli.process_overhead_s"] = (
        sum(c.latency_s for _, c in pairs) - seconds("inclusive_s", "cli.main"), "s")
    out["trace.wall_s"] = (sum(c.latency_s for c in children), "s")
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--odd-files", action="store_true",
                        help="add generator files of non-2-power groups to analyze "
                             "(a defect probe; the seed commit fails them)")
    parser.add_argument("--record", type=Path, help="append the full run record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gammagroups" / "cli.py").is_file():
        print(f"error: no gammagroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The calibration loop must run on the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        failures: list[dict] = []
        catalog = workloads.load_catalog(ROOT)
        setup = run_setup(env, workdir, catalog, failures)
        rounds = max(1, args.seconds // ROUND_SECONDS[args.workload])
        ops = workloads.plan(args.workload, args.seed, rounds, workdir, ROOT, args.odd_files)
        children, traces = run_stream(ops, env, workdir, bool(args.trace))
        attempted, failed, stream_failures = check_stream(ops, children)
        failures += stream_failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = end_to_end(setup, children, attempted, failed)
    if args.trace:
        reported = per_layer(traces, children)
    else:
        reported = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    correct = not failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "odd_files": args.odd_files,
        "odd_ops": sum(op.kind == "analyze-odd" for op in ops),
        "correct": correct, "attempted": attempted, "failed": failed, **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "failures": failures[:50], "host": host(),
        "latencies": [[" ".join(op.args), c.latency_s] for op, c in zip(ops, children)],
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    for failure in failures[:20]:
        print(f"FAILED {failure['op']}: {failure['why']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
