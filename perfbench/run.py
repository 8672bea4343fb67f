"""binomid benchmark: seeded closed-loop workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; binomid is imported from ./src. With
--trace 0 the loop runs untraced in WORKERS fresh processes, one after the
other, each for S/WORKERS seconds, and the last line printed is a JSON
object with the end-to-end metrics named in BENCHMARK.json. With --trace 1
one process alternates untraced and traced passes over the job cycle, and
the metrics are the per-layer ones. Every job's output is checked by
oracle.py outside the timed loop; the lines before the result describe the
generated inputs, the tail percentile and any failure. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

WORKERS = 3  # fresh processes per untraced run; setup_s is their median
WORK_ROOT = os.path.join(".bench_build", "perfbench")
WORKER_TIMEOUT = 170


def _spawn_worker(args, workdir, seconds, start=0, mode="loop", spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--seconds", str(seconds),
           "--start", str(start), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    # no bytecode cache: every run imports binomid the same way, whatever ran before
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    began = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["setup_end"] - began
    return result


def _tail(latencies):
    """(percentile, value, samples beyond): the highest whole percentile with
    at least ten samples above it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def _check_outputs(cycle, results):
    """Oracle verdicts for every recorded job; returns (attempted, failures)."""
    first, verdicts, failures = {}, {}, []
    outputs = {}
    for res in results:
        for key, text in res["outputs"].items():
            outputs.setdefault(int(key), text)
    records = [rec for res in results for rec in res["records"]]
    for index, elapsed, rc, digest, err in records:
        job = cycle.jobs[index]
        if index not in verdicts:
            first[index] = (rc, digest)
            verdicts[index] = oracle.check(job, rc, outputs[index], err)
        reason = verdicts[index]
        if reason is None and (rc, digest) != first[index]:
            reason = "repeat differs from the first run (exit code or stdout)"
        if reason is None and "Traceback (most recent call last)" in err:
            reason = "traceback on a repeat"
        if reason is not None:
            failures.append((" ".join(job.argv)[:160], reason))
    return len(records), failures


def _declared(section):
    with open("BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def _end_to_end(results, attempted, failed):
    # A job's latency is the median of its runs within this run: every job
    # in the cycle repeats, and the median keeps a burst of load from other
    # processes on the machine out of the percentiles.
    runs: dict[int, list[float]] = {}
    for res in results:
        for index, elapsed, *_ in res["records"]:
            runs.setdefault(index, []).append(elapsed)
    typical = {index: statistics.median(times) for index, times in runs.items()}
    latencies = [typical[index] for res in results for index, *_ in res["records"]]
    pct, tail, beyond = _tail(latencies)
    print(f"jobs: {len(latencies)} runs of {len(typical)} distinct jobs over "
          f"{len(results)} processes; job_s.tail is p{pct} with {beyond} samples "
          f"beyond it; failed_frac {failed / attempted:.4f}")
    return {
        "job_s.p50": statistics.median(latencies),
        "job_s.tail": tail,
        "jobs_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(res["setup_s"] for res in results),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
    }


def _interpreter_s():
    """Median wall time of a bare interpreter start, the floor under process.wall."""
    times = []
    for _ in range(5):
        began = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(perf_counter() - began)
    return statistics.median(times)


def _per_layer(result, attempted, failed):
    passes = result["passes"]

    def med(get):
        return statistics.median(get(p) for p in passes)

    metrics = {}
    names = {n for p in passes for n in p["self_s"]}
    for name in names:
        metrics[name + ".s"] = med(lambda p: p["self_s"].get(name, 0.0))
        metrics[name + ".calls"] = med(lambda p: p["calls"].get(name, 0))
    for key in passes[0]["counts"]:
        metrics[key] = med(lambda p: p["counts"][key])
    metrics["trace.wall.s"] = med(lambda p: sum(p["self_s"].values()))
    metrics["trace.overhead_frac"] = med(lambda p: 1.0 - p["untraced_s"] / p["traced_s"])
    metrics["process.interpreter.s"] = _interpreter_s()
    metrics["failed_frac"] = failed / attempted
    layers = sorted(((v, k) for k, v in metrics.items()
                     if k.endswith(".s") and k != "trace.wall.s"), reverse=True)
    print(f"traced passes: {len(passes)}; self times sum to "
          f"{metrics['trace.wall.s']:.4f} s of traced job time; top layers: "
          + ", ".join(f"{k} {v:.4f}" for v, k in layers[:6] if k != "process.interpreter.s"))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "binomid", "__init__.py")):
        print("error: run from the root of a binomid checkout (no src/binomid)",
              file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    declared = _declared(section)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            spans = os.path.join(WORK_ROOT, f"spans-{args.workload}.json")
            results = [_spawn_worker(args, workdir, args.seconds, mode="trace",
                                     spans=spans)]
        else:
            results, start = [], 0
            for _ in range(WORKERS):
                results.append(_spawn_worker(args, workdir, args.seconds / WORKERS, start))
                start = results[-1]["next"]
        cycle = workloads.generate(args.workload, args.seed, workdir)
        attempted, failures = _check_outputs(cycle, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("inputs: " + json.dumps(workloads.input_properties(cycle), sort_keys=True))
    for argv, reason in failures[:10]:
        print(f"FAILED {argv}: {reason}")
    if args.trace:
        computed = _per_layer(results[0], attempted, len(failures))
    else:
        computed = _end_to_end(results, attempted, len(failures))
    for name, _ in declared:
        if args.trace and name.endswith((".s", ".calls")):
            computed.setdefault(name, 0)  # a layer this workload never entered
    missing = [name for name, _ in declared if name not in computed]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": computed[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
