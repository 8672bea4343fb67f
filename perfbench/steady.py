"""Steadiness check: run every workload under several seeds and report each
end-to-end metric's median, quartiles and spread (IQR / median).

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--workloads a,b]

Run from the root of a checkout. A metric is steady when its spread is under
a third of its bound in BENCHMARK.json; setup_s, job_s.tail and peak_rss_mb
are also shown against a tenth. The bounds in BENCHMARK.json were set from
this report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WITHIN_A_TENTH = ("setup_s", "job_s.tail", "peak_rss_mb")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} seeds, failed {failed}/{attempted}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3 or name == "setup_s"
            steady &= ok
            tenth = f" (tenth: {'yes' if spread <= 0.1 else 'NO'})" if name in WITHIN_A_TENTH else ""
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread "
                  f"{spread:.3f}  bound {bounds[name]}  {'ok' if ok else 'UNSTEADY'}{tenth}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
