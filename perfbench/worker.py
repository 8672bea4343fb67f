"""One workload process: set up, run the closed loop, report raw results.

run.py starts this file with the checkout root as the working directory and
reads one JSON document from its standard output. Modes:

  loop   set up, then run jobs for --seconds from cycle position --start
  trace  set up, then alternate an untraced and a traced pass over the
         whole cycle until --seconds are used (at least one pair)

One client sends one job at a time and waits for it, from one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")

# the console entry point binomid installs, without needing an install
CONSOLE = "from binomid.cli import console_main; console_main()"
CHILD_TRACE = f"import sys; sys.path.insert(0, {HERE!r}); import childtrace; childtrace.main()"
WARMUP = [("triangle", "I", "--rows", "3", "--format", "json"),
          ("classify", "fib", "--bound", "12")]


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class Runner:
    """Runs jobs one at a time and keeps what the oracle needs."""

    def __init__(self, in_process: bool, workdir: str):
        self.in_process = in_process
        self.workdir = workdir
        self.records = []  # [cycle index, seconds, exit code, stdout digest, stderr]
        self.outputs = {}  # cycle index -> first stdout seen
        self.env = dict(os.environ, PYTHONPATH=SRC)
        if in_process:
            from binomid import cli
            if not cli.__file__.startswith(SRC + os.sep):
                raise SystemExit(f"binomid was imported from {cli.__file__}, not {SRC}")
            self.cli = cli

    def call(self, argv, tracer=None):
        """Run one job; returns (exit code, stdout, stderr)."""
        if not self.in_process:
            return self._subprocess(argv, tracer)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except Exception:  # an escaped exception is what a user sees as a traceback
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), err.getvalue()

    def _subprocess(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-c", CONSOLE, *argv]
            env = self.env
        else:
            spans_file = os.path.join(self.workdir, f"child-{os.getpid()}.json")
            cmd = [sys.executable, "-X", "importtime", "-c", CHILD_TRACE, *argv]
            env = dict(self.env, PERFBENCH_SPANS=spans_file)
            idx = tracer.enter("process.wall")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)
        err = proc.stderr
        if tracer is not None:
            tracer.leave(idx)
            err = _graft_child(tracer, idx, spans_file, err)
        return proc.returncode, proc.stdout, err

    def run(self, index: int, argv, tracer=None) -> None:
        start = perf_counter()
        if tracer is not None:
            tracer.job = index
            root = tracer.enter("harness")
        rc, out, err = self.call(argv, tracer)
        if tracer is not None:
            tracer.leave(root)
        elapsed = perf_counter() - start
        self.records.append([index, elapsed, rc, _digest(out), err[-2000:]])
        self.outputs.setdefault(index, out)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


def _graft_child(tracer, wall_idx: int, spans_file: str, stderr: str) -> str:
    """Attach a traced child's spans under its process.wall span.

    The child's perf_counter reads the same monotonic clock, so its spans
    keep their places in the timeline. binomid's own import time, read from
    -X importtime, becomes a process.import span. Returns the child's stderr
    without the importtime lines.
    """
    kept, import_us = [], 0
    for line in stderr.splitlines(keepends=True):
        m = _IMPORT_LINE.match(line)
        if m:
            if m.group(2).split(".")[0] == "binomid":
                import_us += int(m.group(1))
        elif not line.startswith("import time:"):
            kept.append(line)
    start = tracer.spans[wall_idx][1]
    tracer.spans.append(["process.import", start, start + import_us / 1e6,
                         wall_idx, tracer.job])
    try:
        with open(spans_file) as fh:
            child = json.load(fh)
        os.remove(spans_file)
    except OSError:
        return "".join(kept)
    base = len(tracer.spans)
    for name, s, e, parent, _ in child["spans"]:
        tracer.spans.append([name, s, e, wall_idx if parent < 0 else base + parent,
                             tracer.job])
    for key, value in child["counts"].items():
        if key.endswith(".max"):
            tracer.peak(key, value)
        else:
            tracer.add(key, value)
    return "".join(kept)


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--mode", choices=("loop", "trace"), default="loop")
    ap.add_argument("--spans", help="where trace mode writes the last pass's spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import workloads
    in_process = workloads.IN_PROCESS[args.workload]
    runner = Runner(in_process, args.workdir)
    cycle = workloads.generate(args.workload, args.seed, args.workdir)
    os.makedirs(args.workdir, exist_ok=True)
    for path, text in cycle.files.items():
        with open(path, "w") as fh:
            fh.write(text)
    for argv in WARMUP:
        runner.call(argv)
    jobs = [job.argv for job in cycle.jobs]
    result = {"setup_end": perf_counter()}

    if args.mode == "loop":
        index, start = args.start, perf_counter()
        while True:
            runner.run(index % len(jobs), jobs[index % len(jobs)])
            index += 1
            if perf_counter() - start >= args.seconds:
                break
        result["next"] = index
        result["peak_rss_mb"] = _peak_rss_mb(in_process)
    else:
        result.update(_trace_passes(runner, jobs, args))

    result["records"] = runner.records
    result["outputs"] = {str(k): v for k, v in runner.outputs.items()}
    json.dump(result, sys.stdout)


def _trace_passes(runner: Runner, jobs, args) -> dict:
    from tracing import Tracer
    passes = []
    begin = perf_counter()
    # another pair only if it should end within the time given
    while not passes or (perf_counter() - begin) * (len(passes) + 1) / len(passes) <= args.seconds:
        start = perf_counter()
        for index, argv in enumerate(jobs):
            runner.run(index, argv)
        untraced = perf_counter() - start
        tracer = Tracer()
        if runner.in_process:
            tracer.install()
        try:
            start = perf_counter()
            for index, argv in enumerate(jobs):
                runner.run(index, argv, tracer)
            traced = perf_counter() - start
        finally:
            tracer.uninstall()
        passes.append({"untraced_s": untraced, "traced_s": traced,
                       "self_s": tracer.self_times(), "calls": tracer.calls(),
                       "counts": tracer.counts})
    tracer.dump(args.spans)
    return {"passes": passes}


if __name__ == "__main__":
    main()
