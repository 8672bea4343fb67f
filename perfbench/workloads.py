"""Seeded job generators for the four workloads.

Each workload is one cycle of distinct jobs that the closed loop replays in
order. A cycle is built from fixed slots: a job template, an input family
and a size (or cost target). Every seed therefore sends the same families
in the same proportions at nearly the same cost; the seed draws the size
jitter, random terms, formats, which inputs come from files, and the order.
binomid receives only the generated argv and the generated input files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from seqs import depth, factorize, is_finite, spec_text, terms


@dataclass(frozen=True)
class Job:
    argv: tuple
    command: str
    spec: tuple | None = None
    fmt: str = "text"
    bound: int = 0
    levels: int | None = None
    per_prime: int | None = None
    only: tuple = ()
    profile: bool = False
    rows: int = 0
    depth: int = 0
    count: int = 0
    check: str = ""
    expect_rc: int | None = None  # fixed exit code; None means the oracle derives it
    early_fail: bool = False


@dataclass
class Cycle:
    jobs: list
    files: dict = field(default_factory=dict)  # relative path -> file text


WHY = {
    "binomid-deep": "classify on 22 fast-growing families, --levels, --per-prime and "
                    "1/4 early-failing random lists, bounds 30-240: core.triangle and "
                    "classify.binomid on big integers (ROADMAP fib/gq:2 cases)",
    "arith-scan": "invert, classify --only and --profile on small or recurrence terms: "
                  "numtheory trial division and lucas materialization, no triangles "
                  "(ROADMAP prefix and mobius_invert cases)",
    "render": "triangle, pyramid and verify at moderate depth in text/csv/json, 40% "
              "from file:/bfile: inputs: many small triangles, cli formatting dominates "
              "(ROADMAP pyramid fib case)",
    "cli-startup": "short CLI runs as subprocesses, one at a time, invalid specs "
                   "included: interpreter start, import binomid and cli parse "
                   "(ROADMAP triangle I --rows 1 case)",
}

IN_PROCESS = {"binomid-deep": True, "arith-scan": True, "render": True,
              "cli-startup": False}


def generate(name: str, seed: int, workdir: str) -> Cycle:
    """The job cycle of one workload; the same seed gives the same cycle."""
    rng = random.Random(f"{name}:{seed}")
    cycle = _MAKERS[name](rng, workdir)
    rng.shuffle(cycle.jobs)
    return cycle


def _classify(spec, bound, *, fmt="text", levels=None, per_prime=None, only=(),
              profile=False, early_fail=False, offset=0) -> Job:
    argv = ["classify", spec_text(spec), "--bound", str(bound)]
    if levels is not None:
        argv += ["--levels", str(levels)]
    if per_prime is not None:
        argv += ["--per-prime", str(per_prime)]
    if only:
        argv += ["--only", ",".join(only)]
    if profile:
        argv.append("--profile")
    if fmt != "text":
        argv += ["--format", fmt]
    if offset:
        argv += ["--bfile-offset", str(offset)]
    return Job(tuple(argv), "classify", spec, fmt, bound, levels, per_prime,
               tuple(only), profile, early_fail=early_fail)


# ---------------------------------------------------------------------------
# binomid-deep: sizes come from a cost model, so seeds differ in inputs but
# not in how much work a slot asks for

# One model unit per millisecond on a 2-core x86 container with CPython 3.11;
# the constants only scale bounds, so another machine gets the same inputs.
_UNITS_PER_MS = 1.49e6
_ALPHA = 1.3  # fitted: a triangle entry of b bits costs ~ _ENTRY + b**1.3
_ENTRY = 3000.0

_GROWTH = [("gq", 2), ("gq", 3), ("gq", 4), ("gab", 3, 2), ("gab", 5, 2),
           ("gab", 4, 3), ("lucas", 3, 2), ("lucas", 2, -1), ("lucas", 1, -2),
           ("lucas", 4, 3), ("lucas", 3, -1), ("fib",), ("fact",),
           ("P", ("fib",)), ("P", ("gq", 2)), ("P", ("I",)), ("pow", 2, ("fib",)),
           ("pow", 3, ("I",)), ("pow", 2, ("gq", 2)), ("product", ("fib",), ("gq", 2)),
           ("product", ("I",), ("lucas", 3, 2)), ("product", ("T",), ("fib",))]
_LEVEL_BASES = [("gq", 2), ("gq", 3), ("fib",), ("lucas", 3, 2), ("lucas", 2, -1),
                ("gab", 3, 2)]
_SMOOTH_BASES = [("fact",), ("pow", 2, ("I",)), ("pow", 3, ("I",)), ("P", ("I",)),
                 ("product", ("I",), ("fact",)), ("gq", 2), ("fib",), ("T",)]
_MIN_BOUND, _MAX_BOUND = 30, 240

_EARLY_SLOTS, _FIB_SLOTS = 12, 2
_SIZE_JITTER = 0.03


def _jitter(rng: random.Random, value: float) -> float:
    return value * rng.uniform(1 - _SIZE_JITTER, 1 + _SIZE_JITTER)


def _logs(values) -> list[float]:
    return [math.log2(abs(v)) for v in values]


def _model_prefix(logs) -> list[float]:
    """cum[N] = modelled cost of the triangle and window scan to bound N,
    from the base-2 logarithms of the terms."""
    cum, total, bits = [0.0], 0.0, 0.0
    for n, lg in enumerate(logs, start=1):
        bits += lg
        total += n * (_ENTRY + bits ** _ALPHA)
        cum.append(total)
    return cum


def _column_logs(logs, c: int) -> list[float]:
    """Logarithms of column c of the triangle: term N is [N+c-1 c]."""
    acc = [0.0]
    for lg in logs:
        acc.append(acc[-1] + lg)
    return [acc[n + c - 1] - acc[c] - acc[n - 1] for n in range(1, len(logs) - c + 2)]


def _bound_for(target_ms: float, cost) -> int:
    goal = target_ms * _UNITS_PER_MS
    for n in range(_MIN_BOUND, _MAX_BOUND + 1):
        if cost(n) >= goal:
            return n
    return _MAX_BOUND


def _shadow_costs(values, prime_bound: int):
    """Model prefixes of each prime-power shadow, and whether the terms up to
    each index factor completely over the primes up to prime_bound."""
    primes = [p for p in range(2, prime_bound + 1) if factorize(p) == {p: 1}]
    exps, smooth = {}, [True]
    for idx, v in enumerate(values):
        v = abs(v)
        for p in primes:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            if e:
                exps.setdefault(p, [0] * len(values))[idx] = e
        smooth.append(smooth[-1] and v == 1)
    shadows = [_model_prefix([e * math.log2(p) for e in col]) for p, col in exps.items()]
    return shadows, smooth


def _deep(rng: random.Random, workdir: str) -> Cycle:
    # (template, family, k): k fixes the slot's variant (levels, prime
    # bound, bit size of random terms, format), so seeds keep the traffic
    slots = ([("battery", spec, k) for k, spec in enumerate(_GROWTH)]
             + [("levels", spec, k) for k, spec in enumerate(_LEVEL_BASES)]
             + [("per_prime", spec, k) for k, spec in enumerate(_SMOOTH_BASES)]
             + [("early", None, k) for k in range(_EARLY_SLOTS)]
             + [("fib", ("fib",), k) for k in range(_FIB_SLOTS)])
    # cost targets on a geometric ladder from 25 to 200 model milliseconds,
    # dealt to the slots by a fixed permutation that no seed changes
    n = len(slots)
    ladder = random.Random(0).sample(range(n), n)
    return Cycle([_deep_job(rng, template, spec, k,
                            _jitter(rng, 25.0 * 8.0 ** (ladder[i] / (n - 1))))
                  for i, (template, spec, k) in enumerate(slots)])


def _deep_job(rng: random.Random, template: str, spec, k: int, target: float) -> Job:
    if template == "early":
        bits = 12 + 28 * k // (_EARLY_SLOTS - 1)
        vals = [rng.randint(2, 2 ** bits) for _ in range(_MAX_BOUND)]
        if k % 2:
            vals[0] = 1
        if k % 3 == 0:
            spec_of = lambda vs: ("product", ("gq", 2), ("list", tuple(vs)))
        else:
            spec_of = lambda vs: ("list", tuple(vs))
        cum = _model_prefix(_logs(terms(spec_of(vals), _MAX_BOUND)))
        bound = _bound_for(target, lambda b: cum[b])
        return _classify(spec_of(vals[:bound]), bound, early_fail=True)
    if template == "fib":
        cum = _model_prefix(_logs(terms(spec, _MAX_BOUND)))
        return _classify(spec, _bound_for(target, lambda b: cum[b]), only=("binomid",))
    if template == "levels":
        levels = 2 + k % 3
        logs = _logs(terms(spec, _MAX_BOUND + levels))
        cums = [_model_prefix(_column_logs(logs, c)) for c in range(1, levels + 1)]
        cost = lambda b: 2 * cums[0][b] + sum(c[b] for c in cums[1:])
        return _classify(spec, _bound_for(target, cost), levels=levels)
    if template == "per_prime":
        prime_bound = 20 + 40 * k // (len(_SMOOTH_BASES) - 1)
        values = terms(spec, _MAX_BOUND)
        base = _model_prefix(_logs(values))
        shadows, smooth = _shadow_costs(values, prime_bound)
        cost = lambda b: (base[b] * (2 if smooth[b] else 1)
                          + sum(s[b] for s in shadows))
        return _classify(spec, _bound_for(target, cost), per_prime=prime_bound)
    cum = _model_prefix(_logs(terms(spec, _MAX_BOUND)))
    return _classify(spec, _bound_for(target, lambda b: cum[b]),
                     fmt="json" if k % 3 == 2 else "text")


# ---------------------------------------------------------------------------
# arith-scan: every family of a template runs at that template's size

_LUCAS = [("lucas", 3, 2), ("lucas", 2, -1), ("lucas", 1, -2), ("lucas", 1, -1),
          ("lucas", 3, 1), ("lucas", 4, 3), ("lucas", 3, -1), ("lucas", 5, 6)]
_SMALL = [("I",), ("T",), ("P", ("I",)), ("pcol", 2), ("pcol", 3), ("pcol", 4),
          ("hm", 2), ("hm", 3)]
_DIVISIBLE = [("I",), ("P", ("I",)), ("P", ("T",)), ("pow", 2, ("I",))]
_DIV_PRODUCTS = [("I",), ("P", ("I",)), ("P", ("T",)), ("P", ("pcol", 2)),
                 ("P", ("hm", 2))]
_PROFILED = [("P", ("I",)), ("P", ("T",)), ("P", ("pcol", 2)), ("P", ("hm", 2)),
             ("lucas", 3, 2), ("lucas", 1, -1)]


def _arith(rng: random.Random, workdir: str) -> Cycle:
    def size(n):
        return round(_jitter(rng, n))

    fmt = lambda: rng.choice(("text", "json"))
    jobs = [_invert(spec, size(2100), fmt()) for spec in _SMALL]
    jobs += [_invert(spec, size(650), fmt()) for spec in _LUCAS]
    jobs += [_classify(spec, size(2800), only=("divisible",)) for spec in _DIVISIBLE]
    jobs += [_classify(spec, size(800), only=("divisible", "divisor_chain"))
             for spec in _LUCAS]
    jobs += [_classify(spec, size(1750), only=("divisor_product",))
             for spec in _DIV_PRODUCTS]
    jobs += [_classify(("I",), size(380), only=("gcd_sequence",)) for _ in range(2)]
    jobs += [_classify(spec, size(260), only=("gcd_sequence", "dual_gcd"))
             for spec in _LUCAS]
    jobs += [_classify(spec, size(6000), only=("multiplicative", "homomorphic"))
             for spec in (("I",), ("pow", 2, ("I",)))]
    jobs += [_classify(spec, size(150 if spec[0] == "lucas" else 280),
                       only=("divisor_product",), profile=True) for spec in _PROFILED]
    return Cycle(jobs)


def _invert(spec, count, fmt) -> Job:
    argv = ["invert", spec_text(spec), "--terms", str(count)]
    if fmt != "text":
        argv += ["--format", fmt]
    return Job(tuple(argv), "invert", spec, fmt, count=count)


# ---------------------------------------------------------------------------
# render

_UNIT_FIRST = [("I",), ("fib",), ("gq", 2), ("gq", 3), ("lucas", 3, 2),
               ("lucas", 2, -1), ("P", ("I",)), ("pcol", 2), ("T",), ("hm", 2)]
_PYRAMID_BASES = [("I",), ("fib",), ("gq", 2), ("lucas", 3, 2), ("lucas", 2, -1),
                  ("gab", 3, 2), ("pcol", 2)]
_SLOW = [("I",), ("T",), ("pcol", 2), ("pcol", 3), ("hm", 2), ("P", ("I",)),
         ("pow", 2, ("I",))]


def _file_atom(rng, workdir, files, base, count, idx):
    values = terms(base, count)
    if rng.random() < 0.5:
        path = f"{workdir}/in{idx}.txt"
        per_line = rng.randint(1, 8)
        files[path] = "\n".join(" ".join(map(str, values[i:i + per_line]))
                                for i in range(0, len(values), per_line)) + "\n"
        return ("file", path, tuple(values)), 0
    path = f"{workdir}/in{idx}.b"
    skip = rng.randint(0, 3)
    start = rng.randint(0, 50)
    lines = [f"junk {i}" for i in range(skip)] + ["# generated b-file", ""]
    lines += [f"{start + i} {v}" for i, v in enumerate(values)]
    files[path] = "\n".join(lines) + "\n"
    return ("bfile", path, tuple(values)), skip


def _render(rng: random.Random, workdir: str) -> Cycle:
    tables = [("triangle", spec, 20 + 40 * i // (len(_UNIT_FIRST) - 1))
              for i, spec in enumerate(_UNIT_FIRST)]
    tables += [("pyramid", spec, 10 + 20 * i // (len(_PYRAMID_BASES) - 1))
               for i, spec in enumerate(_PYRAMID_BASES)]
    slots = [t + (fmt,) for t in tables for fmt in ("text", "csv", "json")]
    slots += [("classify", spec, 30, ("text", "json")[i % 2]) for i, spec in enumerate(_SLOW)]
    from_files = set(rng.sample(range(len(slots)), len(slots) * 2 // 5))
    jobs, files = [], {}
    for i, (command, spec, size, fmt) in enumerate(slots):
        skip = 0
        if i in from_files:
            spec, skip = _file_atom(rng, workdir, files, spec, size, i)
        if command == "classify":
            jobs.append(_classify(spec, size, levels=2 + i % 3, offset=skip, fmt=fmt))
        else:
            jobs.append(_table(command, spec, size, fmt, skip))
    for base in _PYRAMID_BASES:
        jobs.append(Job(("verify", "slice-identity", spec_text(base), "--n-max", "7",
                         "--m-max", "5", "--k-max", "7"), "verify", base,
                        check="slice_identity", expect_rc=0))
    palindromes = [("prow", 16), ("prow", 22)]
    for half in (6, 8, 10):
        h = [rng.randint(1, 9) for _ in range(half)]
        palindromes.append(("list", tuple([1] + h + h[::-1] + [1])))
    for pal in palindromes:
        jobs.append(Job(("verify", "symmetry", spec_text(pal)), "verify", pal,
                        check="symmetry", expect_rc=0))
    return Cycle(jobs, files)


def _table(command, spec, size, fmt, offset=0) -> Job:
    flag = "--rows" if command == "triangle" else "--depth"
    argv = [command, spec_text(spec), flag, str(size), "--format", fmt]
    if offset:
        argv += ["--bfile-offset", str(offset)]
    return Job(tuple(argv), command, spec, fmt, rows=size if command == "triangle" else 0,
               depth=size if command == "pyramid" else 0)


# ---------------------------------------------------------------------------
# cli-startup

_LEAVES = [("I",), ("T",), ("fib",), ("gq", 2), ("lucas", 3, 2), ("pcol", 2), ("hm", 2)]
_BAD_SPECS = ["P(fib", "product(I)", "nope", "list:", "gq:x", "col(2,T",
              "scalar(0,I)", "const:0", "list:1,0,3", "gab:0,0", "pow(-1,I)",
              "I extra", "product(I,,T)", "lucas:1", ""]


def _nested(rng: random.Random, levels: int):
    if levels == 0:
        return rng.choice(_LEAVES)
    inner = _nested(rng, levels - 1)
    kind = rng.choice(("P", "product", "scalar", "pow", "prepend1", "interleave1",
                       "double"))
    if kind == "product":
        return ("product", inner, rng.choice(_LEAVES))
    if kind == "scalar":
        return ("scalar", rng.choice((-3, -2, 2, 3, 5)), inner)
    if kind == "pow":
        return ("pow", rng.randint(1, 2), inner)
    return (kind, inner)


def _startup(rng: random.Random, workdir: str) -> Cycle:
    jobs = []
    for _ in range(4):
        jobs.append(_table("triangle", ("I",), 1, "text"))
        jobs.append(_classify(rng.choice(_LEAVES), rng.randint(8, 20)))
        for _ in range(2):
            spec = _nested(rng, rng.randint(2, 6))
            if rng.random() < 0.5:
                jobs.append(_table("triangle", spec, rng.randint(3, 8),
                                   rng.choice(("text", "csv", "json"))))
            else:
                jobs.append(_classify(spec, rng.randint(6, 12), only=("binomid",)))
        for _ in range(2):
            bad = rng.choice(_BAD_SPECS)
            jobs.append(Job(("triangle", bad, "--rows", str(rng.randint(1, 5))),
                            "triangle", None, expect_rc=2))
    return Cycle(jobs)


_MAKERS = {"binomid-deep": _deep, "arith-scan": _arith, "render": _render,
           "cli-startup": _startup}


def input_properties(cycle: Cycle) -> dict:
    """What a later change can compare to see whether a seed moved the traffic."""
    specs = [j.spec for j in cycle.jobs if j.spec is not None]
    biggest = 0
    for job in cycle.jobs:
        if job.spec is None:
            continue
        vals = terms(job.spec, max(job.bound, job.rows, job.depth, job.count, 1))
        biggest = max([biggest] + [abs(v).bit_length() for v in vals])
    jobs = len(cycle.jobs)
    return {
        "jobs_per_cycle": jobs,
        "largest_term_bits": biggest,
        "largest_bound": max(j.bound for j in cycle.jobs),
        "largest_levels": max((j.levels or 0) for j in cycle.jobs),
        "largest_rows": max(j.rows for j in cycle.jobs),
        "largest_pyramid_depth": max(j.depth for j in cycle.jobs),
        "largest_spec_nesting": max((depth(s) for s in specs), default=0),
        "early_fail_share": sum(j.early_fail for j in cycle.jobs) / jobs,
        "finite_input_share": sum(1 for s in specs if is_finite(s)) / jobs,
        "expected_exit_2_share": sum(j.expect_rc == 2 for j in cycle.jobs) / jobs,
        "input_files": len(cycle.files),
    }
