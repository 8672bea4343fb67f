"""Independent checks of every job's output, run outside the timed loop.

All arithmetic here is the benchmark's own plain-integer code (see seqs.py):
Mobius round trips are multiplied back with math.prod, binomid witnesses are
rechecked by divmod of window products, triangle and pyramid entries are
spot-checked, and exit codes follow the README (0 holds, 1 fails, 2 bad
input). `check` returns None for a correct job and a reason otherwise.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

from seqs import (divisors, frac_text, length, mobius, prefix_products,
                  reduced, spec_text, terms)

BATTERY = ("binomid", "divisor_chain", "divisible", "dual_gcd", "gcd_sequence",
           "divisor_product", "multiplicative", "homomorphic")
SPOT_CHECKS = 24


def check(job, rc: int, out: str, err: str) -> str | None:
    if "Traceback (most recent call last)" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if job.expect_rc == 2:
        if rc != 2 or out or not err.startswith("error:"):
            return f"expected a clean exit 2, got {rc}"
        return None
    try:
        return _CHECKS[job.command](job, rc, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


# ---------------------------------------------------------------------------
# triangle and pyramid

def _entry(fact, n, k) -> str:
    return frac_text(fact[n], fact[k] * fact[n - k])


def _parse_table(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [line.split()[1:] for line in lines[1:]]


def _json_rows(doc) -> list[list[str]]:
    return [[frac_text(int(e["num"]), int(e["den"])) for e in row] for row in doc["rows"]]


def _rows(fmt: str, out: str):
    if fmt == "text":
        return _parse_table(out)
    if fmt == "csv":
        return [line.split(",") for line in out.splitlines()]
    return _json_rows(json.loads(out))


def _spot(rng, rows, fact, depth, where="") -> str | None:
    if len(rows) != depth + 1 or any(len(r) != n + 1 for n, r in enumerate(rows)):
        return f"{where}wrong triangle shape"
    picks = [(depth, k) for k in range(depth + 1)]
    picks += [(n, rng.randint(0, n)) for n in
              (rng.randint(0, depth) for _ in range(SPOT_CHECKS))]
    for n, k in picks:
        if rows[n][k] != _entry(fact, n, k):
            return f"{where}entry [{n} {k}] is {rows[n][k]}, expected {_entry(fact, n, k)}"
    return None


def _check_triangle(job, rc, out):
    if rc != 0:
        return f"exit {rc}, expected 0"
    cap = length(job.spec)
    depth = job.rows if cap is None else min(job.rows, cap)
    fact = prefix_products(terms(job.spec, depth))
    if job.fmt == "json" and json.loads(out)["source"] != spec_text(job.spec):
        return "json source is not the canonical spec"
    return _spot(random.Random(" ".join(job.argv)), _rows(job.fmt, out), fact, depth)


def _row_sequence(fact, m):
    """(row m of the base triangle as integers, None), or (None, (m, j)) for
    its first entry that is not an integer."""
    row = []
    for j in range(m + 1):
        q, r = divmod(fact[m], fact[j] * fact[m - j])
        if r:
            return None, (m, j)
        row.append(q)
    return row, None


def _check_pyramid(job, rc, out):
    cap = length(job.spec)
    depth = job.depth if cap is None else min(job.depth, cap)
    base = prefix_products(terms(job.spec, depth))
    slices = []
    for m in range(depth + 1):
        row, bad = _row_sequence(base, m)
        if bad:
            return None if rc == 1 else f"exit {rc}, expected 1 (row {m} not integral)"
        slices.append(prefix_products(row))
    if rc != 0:
        return f"exit {rc}, expected 0"
    if job.fmt == "text":
        blocks = out.rstrip("\n").split("\n\n")
        got = [_parse_table(b.split("\n", 1)[1]) for b in blocks]
    elif job.fmt == "csv":
        got = [[] for _ in range(depth + 1)]
        for line in out.splitlines():
            m, n, *vals = line.split(",")
            got[int(m)].append(vals)
    else:
        doc = json.loads(out)
        got = [_json_rows(sl) for sl in doc["slices"]]
    if len(got) != depth + 1:
        return "wrong number of slices"
    rng = random.Random(" ".join(job.argv))
    for m in sorted({0, depth, *(rng.randint(0, depth) for _ in range(6))}):
        bad = _spot(rng, got[m], slices[m], m, f"slice {m}: ")
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# classify

_LINE = re.compile(r"^(PASS|FAIL) (\S+) \(bound (\d+)\)(?:: (.*?))?(?: \[([^\[\]]*)\])?$")


def _parse_witness(text: str | None) -> dict | None:
    if text is None:
        return None
    out = {}
    for part in text.split(", "):
        m = re.match(r"^\[(-?\d+) (-?\d+)\] = (\S+)$", part)
        if part.startswith(("level ", "slice ")):
            key, value = part.split(" ")
            out[key] = value
        elif m:
            out["n"], out["k"], out["value"] = m.groups()
        else:
            key, value = part.split("=", 1)
            out[key] = value
    return out


def _json_witness(w: dict | None) -> dict | None:
    if w is None:
        return None
    return {k: frac_text(int(v["num"]), int(v["den"])) if isinstance(v, dict) else str(v)
            for k, v in w.items()}


def _strs(w: dict | None) -> dict | None:
    return None if w is None else {k: str(v) for k, v in w.items()}


def _binomid_witness(vals, eff):
    fact = prefix_products(vals[:eff])
    for n in range(2, eff + 1):
        for k in range(1, n):
            window = fact[n] // fact[n - k]
            if window % fact[k]:
                return {"m": n - k, "k": k, "n": n, "value": frac_text(window, fact[k])}
    return None


def _divisor_chain_witness(f, eff):
    for n in range(1, eff):
        if f[n] % f[n - 1]:
            return {"n": n, "f_n": f[n - 1], "f_next": f[n]}
    return None


def _divisible_witness(f, eff):
    for n in range(2, eff + 1):
        for k in divisors(n)[:-1]:
            if f[n - 1] % f[k - 1]:
                return {"k": k, "n": n, "f_k": f[k - 1], "f_n": f[n - 1]}
    return None


def _gcd_witness(f, eff):
    for m in range(1, eff + 1):
        for n in range(m + 1, eff + 1):
            got = math.gcd(f[m - 1], f[n - 1])
            expected = abs(f[math.gcd(m, n) - 1])
            if got != expected:
                return {"m": m, "n": n, "gcd": got, "expected": expected}
    return None


def _dual_gcd_witness(f, eff):
    for m in range(1, eff // 2 + 1):
        for n in range(m, eff - m + 1):
            g = math.gcd(f[m - 1], f[n - 1])
            if f[m + n - 1] % g:
                return {"m": m, "n": n, "gcd": g, "f_sum": f[m + n - 1]}
    return None


def _product_rule_witness(f, eff, coprime_only):
    for a in range(1, eff + 1):
        for b in range(a, eff // a + 1):
            if coprime_only and math.gcd(a, b) != 1:
                continue
            lhs, rhs = f[a - 1] * f[b - 1], f[a * b - 1]
            if lhs != rhs:
                return {"a": a, "b": b, "product_of_terms": lhs, "term_of_product": rhs}
    return None


def _inverse(f, eff):
    """g with f(n) = prod of g(d) over d | n, as (num, den) pairs."""
    out = []
    for n in range(1, eff + 1):
        num = den = 1
        for d in divisors(n):
            mu = mobius(n // d)
            if mu == 1:
                num *= f[d - 1]
            elif mu == -1:
                den *= f[d - 1]
        out.append(reduced(num, den))
    return out


def _divisor_product_witness(f, eff):
    for n, (num, den) in enumerate(_inverse(f, eff), start=1):
        if den != 1:
            return {"n": n, "value": frac_text(num, den)}
    return None


_WITNESS = {
    "binomid": _binomid_witness,
    "divisor_chain": _divisor_chain_witness,
    "divisible": _divisible_witness,
    "dual_gcd": _dual_gcd_witness,
    "gcd_sequence": _gcd_witness,
    "divisor_product": _divisor_product_witness,
    "multiplicative": lambda f, eff: _product_rule_witness(f, eff, True),
    "homomorphic": lambda f, eff: _product_rule_witness(f, eff, False),
}


def _every_level_witness(spec, depth, bound):
    """First violation of is_binomid_every_level in binomid's documented order:
    base rows, then pyramid slices, then each column's binomid scan."""
    cap = length(spec)
    eff_depth = depth if cap is None else min(depth, cap)
    base = prefix_products(terms(spec, max(eff_depth, bound + eff_depth)))
    slices = []
    for m in range(eff_depth + 1):
        row, bad = _row_sequence(base, m)
        if bad:
            n, k = bad
            return {"n": n, "k": k, "value": _entry(base, n, k)}
        slices.append(prefix_products(row))
    for m, fact in enumerate(slices):
        for n in range(m + 1):
            for k in range(n + 1):
                q, r = divmod(fact[n], fact[k] * fact[n - k])
                if r:
                    return {"slice": m, "n": n, "k": k, "value": _entry(fact, n, k)}
    terms_known = len(base) - 1
    for c in range(eff_depth + 1):
        col_len = None if cap is None else max(cap - c + 1, 0)
        eff = bound if col_len is None else min(bound, col_len)
        col = []
        for big_n in range(1, eff + 1):
            n = big_n + c - 1
            if n > terms_known:
                raise ValueError("not enough terms for the level oracle")
            q, r = divmod(base[n], base[c] * base[n - c])
            if r:
                return {"level": c, "n": n, "k": c, "value": _entry(base, n, c)}
            col.append(q)
        w = _binomid_witness(col, eff)
        if w:
            return {"level": c, **w}
    return None


def _reports(job, out):
    """(property, verdict, bound, witness) per report, plus the extra text lines."""
    if job.fmt == "json":
        return [(r["property"], r["verdict"], r["bound"], _json_witness(r["witness"]))
                for r in json.loads(out)], []
    reports, extra = [], []
    for line in out.splitlines():
        m = _LINE.match(line)
        if m:
            verdict = "holds_to_bound" if m.group(1) == "PASS" else "fails"
            reports.append((m.group(2), verdict, int(m.group(3)),
                            _parse_witness(m.group(4))))
        else:
            extra.append(line)
    return reports, extra


def _check_classify(job, rc, out):
    reports, extra = _reports(job, out)
    expected = [p for p in BATTERY if not job.only or p in job.only]
    if job.levels is not None and (not job.only or "binomid_every_level" in job.only):
        expected.append("binomid_every_level")
    if [r[0] for r in reports] != expected:
        return f"reports {[r[0] for r in reports]}, expected {expected}"
    cap = length(job.spec)
    eff = job.bound if cap is None else min(job.bound, cap)
    f = terms(job.spec, eff)
    for prop, verdict, bound, witness in reports:
        if prop == "binomid_every_level":
            want = _strs(_every_level_witness(job.spec, job.levels, job.bound))
        else:
            if bound != eff:
                return f"{prop}: scanned bound {bound}, expected {eff}"
            want = _strs(_WITNESS[prop](f, eff))
        if (verdict == "fails") != (want is not None) or (want and witness != want):
            return f"{prop}: {verdict} {witness}, expected {want}"
    holds = all(r[1] == "holds_to_bound" for r in reports)
    if rc != (0 if holds else 1):
        return f"exit {rc} with {'all' if holds else 'not all'} reports holding"
    want_extra = []
    if job.per_prime is not None:
        want_extra += _per_prime_lines(f, eff, job.per_prime)
    if job.profile:
        want_extra += _profile_lines(f, eff)
    if job.fmt == "text" and extra != want_extra:
        return f"extra lines {extra[:3]}..., expected {want_extra[:3]}..."
    return None


def _per_prime_lines(f, eff, prime_bound):
    """Per-prime verdicts from the paper's additive criterion on exponents."""
    primes = [p for p in range(2, prime_bound + 1)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    exps = {p: [] for p in primes}
    undecided = []
    for idx, v in enumerate(f[:eff], start=1):
        v = abs(v)
        for p in primes:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            exps[p].append(e)
        if v > 1:
            undecided.append((idx, v))
    lines = []
    for p in primes:
        if any(exps[p]):
            s = [0]
            for e in exps[p]:
                s.append(s[-1] + e)
            ok = all(s[n] >= s[k] + s[n - k] for n in range(eff + 1) for k in range(n + 1))
            lines.append(f"per-prime {p}: {'holds_to_bound' if ok else 'fails'}")
    lines += [f"per-prime undecided: term {i} has cofactor {c} beyond prime bound "
              f"{prime_bound}" for i, c in undecided]
    return lines


def _profile_lines(f, eff):
    if f[0] != 1:
        return [f"profile unavailable: reason=first term is not 1, value={f[0]}"]
    w = _divisor_product_witness(f, eff)
    if w:
        return [f"profile unavailable: reason=not a divisor-product, n={w['n']}, "
                f"value={w['value']}"]
    return [f"profile {name}: {'holds_to_bound' if _WITNESS[name](f, eff) is None else 'fails'}"
            f" (agrees with direct classifier)"
            for name in ("multiplicative", "homomorphic", "gcd_sequence")]


# ---------------------------------------------------------------------------
# invert and verify

def _check_invert(job, rc, out):
    if rc != 0:
        return f"exit {rc}, expected 0"
    cap = length(job.spec)
    count = job.count if cap is None else min(job.count, cap)
    f = terms(job.spec, count)
    if job.fmt == "json":
        g = [Fraction(int(t["num"]), int(t["den"])) for t in json.loads(out)["terms"]]
    else:
        g = [Fraction(tok) for tok in out.split()]
    if len(g) != count:
        return f"{len(g)} terms, expected {count}"
    for n in range(1, count + 1):
        if math.prod(g[d - 1] for d in divisors(n)) != f[n - 1]:
            return f"round trip fails at term {n}"
    return None


def _check_verify(job, rc, out):
    if rc != 0 or out != f"PASS {job.check}\n":
        return f"exit {rc} with {out.strip()!r}, expected PASS {job.check}"
    return None


_CHECKS = {"triangle": _check_triangle, "pyramid": _check_pyramid,
           "classify": _check_classify, "invert": _check_invert,
           "verify": _check_verify}
