"""The benchmark's own model of binomid sequence specs.

A spec is a nested tuple such as ("P", ("gq", 2)). `spec_text` prints it in
binomid's spec grammar and `terms` evaluates it with plain integer code
written here, never with binomid's, so the oracle stays independent of the
program it checks.
"""

from __future__ import annotations

from math import comb, gcd, isqrt


COMBINATORS = {"P", "product", "scalar", "pow", "prepend1", "interleave1",
               "double", "col", "row"}


def spec_text(node) -> str:
    kind = node[0]
    if kind in ("I", "T", "fib", "fact"):
        return kind
    if kind == "list":
        return "list:" + ",".join(map(str, node[1]))
    if kind in ("file", "bfile"):
        return f"{kind}:{node[1]}"
    if kind in COMBINATORS:
        return kind + "(" + ",".join(
            spec_text(a) if isinstance(a, tuple) else str(a) for a in node[1:]) + ")"
    return kind + ":" + ",".join(map(str, node[1:]))


def depth(node) -> int:
    """Nesting depth of combinators; an atom has depth 0."""
    subs = [a for a in node[1:] if isinstance(a, tuple)]
    return 1 + max(map(depth, subs)) if node[0] in COMBINATORS else 0


def length(node) -> int | None:
    """Number of terms, or None for an unbounded sequence."""
    kind = node[0]
    if kind == "list":
        return len(node[1])
    if kind in ("file", "bfile"):
        return len(node[2])
    if kind == "prow":
        return node[1] + 1
    if kind == "product":
        lengths = [n for n in (length(node[1]), length(node[2])) if n is not None]
        return min(lengths) if lengths else None
    if kind in ("P", "double", "interleave1", "prepend1"):
        inner = length(node[1])
        if inner is None:
            return None
        return {"P": inner, "double": 2 * inner, "interleave1": 2 * inner,
                "prepend1": inner + 1}[kind]
    if kind in ("scalar", "pow"):
        return length(node[2])
    if kind == "col":
        inner = length(node[2])
        return None if inner is None else max(inner - node[1] + 1, 0)
    if kind == "row":
        return node[1] + 1
    return None


def is_finite(node) -> bool:
    return length(node) is not None


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def factorize(n: int) -> dict[int, int]:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def prefix_products(values) -> list[int]:
    out = [1]
    for v in values:
        out.append(out[-1] * v)
    return out


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def frac_text(num: int, den: int) -> str:
    """binomid's rendering of an exact rational: "a" or "a/b"."""
    num, den = reduced(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


def _integral_row_entries(base, m: int) -> list[int]:
    fact = prefix_products(terms(base, m))
    row = []
    for j in range(m + 1):
        q, r = divmod(fact[m], fact[j] * fact[m - j])
        if r:
            raise ValueError(f"row {m} entry {j} is not an integer")
        row.append(q)
    return row


def terms(node, count: int) -> list[int]:
    """The first min(count, length) terms of the spec."""
    n = count if length(node) is None else min(count, length(node))
    kind = node[0]
    if kind == "I":
        return list(range(1, n + 1))
    if kind == "T":
        return [i * (i + 1) // 2 for i in range(1, n + 1)]
    if kind == "fact":
        return prefix_products(range(1, n + 1))[1:]
    if kind == "fib":
        return _recurrence(1, -1, n)
    if kind == "lucas":
        return _recurrence(node[1], node[2], n)
    if kind == "gq":
        q = node[1]
        return [i if q == 1 else (q ** i - 1) // (q - 1) for i in range(1, n + 1)]
    if kind == "gab":
        a, b = node[1], node[2]
        if a == b:
            return [i * a ** (i - 1) for i in range(1, n + 1)]
        return [(a ** i - b ** i) // (a - b) for i in range(1, n + 1)]
    if kind == "pcol":
        return [comb(i + node[1] - 1, node[1]) for i in range(1, n + 1)]
    if kind == "prow":
        return [comb(node[1], i - 1) for i in range(1, n + 1)]
    if kind == "hm":
        return [comb(node[1] * i, node[1]) for i in range(1, n + 1)]
    if kind == "const":
        return [node[1]] * n
    if kind == "cpow":
        return [node[1] ** i for i in range(1, n + 1)]
    if kind == "list":
        return list(node[1][:n])
    if kind in ("file", "bfile"):
        return list(node[2][:n])
    if kind == "P":
        g = terms(node[1], n)
        out = []
        for i in range(1, n + 1):
            total = 1
            for d in divisors(i):
                total *= g[d - 1]
            out.append(total)
        return out
    if kind == "product":
        return [a * b for a, b in zip(terms(node[1], n), terms(node[2], n))]
    if kind == "scalar":
        return [node[1] * v for v in terms(node[2], n)]
    if kind == "pow":
        return [v ** node[1] for v in terms(node[2], n)]
    if kind == "prepend1":
        return ([1] + terms(node[1], n - 1))[:n]
    if kind == "interleave1":
        inner = terms(node[1], (n + 1) // 2)
        return [1 if i % 2 else inner[i // 2 - 1] for i in range(1, n + 1)]
    if kind == "double":
        inner = terms(node[1], (n + 1) // 2)
        return [inner[(i + 1) // 2 - 1] for i in range(1, n + 1)]
    if kind == "col":
        j = node[1]
        fact = prefix_products(terms(node[2], n + j - 1))
        out = []
        for i in range(1, n + 1):
            q, r = divmod(fact[i + j - 1], fact[j] * fact[i - 1])
            if r:
                raise ValueError(f"column {j} entry {i} is not an integer")
            out.append(q)
        return out
    if kind == "row":
        return _integral_row_entries(node[2], node[1])[:n]
    raise ValueError(f"unknown spec kind {kind!r}")


def _recurrence(p: int, q: int, n: int) -> list[int]:
    out, prev, cur = [], 0, 1
    for _ in range(n):
        out.append(cur)
        prev, cur = cur, p * cur - q * prev
    return out
