"""The integer-sequence abstraction plus its constructors and combinators.

Sequences are 1-indexed, lazily materialized, and memoized. Every
materialized term must be a nonzero integer. `P(...)`, the pointwise
combinators and the columns of `core.col_seq` also compute their terms in
blocks, and a read of a missing term of theirs that follows the stored
terms fills ahead to about twice its index. Querying a finite sequence
past its end raises UndefinedTermError, which is deliberately distinct
from the arithmetic failure of a rule producing zero.
"""

from __future__ import annotations

import threading
from math import comb, factorial
from typing import Callable

from . import _EXPORTS
from .errors import UndefinedTermError, ZeroTermError

__all__ = [*_EXPORTS["sequences"]]


class _Terms(dict):
    """A sequence's terms: index -> nonzero term, computed on first read.

    A missing index is checked, then computed under a reentrant lock, so
    concurrent readers observe identical values and a rule may read
    earlier terms of its own sequence. Only defined indices with nonzero
    terms are stored; an undefined index or a zero term raises on every
    read. The store holds the rule but never its `Sequence`, so scans may
    read it directly and no reference cycle keeps the terms alive.

    A combinator, `P(...)` or column store also holds a block rule,
    `_block(lo, hi)`, which returns the terms lo, lo+1, ... up to hi at
    once, or a shorter list where an inner sequence could not give a term
    (or, for a column, where an entry is not an integer). A miss at
    n where n - 1 is stored (or n = 1) then fills n..2n by the block rule
    (`_fill`) before n is read, so a scan that reads 1..N in order computes
    at most about 2N terms; any other miss computes n alone. The one-term
    rule computes the index where a fill stopped, and so raises there
    exactly what a read raised before blocks.
    """

    __slots__ = ("_name", "_rule", "_length", "_lock", "_block")

    def __init__(self, name: str, rule: Callable[[int], int], length: int | None):
        super().__init__()
        self._name = name
        self._rule = rule
        self._length = length
        self._lock = threading.RLock()
        self._block = None

    def defined_at(self, n: int) -> bool:
        return n >= 1 and (self._length is None or n <= self._length)

    def __missing__(self, n: int) -> int:
        if not self.defined_at(n):
            raise UndefinedTermError(f"{self._name}: term {n} is undefined", index=n)
        with self._lock:
            if self._block is not None and (n == 1 or n - 1 in self):
                self._fill(n, 2 * n)
            value = self.get(n)
            if value is None:
                value = self._rule(n)
                if value == 0:
                    raise ZeroTermError(n)
                self[n] = value
        return value

    def _fill(self, lo: int, hi: int) -> list[int]:
        """The terms lo..hi, read where stored and computed from the first
        missing index on, up to a failure.

        A block rule computes the missing range at once and stops quietly
        before the first index whose term it cannot give, so the list is
        shorter, that index stays missing and a read of it runs the
        one-term rule. Without a block rule, the one-term rule computes
        each missing index in ascending order, and its error at the
        failing index is raised at once. Either way, every index before
        the failing one is stored and nothing from it on. Indices past the
        sequence's end are never filled.
        """
        if self._length is not None and hi > self._length:
            hi = self._length
        with self._lock:
            out = list(map(self.get, range(lo, hi + 1))) if lo in self else []
            if None in out:
                del out[out.index(None):]
            lo += len(out)
            if lo > hi:
                return out
            if self._block is not None:
                values = self._block(lo, hi)
                self.update(zip(range(lo, hi + 1), values))
                return out + values
            rule = self._rule  # `__missing__`'s lines inline: a call per term slows a small prefix
            for n in range(lo, hi + 1):
                value = self.get(n)
                if value is None:
                    value = rule(n)
                    if value == 0:
                        raise ZeroTermError(n)
                    self[n] = value
                out.append(value)
            return out


class Sequence:
    """A deterministic 1-indexed stream of nonzero integers.

    Terms come from `rule`, computed once each and kept in the sequence's
    term store (`_Terms`). A block rule, where a constructor attaches one
    to the store, computes the same terms in bulk.
    """

    __slots__ = ("name", "length", "_terms", "__weakref__")

    def __init__(self, name: str, rule: Callable[[int], int], length: int | None = None):
        if length is not None and length < 0:
            raise ValueError("length must be nonnegative")
        self.name = name
        self.length = length
        self._terms = _Terms(name, rule, length)

    def __repr__(self) -> str:
        size = "unbounded" if self.length is None else f"length {self.length}"
        return f"Sequence({self.name!r}, {size})"

    @property
    def is_finite(self) -> bool:
        return self.length is not None

    def defined_at(self, n: int) -> bool:
        return self._terms.defined_at(n)

    def term(self, n: int) -> int:
        return self._terms[n]

    def prefix(self, count: int) -> list[int]:
        """The first `count` terms as a list.

        One fill reads the stored terms and computes the rest, by the block
        rule where the sequence has one. Where a block stops, the one-term
        rule reads the index it stopped at, so a zero or undefined term
        raises what reading the terms one by one raises.
        """
        t = self._terms
        end = count if t._length is None else min(count, t._length)
        out = t._fill(1, end)
        if len(out) < end:  # a block stopped: the one-term rule reads that index
            out += map(t.__getitem__, range(len(out) + 1, end + 1))
        if end < count:
            t[end + 1]  # undefined: raises as a single read does
        return out


def _with_block(seq: Sequence, block: Callable[[int, int], list[int]]) -> Sequence:
    # attached after construction, so `Sequence.__init__` keeps its signature
    seq._terms._block = block
    return seq


def _run(f: Sequence, lo: int, hi: int) -> list[int]:
    """f's terms lo..hi, up to the first index its fill could not store."""
    t = f._terms
    try:
        return t._fill(lo, hi)
    except Exception:  # any error: the one-term read of that index raises it again
        out = list(map(t.get, range(lo, hi + 1)))
        del out[out.index(None):]
        return out


def from_list(values, name: str | None = None) -> Sequence:
    """A finite sequence from explicit terms; zero terms are rejected."""
    values = list(values)
    if not values:
        raise ValueError("a sequence needs at least one term")
    for i, v in enumerate(values, start=1):
        if v == 0:
            raise ZeroTermError(i)
    if name is None:
        name = "list:" + ",".join(str(v) for v in values)
    return Sequence(name, lambda n: values[n - 1], length=len(values))


def identity_seq() -> Sequence:
    return Sequence("I", lambda n: n)


def const_seq(c: int) -> Sequence:
    if c == 0:
        raise ValueError("constant term must be nonzero")
    return Sequence(f"const:{c}", lambda n: c)


def power_seq(c: int) -> Sequence:
    """The sequence c, c**2, c**3, ..."""
    if c == 0:
        raise ValueError("base must be nonzero")
    return Sequence(f"cpow:{c}", lambda n: c ** n)


def factorial_seq() -> Sequence:
    return Sequence("fact", factorial)


def triangular_seq() -> Sequence:
    """The triangular numbers 1, 3, 6, 10, ..."""
    return Sequence("T", lambda n: n * (n + 1) // 2)


def pascal_column(m: int) -> Sequence:
    """Unbounded column m of the classic binomial triangle: comb(n+m-1, m)."""
    if m < 0:
        raise ValueError("column index must be nonnegative")
    return Sequence(f"pcol:{m}", lambda n: comb(n + m - 1, m))


def pascal_row(m: int) -> Sequence:
    """Row m of the classic binomial triangle, finite with m+1 terms."""
    if m < 0:
        raise ValueError("row index must be nonnegative")
    return Sequence(f"prow:{m}", lambda n: comb(m, n - 1), length=m + 1)


def g_ab(a: int, b: int) -> Sequence:
    """Terms a**(n-1) + a**(n-2)*b + ... + b**(n-1); n*a**(n-1) when a = b.

    Zero terms (for instance a = -b at even n) surface on materialization.
    """
    if a == 0 and b == 0:
        raise ValueError("a and b must not both be zero")
    if a == b:
        rule = lambda n: n * a ** (n - 1)
    else:
        rule = lambda n: (a ** n - b ** n) // (a - b)
    return Sequence(f"gab:{a},{b}", rule)


def _lucas_rule(p: int, q: int) -> Callable[[int], int]:
    # U(0..n) so far; each call extends the list, so a term costs O(1) amortized
    u = [0, 1]

    def rule(n: int) -> int:
        while len(u) <= n:
            u.append(p * u[-1] - q * u[-2])
        return u[n]

    return rule


def lucas(p: int, q: int) -> Sequence:
    """Second-order recurrence U(n+2) = p*U(n+1) - q*U(n), U(0)=0, U(1)=1.

    Terms start at index 1; U(0) = 0 is internal state and never exposed.
    """
    if p == 0 and q == 0:
        raise ValueError("p and q must not both be zero")
    return Sequence(f"lucas:{p},{q}", _lucas_rule(p, q))


def fibonacci() -> Sequence:
    """Fibonacci numbers 1, 1, 2, 3, 5, ..."""
    return Sequence("fib", _lucas_rule(1, -1))


def divisor_product_of(g: Sequence) -> Sequence:
    """Term n is the product of g over all divisors of n, read ascending.

    The block rule multiplies each g(d), d <= hi, into its multiples in
    lo..hi: about (hi - lo) ln hi + hi products, and no divisor lists. It
    stops before the first index of g that g's fill could not store; every
    term before it has all its divisors there.
    """
    from .numtheory import divisors  # only divisor products need numtheory

    def rule(n: int) -> int:
        total = 1
        for d in divisors(n):
            total *= g._terms[d]
        return total

    def block(lo: int, hi: int) -> list[int]:
        values = _run(g, 1, hi)
        hi = min(hi, len(values))
        out = [1] * (hi - lo + 1)
        for d, v in enumerate(values, 1):
            if v != 1:
                for m in range(-(-lo // d) * d, hi + 1, d):
                    out[m - lo] *= v
        return out

    return _with_block(Sequence(f"P({g.name})", rule, length=g.length), block)


def _combined_length(f: Sequence, g: Sequence) -> int | None:
    if f.length is None:
        return g.length
    if g.length is None:
        return f.length
    return min(f.length, g.length)


# Combinator rules read the inner store `f._terms[n]`, which is all that
# `f.term(n)` does: the same value and the same error, with one frame less
# of recursion per level of nesting. Their block rules map the inner
# blocks (`_run`), so they stop where an inner sequence stops.


def product(f: Sequence, g: Sequence) -> Sequence:
    """Pointwise product."""
    def block(lo: int, hi: int) -> list[int]:
        a = _run(f, lo, hi)
        return [x * y for x, y in zip(a, _run(g, lo, lo + len(a) - 1))]

    return _with_block(Sequence(f"product({f.name},{g.name})",
                                lambda n: f._terms[n] * g._terms[n],
                                length=_combined_length(f, g)), block)


def scalar(c: int, f: Sequence) -> Sequence:
    """Pointwise multiple by a nonzero constant."""
    if c == 0:
        raise ValueError("scalar must be nonzero")
    return _with_block(Sequence(f"scalar({c},{f.name})", lambda n: c * f._terms[n],
                                length=f.length),
                       lambda lo, hi: [c * v for v in _run(f, lo, hi)])


def prepend_one(f: Sequence) -> Sequence:
    """The sequence 1, f_1, f_2, ..."""
    length = None if f.length is None else f.length + 1
    return _with_block(Sequence(f"prepend1({f.name})",
                                lambda n: 1 if n == 1 else f._terms[n - 1],
                                length=length),
                       lambda lo, hi: [1] * (lo == 1) + _run(f, max(lo - 1, 1), hi - 1))


def interleave_ones(f: Sequence) -> Sequence:
    """The sequence 1, f_1, 1, f_2, 1, f_3, ..."""
    def block(lo: int, hi: int) -> list[int]:
        k = (lo + 1) // 2  # f(k) is term 2k, the first even index >= lo
        inner = _run(f, k, hi // 2)
        hi = min(hi, 2 * (k + len(inner)) - 1)
        return [1 if n % 2 else inner[n // 2 - k] for n in range(lo, hi + 1)]

    length = None if f.length is None else 2 * f.length
    return _with_block(Sequence(f"interleave1({f.name})",
                                lambda n: 1 if n % 2 else f._terms[n // 2],
                                length=length), block)


def double_terms(f: Sequence) -> Sequence:
    """The sequence f_1, f_1, f_2, f_2, ..."""
    def block(lo: int, hi: int) -> list[int]:
        k = (lo + 1) // 2  # term lo is f(k)
        inner = _run(f, k, (hi + 1) // 2)
        hi = min(hi, 2 * (k + len(inner)) - 2)
        return [inner[(n + 1) // 2 - k] for n in range(lo, hi + 1)]

    length = None if f.length is None else 2 * f.length
    return _with_block(Sequence(f"double({f.name})",
                                lambda n: f._terms[(n + 1) // 2],
                                length=length), block)


def compose_power(e: int, f: Sequence) -> Sequence:
    """Pointwise e-th power; the canonical family of term-wise homomorphic maps."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return _with_block(Sequence(f"pow({e},{f.name})", lambda n: f._terms[n] ** e,
                                length=f.length),
                       lambda lo, hi: [v ** e for v in _run(f, lo, hi)])


def h_m(m: int) -> Sequence:
    """The integer-valued polynomial comb(m*x, m) sampled at x = 1, 2, 3, ..."""
    if m < 1:
        raise ValueError("m must be positive")
    return Sequence(f"hm:{m}", lambda n: comb(m * n, m))
