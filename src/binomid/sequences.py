"""The integer-sequence abstraction plus its constructors and combinators.

Sequences are 1-indexed, lazily materialized, and memoized. Every
materialized term must be a nonzero integer. Querying a finite sequence
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
    """

    __slots__ = ("_name", "_rule", "_length", "_lock")

    def __init__(self, name: str, rule: Callable[[int], int], length: int | None):
        super().__init__()
        self._name = name
        self._rule = rule
        self._length = length
        self._lock = threading.RLock()

    def defined_at(self, n: int) -> bool:
        return n >= 1 and (self._length is None or n <= self._length)

    def __missing__(self, n: int) -> int:
        if not self.defined_at(n):
            raise UndefinedTermError(f"{self._name}: term {n} is undefined", index=n)
        with self._lock:
            value = self.get(n)
            if value is None:
                value = self._rule(n)
                if value == 0:
                    raise ZeroTermError(n)
                self[n] = value
        return value


class Sequence:
    """A deterministic 1-indexed stream of nonzero integers.

    Terms come from `rule`, computed once each and kept in the sequence's
    term store (`_Terms`).
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

        The missing terms are computed in ascending order under one hold of
        the store's lock, and a zero or undefined term raises what reading
        the terms one by one raises.
        """
        t = self._terms
        end = count if t._length is None else min(count, t._length)
        out = []
        with t._lock:
            for n in range(1, end + 1):
                value = t.get(n)
                if value is None:
                    value = t._rule(n)
                    if value == 0:
                        raise ZeroTermError(n)
                    t[n] = value
                out.append(value)
        if end < count:
            t[end + 1]  # undefined: raises as a single read does
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
    """Term n is the product of g over all divisors of n, read ascending."""
    from .numtheory import divisors  # only divisor products need numtheory

    def rule(n: int) -> int:
        total = 1
        for d in divisors(n):
            total *= g._terms[d]
        return total

    return Sequence(f"P({g.name})", rule, length=g.length)


def _combined_length(f: Sequence, g: Sequence) -> int | None:
    if f.length is None:
        return g.length
    if g.length is None:
        return f.length
    return min(f.length, g.length)


# Combinator rules read the inner store `f._terms[n]`, which is all that
# `f.term(n)` does: the same value and the same error, with one frame less
# of recursion per level of nesting.


def product(f: Sequence, g: Sequence) -> Sequence:
    """Pointwise product."""
    return Sequence(f"product({f.name},{g.name})",
                    lambda n: f._terms[n] * g._terms[n],
                    length=_combined_length(f, g))


def scalar(c: int, f: Sequence) -> Sequence:
    """Pointwise multiple by a nonzero constant."""
    if c == 0:
        raise ValueError("scalar must be nonzero")
    return Sequence(f"scalar({c},{f.name})", lambda n: c * f._terms[n], length=f.length)


def prepend_one(f: Sequence) -> Sequence:
    """The sequence 1, f_1, f_2, ..."""
    length = None if f.length is None else f.length + 1
    return Sequence(f"prepend1({f.name})",
                    lambda n: 1 if n == 1 else f._terms[n - 1],
                    length=length)


def interleave_ones(f: Sequence) -> Sequence:
    """The sequence 1, f_1, 1, f_2, 1, f_3, ..."""
    length = None if f.length is None else 2 * f.length
    return Sequence(f"interleave1({f.name})",
                    lambda n: 1 if n % 2 else f._terms[n // 2],
                    length=length)


def double_terms(f: Sequence) -> Sequence:
    """The sequence f_1, f_1, f_2, f_2, ..."""
    length = None if f.length is None else 2 * f.length
    return Sequence(f"double({f.name})",
                    lambda n: f._terms[(n + 1) // 2],
                    length=length)


def compose_power(e: int, f: Sequence) -> Sequence:
    """Pointwise e-th power; the canonical family of term-wise homomorphic maps."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return Sequence(f"pow({e},{f.name})", lambda n: f._terms[n] ** e, length=f.length)


def h_m(m: int) -> Sequence:
    """The integer-valued polynomial comb(m*x, m) sampled at x = 1, 2, 3, ..."""
    if m < 1:
        raise ValueError("m must be positive")
    return Sequence(f"hm:{m}", lambda n: comb(m * n, m))
