"""Generalized factorials, binomial coefficients, triangles, and pyramids.

All entries are exact: integrality is a property to query, never an
assumption of storage. The row kernel (`_row`, `_rows`) is the one source
of triangle entries; it yields a plain `int` for an integral entry and a
`Fraction` only for a non-integral one, and the public `Triangle` and
`Pyramid` hold every entry as a `Fraction`. Nothing here uses floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import _EXPORTS
from .errors import NonIntegralEntryError, UndefinedTermError
from .sequences import Sequence, _run, _with_block, from_list

ExactRational = Fraction

__all__ = [*_EXPORTS["core"]]


def ffactorial(f: Sequence, n: int) -> int:
    """Product of the first n terms; the empty product is 1."""
    if n < 0:
        raise UndefinedTermError(f"factorial of negative index {n}", index=n)
    return prod(f.prefix(n))


def fbinom(f: Sequence, n: int, k: int) -> Fraction:
    """The generalized binomial [n k] over f, as a reduced exact rational.

    Undefined (not zero) when k > n or an index is negative.
    """
    if n < 0 or k < 0 or k > n:
        raise UndefinedTermError(f"[{n} {k}] is undefined")
    num = 1
    for i in range(n - k + 1, n + 1):
        num *= f.term(i)
    den = 1
    for i in range(1, k + 1):
        den *= f.term(i)
    return Fraction(num, den)


def fbinom_values(values, n: int, k: int) -> Fraction:
    """[n k] over an explicit 1-indexed list of exact nonzero values.

    The list may hold integers or fractions; the result is exact either way.
    """
    if n < 0 or k < 0 or k > n:
        raise UndefinedTermError(f"[{n} {k}] is undefined")
    if n > len(values):
        raise UndefinedTermError(f"[{n} {k}] needs {n} terms, have {len(values)}")
    return Fraction(prod(values[n - k:n]), prod(values[:k]))


@dataclass(frozen=True)
class Triangle:
    """The triangular array of [n k] entries for 0 <= k <= n <= depth."""

    source: Sequence
    depth: int
    rows: tuple[tuple[Fraction, ...], ...]

    def entry(self, n: int, k: int) -> Fraction:
        if not (0 <= k <= n <= self.depth):
            raise UndefinedTermError(f"[{n} {k}] outside triangle of depth {self.depth}")
        return self.rows[n][k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        if not (0 <= n <= self.depth):
            raise UndefinedTermError(f"row {n} outside triangle of depth {self.depth}")
        return self.rows[n]

    def first_non_integral(self) -> tuple[int, int, Fraction] | None:
        """(n, k, value) of the first non-integer entry in row order, or None."""
        for n, row in enumerate(self.rows):
            for k, value in enumerate(row):
                if value.denominator != 1:
                    return (n, k, value)
        return None

    def is_integral(self) -> bool:
        return self.first_non_integral() is None


def _row(term, n: int, last: int):
    """Yield [n k] for k = 0..last: the triangle kernel.

    Walks the row by [n k] = [n k-1] * f(n-k+1) / f(k), with `term(i)` giving
    f(i). While the entries are integers the step is an exact divmod on
    plain integers the size of the entries; from a non-integral entry on it
    carries Fraction(num, den), which returns to divmod if a later entry
    reduces to an integer. An integral entry is yielded as a plain int and
    a non-integral one as a Fraction, so `type(v) is int` exactly when
    [n k] is an integer. Terms are fetched in the order the walk needs
    them, f(n-k+1) then f(k), so a consumer that stops early has not
    touched the rest of the row's terms.
    """
    num, den = 1, 1
    yield 1
    for k in range(1, last + 1):
        top = num * term(n - k + 1)
        bottom = den * term(k)
        if den == 1:
            quotient, rem = divmod(top, bottom)
            if not rem:
                num = quotient
                yield quotient
                continue
        value = Fraction(top, bottom)
        num, den = value.numerator, value.denominator
        yield num if den == 1 else value


def _rows(terms: list[int], start: int = 0):
    """Yield rows start..len(terms) of the triangle over the 1-indexed terms.

    Each row is a list of kernel entries (ints, and Fractions where an
    entry is not an integer), so every step multiplies and divides
    integers the size of the entries, never factorials; the kernel walks
    half the row and the rest is its mirror image, since [n k] = [n n-k].
    """
    term = [0, *terms].__getitem__
    for n in range(start, len(terms) + 1):
        half = list(_row(term, n, n // 2))
        yield half + half[:(n + 1) // 2][::-1]


def _triangle_terms(f: Sequence, depth: int) -> list[int]:
    """The terms a triangle of the given depth is built over, fetched in
    index order; the depth is capped at a finite sequence's length."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return f.prefix(depth if f.length is None else min(depth, f.length))


def triangle(f: Sequence, depth: int) -> Triangle:
    """Build the triangle to the given depth, capped at a finite length.

    The terms are materialized once, in index order, and the rows come
    from the row kernel (`_rows`), the one source of triangle entries,
    with every entry held as a Fraction. `is_binomid`, the checkers and
    the CLI read the kernel's rows directly.
    """
    terms = _triangle_terms(f, depth)
    return Triangle(f, len(terms), tuple(tuple(map(Fraction, row))
                                         for row in _rows(terms)))


def _require_unit_first(f: Sequence) -> None:
    first = f.term(1)
    if first != 1:
        raise ValueError(f"{f.name}: first term must be 1, got {first}")


def row_seq(f: Sequence, m: int) -> Sequence:
    """Row m of the triangle of f, as a finite sequence of m+1 integers.

    Fails with the offending entry if any required value is non-integral.
    """
    if m < 0:
        raise ValueError("row index must be nonnegative")
    _require_unit_first(f)
    terms = []
    for j, value in enumerate(_row(f.term, m, m)):
        if type(value) is not int:
            raise NonIntegralEntryError(m, j, value)
        terms.append(value)
    return from_list(terms, name=f"row({m},{f.name})")


def col_seq(f: Sequence, j: int) -> Sequence:
    """Column j of the triangle of f: term N is [N+j-1 j].

    Lazy; a non-integral entry surfaces on materialization with its witness.
    Column 1 reproduces f itself when f starts with 1.

    Term N is f(N)...f(N+j-1) / (f(1)...f(j)). The block rule computes
    term lo that way and each later term by the running quotient [N+j j] =
    [N+j-1 j] f(N+j) / f(N), one divmod per term, reading f's terms in
    ascending order; column 0 reads none. It stops quietly before the first
    index whose window of f cannot be read or whose entry is not an
    integer, and the one-term rule (`fbinom`) then raises there what it
    raises on a read of that index alone.
    """
    if j < 0:
        raise ValueError("column index must be nonnegative")
    _require_unit_first(f)
    length = None if f.length is None else max(f.length - j + 1, 0)

    def rule(n: int) -> int:
        value = fbinom(f, n + j - 1, j)
        if value.denominator != 1:
            raise NonIntegralEntryError(n + j - 1, j, value)
        return value.numerator

    def block(lo: int, hi: int) -> list[int]:
        if j == 0:
            return [1] * (hi - lo + 1)
        den = _run(f, 1, j)
        terms = _run(f, lo, hi + j - 1) if len(den) == j else []
        out = []
        if len(terms) < j:
            return out
        value, rem = divmod(prod(terms[:j]), prod(den))
        for i in range(j, len(terms) + 1):  # value is term lo + i - j
            if rem:
                break
            out.append(value)
            if i < len(terms):
                value, rem = divmod(value * terms[i], terms[i - j])
        return out

    return _with_block(Sequence(f"col({j},{f.name})", rule, length=length), block)


@dataclass(frozen=True)
class Pyramid:
    """Stack of triangles built from the rows of a base triangle.

    Slice m is the triangle of row m, kept to depth m, so each slice has
    m+1 entries along every edge and all boundary entries are 1.
    """

    source: Sequence
    depth: int
    slices: tuple[Triangle, ...]

    def slice(self, m: int) -> Triangle:
        if not (0 <= m <= self.depth):
            raise UndefinedTermError(f"slice {m} outside pyramid of depth {self.depth}")
        return self.slices[m]

    def first_non_integral(self) -> tuple[int, int, int, Fraction] | None:
        """(m, n, k, value) of the first non-integer entry, or None."""
        for m, tri in enumerate(self.slices):
            bad = tri.first_non_integral()
            if bad is not None:
                return (m,) + bad
        return None


def pyramid(f: Sequence, depth: int) -> Pyramid:
    """Stack the row triangles of f up to the given depth.

    Requires f to start with 1; other inputs are rejected, not renormalized.
    Entries stay exact rationals: integrality is a result to classify, not
    a precondition of storage.
    """
    slices = tuple(triangle(base, m) for m, base in enumerate(_slice_bases(f, depth)))
    return Pyramid(f, depth, slices)


def _slice_bases(f: Sequence, depth: int) -> list[Sequence]:
    """Rows 0..depth of the triangle of f: slice m is the triangle over row m.

    Every row is built before any slice, so a non-integral row raises
    before a slice is read.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _require_unit_first(f)
    return [row_seq(f, m) for m in range(depth + 1)]
