"""Mechanical checkers for the triangle, column, and pyramid identities.

The generic machinery works with rational monomials over indeterminates
x_1, x_2, ...: the divisor-product of the variable stream has factorials
that are monomials, so every column-binomial entry is a monomial quotient
and an exponent vector is all the structure required. The exhaustive
checkers here are "none expected" regression nets: a reported violation
means the arithmetic core is broken, not that the identity is in doubt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import _EXPORTS
from .core import _rows, fbinom, fbinom_values, ffactorial
from .errors import InternalCheckError
from .sequences import Sequence, h_m, pascal_column

__all__ = [*_EXPORTS["verify"]]


@dataclass(frozen=True)
class CheckResult:
    check: str
    ok: bool
    status: str
    witness: dict | None = None


class ExponentVector:
    """A finitely supported map from variable index to integer exponent.

    Represents the rational monomial that is the product of x_r to the
    stored exponents; zero exponents are dropped, so equality is equality
    of the supported entries.
    """

    __slots__ = ("_exps",)

    def __init__(self, exps=None):
        clean = {}
        if exps:
            for r, e in exps.items():
                if r < 1:
                    raise ValueError("variable indices start at 1")
                if e:
                    clean[r] = e
        self._exps = clean

    def __getitem__(self, r: int) -> int:
        return self._exps.get(r, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._exps.items())

    def support(self) -> list[int]:
        return sorted(self._exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self._exps == other._exps

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"ExponentVector({dict(self.items())})"

    def __mul__(self, other: "ExponentVector") -> "ExponentVector":
        merged = dict(self._exps)
        for r, e in other._exps.items():
            merged[r] = merged.get(r, 0) + e
        return ExponentVector(merged)

    def __pow__(self, e: int) -> "ExponentVector":
        return ExponentVector({r: x * e for r, x in self._exps.items()})

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self._exps.values())

    def specialize(self, values) -> Fraction:
        """Exact product of values(r) ** exponent over the support.

        Accepts a Sequence or any callable from index to integer.
        """
        at = values.term if isinstance(values, Sequence) else values
        num = 1
        den = 1
        for r, e in self._exps.items():
            v = at(r)
            if e > 0:
                num *= v ** e
            else:
                den *= v ** (-e)
        return Fraction(num, den)


def generic_factorial_exponents(n: int) -> ExponentVector:
    """Exponents of the n-th factorial of the generic divisor-product:
    x_r appears with exponent n // r."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ExponentVector({r: n // r for r in range(1, n + 1)})


def delta(m: int, r: int, j: int) -> int:
    """floor((m+j)/r) - floor(m/r) - floor(j/r); always 0 or 1."""
    if r < 1:
        raise ValueError("r must be positive")
    if m < 0 or j < 0:
        raise ValueError("m and j must be nonnegative")
    value = (m + j) // r - m // r - j // r
    if value not in (0, 1):
        raise InternalCheckError(f"delta out of range at m={m}, r={r}, j={j}")
    return value


def check_delta_pattern(m: int, r: int, length: int) -> CheckResult:
    """The delta sequence starts with r-m zeros then m ones, with period r."""
    if not 0 <= m < r:
        raise ValueError("need 0 <= m < r")
    if length < r:
        raise ValueError("length must cover at least one period")
    for j in range(length):
        expected = 1 if j % r >= r - m else 0
        if delta(m, r, j) != expected:
            return CheckResult("delta_pattern", False, "pattern_violated",
                               {"m": m, "r": r, "j": j})
    return CheckResult("delta_pattern", True, "holds")


def check_window_minimality(m: int, r: int, n_max: int, a_max: int) -> CheckResult:
    """No window of n consecutive delta values sums below the initial window."""
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    if n_max < 1 or a_max < 1:
        raise ValueError("window ranges must be positive")
    sums = [0]
    for j in range(n_max + a_max):
        sums.append(sums[-1] + delta(m, r, j))
    for n in range(1, n_max + 1):
        initial = sums[n]
        for a in range(1, a_max + 1):
            window = sums[a + n] - sums[a]
            if window < initial:
                return CheckResult("window_minimality", False, "window_below_initial",
                                   {"m": m, "r": r, "n": n, "a": a,
                                    "window": window, "initial": initial})
    return CheckResult("window_minimality", True, "holds")


def generic_pyramid_entry(m: int, n: int, k: int) -> ExponentVector:
    """Exponent vector of the [n k] entry over column m of the generic
    divisor-product triangle.

    Component r is the sum of delta(m, r, .) over the window [n-k, n-1]
    minus its sum over [0, k-1]. Every component must be nonnegative; a
    negative one is a build-stopping arithmetic failure.
    """
    if m < 0:
        raise ValueError("column index must be nonnegative")
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    comps = {}
    for r in range(1, m + n):
        e = sum(delta(m, r, j) for j in range(n - k, n))
        e -= sum(delta(m, r, j) for j in range(k))
        if e < 0:
            raise InternalCheckError(
                f"negative exponent {e} for x_{r} in column-{m} entry [{n} {k}]")
        if e:
            comps[r] = e
    return ExponentVector(comps)


def check_symmetry(f: Sequence) -> CheckResult:
    """For a palindromic finite sequence, column c of its triangle equals
    row n-c, as exact rationals. Asymmetric input is rejected. The entries
    are the row kernel's: integers compare as plain ints."""
    if f.length is None:
        raise ValueError("symmetry check needs a finite sequence")
    n = f.length
    for k in range(1, n + 1):
        if f.term(k) != f.term(n + 1 - k):
            raise ValueError(f"sequence is not symmetric at k={k}")
    rows = list(_rows(f.prefix(n)))
    for c in range(n + 1):
        for k in range(n - c + 1):
            col_entry = rows[c + k][c]
            row_entry = rows[n - c][k]
            if col_entry != row_entry:
                return CheckResult("symmetry", False, "rotation_violated",
                                   {"c": c, "k": k, "column_value": Fraction(col_entry),
                                    "row_value": Fraction(row_entry)})
    return CheckResult("symmetry", True, "holds")


def check_slice_identity(f: Sequence, n_max: int, m_max: int, k_max: int) -> CheckResult:
    """[n k] over column m equals [n k] over row n+m-1, and also equals the
    [k+m m] entry of the same row triangle, exactly, over the whole range.
    The values come from the kernel rows of one triangle of f, after
    fetching its terms, so a short finite input raises rather than capping
    the triangle, and the products over integral entries are plain-int
    products."""
    if n_max < 1 or m_max < 0 or k_max < 0:
        raise ValueError("need n_max >= 1, m_max >= 0 and k_max >= 0")
    if f.term(1) != 1:
        raise ValueError(f"{f.name}: first term must be 1")
    rows = list(_rows(f.prefix(n_max + m_max - 1)))
    for m in range(m_max + 1):
        colvals = [rows[N + m - 1][m] for N in range(1, n_max + 1)]
        for n in range(1, n_max + 1):
            rowvals = rows[n + m - 1]
            for k in range(min(n, k_max) + 1):
                lhs = fbinom_values(colvals, n, k)
                rhs = fbinom_values(rowvals, n, k)
                alt = fbinom_values(rowvals, k + m, m)
                if lhs != rhs or lhs != alt:
                    return CheckResult("slice_identity", False, "slice_mismatch",
                                       {"n": n, "k": k, "m": m,
                                        "column_value": lhs, "row_value": rhs,
                                        "note_value": alt})
    return CheckResult("slice_identity", True, "holds")


def _bareiss_det(matrix: list[list[int]]) -> int:
    # fraction-free elimination; every // below is exact by construction
    a = [row[:] for row in matrix]
    size = len(a)
    sign = 1
    prev = 1
    for i in range(size - 1):
        if a[i][i] == 0:
            for r in range(i + 1, size):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[size - 1][size - 1]


def check_determinant_identity(n: int, m: int, k: int) -> CheckResult:
    """det[comb(n+i, m+j)] for i, j < k equals the [n-m+k k] entry over the
    m-th binomial-column sequence."""
    if not (n >= m >= 1):
        raise ValueError("need n >= m >= 1")
    if k < 1:
        raise ValueError("k must be positive")
    matrix = [[comb(n + i, m + j) for j in range(k)] for i in range(k)]
    det = _bareiss_det(matrix)
    expected = fbinom(pascal_column(m), n - m + k, k)
    if expected != det:
        return CheckResult("determinant_identity", False, "determinant_mismatch",
                           {"n": n, "m": m, "k": k, "determinant": det,
                            "binomial": expected})
    return CheckResult("determinant_identity", True, "holds")


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def check_recurrence_step(f: Sequence, n: int, k: int,
                          u: int | None = None, v: int | None = None) -> CheckResult:
    """If f(n+1) = u*f(n-k+1) + v*f(k) then [n+1 k] = u*[n k] + v*[n k-1].

    With u, v omitted, a certificate pair is solved from the two-term
    relation; when none exists the result is "no_certificate" rather than
    a refutation. A false hypothesis is reported separately from a false
    conclusion.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if (u is None) != (v is None):
        raise ValueError("supply both u and v, or neither")
    a = f.term(n - k + 1)
    b = f.term(k)
    target = f.term(n + 1)
    if u is None:
        g, x, y = _extended_gcd(a, b)
        if target % g:
            return CheckResult("recurrence_step", False, "no_certificate",
                               {"n": n, "k": k, "gcd": g, "target": target})
        factor = target // g
        u = x * factor
        v = y * factor
    elif a * u + b * v != target:
        return CheckResult("recurrence_step", False, "hypothesis_failed",
                           {"n": n, "k": k, "u": u, "v": v,
                            "lhs": a * u + b * v, "rhs": target})
    lhs = fbinom(f, n + 1, k)
    rhs = u * fbinom(f, n, k) + v * fbinom(f, n, k - 1)
    if lhs != rhs:
        return CheckResult("recurrence_step", False, "conclusion_failed",
                           {"n": n, "k": k, "u": u, "v": v,
                            "lhs": lhs, "rhs": rhs})
    return CheckResult("recurrence_step", True, "holds", {"u": u, "v": v})


def check_hm_identity(m: int, n: int, k: int) -> CheckResult:
    """The factorial of comb(m*x, m) is (mn)!/(m!)^n and its [n k] entry is
    the plain binomial comb(mn, mk), both exactly."""
    if m < 1:
        raise ValueError("m must be positive")
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    seq = h_m(m)
    fact = ffactorial(seq, n)
    quotient, remainder = divmod(factorial(m * n), factorial(m) ** n)
    if remainder or fact != quotient:
        return CheckResult("hm_identity", False, "factorial_mismatch",
                           {"m": m, "n": n, "factorial": fact,
                            "expected": quotient, "remainder": remainder})
    entry = fbinom(seq, n, k)
    expected = comb(m * n, m * k)
    if entry != expected:
        return CheckResult("hm_identity", False, "binomial_mismatch",
                           {"m": m, "n": n, "k": k, "entry": entry,
                            "expected": expected})
    return CheckResult("hm_identity", True, "holds")
