"""Exact integer arithmetic helpers and cyclotomic polynomials.

Everything in this module works over plain Python integers. There is no
floating point and no rounding anywhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import isqrt

from . import _EXPORTS
from .errors import InternalCheckError

__all__ = [*_EXPORTS["numtheory"], "smallest_prime_factors"]


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for word-sized inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start:limit + 1:p] = bytearray(len(range(start, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def _factorization(n: int) -> list[tuple[int, int]]:
    # trial division; inputs here are small enough that nothing fancier pays off
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n, in increasing order."""
    _check_positive(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """The Mobius function: 0 on non-squarefree n, else (-1)**(prime count)."""
    _check_positive(n)
    factors = _factorization(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    _check_positive(n)
    for p, _ in _factorization(n):
        n = n // p * (p - 1)
    return n


def valuation(p: int, n: int) -> int:
    """Largest e with p**e dividing n; the sign of n is ignored."""
    if n == 0:
        raise ValueError("valuation is undefined at 0")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = abs(n)
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def prime_power_base(n: int) -> int | None:
    """p when n = p**k for some k >= 1, else None (and None for n = 1)."""
    _check_positive(n)
    factors = _factorization(n)
    return factors[0][0] if len(factors) == 1 else None


def smallest_prime_factors(limit: int) -> list[int]:
    """`spf[n]` is the smallest prime factor of each 2 <= n <= limit.

    spf[0] = 0 and spf[1] = 1. It takes O(limit log log limit) steps and
    O(limit) memory, after which each n factors in O(log n) lookups.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    spf = list(range(limit + 1))
    # largest prime first, so each multiple keeps its smallest prime
    for p in reversed(primes_up_to(isqrt(limit))):
        spf[p * p::p] = [p] * len(range(p * p, limit + 1, p))
    return spf


@dataclass(frozen=True)
class CyclotomicPoly:
    """One cyclotomic polynomial; coefficients with the constant term first."""

    index: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_homogeneous(self, a: int, b: int) -> int:
        """Value of the two-variable form: sum of c_i * a**i * b**(deg - i)."""
        d = self.degree
        apow = 1
        total = 0
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * apow * b ** (d - i)
            apow *= a
        return total


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division over Z, constant term first; the remainder must vanish
    work = list(num)
    qlen = len(work) - len(den) + 1
    quotient = [0] * qlen
    lead = den[-1]
    for i in range(qlen - 1, -1, -1):
        c = work[i + len(den) - 1]
        if c % lead:
            raise InternalCheckError("inexact leading coefficient in polynomial division")
        q = c // lead
        quotient[i] = q
        if q:
            for j, dc in enumerate(den):
                work[i + j] -= q * dc
    if any(work):
        raise InternalCheckError("nonzero remainder in exact polynomial division")
    return quotient


_cyclo_lock = threading.RLock()
_cyclo_cache: dict[int, CyclotomicPoly] = {}


def cyclotomic(n: int) -> CyclotomicPoly:
    """Coefficients of the n-th cyclotomic polynomial.

    Computed by exact division of x**n - 1 by the polynomials at the proper
    divisors of n, and memoized for the lifetime of the process.
    """
    _check_positive(n)
    with _cyclo_lock:
        poly = _cyclo_cache.get(n)
        if poly is None:
            coeffs = [-1] + [0] * (n - 1) + [1]
            for d in divisors(n):
                if d != n:
                    coeffs = _poly_div_exact(coeffs, cyclotomic(d).coeffs)
            poly = CyclotomicPoly(n, tuple(coeffs))
            _validate_cyclotomic(poly)
            _cyclo_cache[n] = poly
        return poly


def _validate_cyclotomic(poly: CyclotomicPoly) -> None:
    n = poly.index
    if poly.degree != euler_phi(n):
        raise InternalCheckError(f"cyclotomic({n}) has degree {poly.degree}")
    if poly.coeffs[-1] != 1:
        raise InternalCheckError(f"cyclotomic({n}) is not monic")
    if n > 1 and poly.coeffs != poly.coeffs[::-1]:
        raise InternalCheckError(f"cyclotomic({n}) is not palindromic")
    if poly.coeffs[0] != (-1 if n == 1 else 1):
        raise InternalCheckError(f"cyclotomic({n}) has constant term {poly.coeffs[0]}")


def cyclotomic_eval(n: int, a: int, b: int) -> int:
    """Exact value of the homogeneous two-variable cyclotomic form at (a, b)."""
    return cyclotomic(n).eval_homogeneous(a, b)
