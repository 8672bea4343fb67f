"""Bounded decision procedures for the divisibility hierarchy.

Every classifier scans an explicit finite range and returns a report whose
verdict is honest about that range: a pass says "holds_to_bound", never
more. A failing report carries a witness that can be rechecked by
evaluating the defining condition at the named indices. Witnesses are the
lexicographically first violation in scan order (outer index ascending,
then inner index), so they are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import _EXPORTS
from .core import _rows, col_seq, pyramid, triangle
from .errors import InternalCheckError, NonIntegralEntryError
from .numtheory import divisors, primes_up_to, smallest_prime_factors
from .sequences import Sequence

HOLDS = "holds_to_bound"
FAILS = "fails"

# the property battery in report order; property `name` is decided by `is_<name>`
PROPERTIES = ("binomid", "divisor_chain", "divisible", "dual_gcd",
              "gcd_sequence", "divisor_product", "multiplicative", "homomorphic")

__all__ = [*_EXPORTS["classify"], "PROPERTIES"]


@dataclass(frozen=True)
class ClassificationReport:
    property: str
    bound: int
    verdict: str
    witness: dict | None = None
    effective_bound: int | None = None  # set when the scan had to shrink
    note: str | None = None

    def holds(self) -> bool:
        return self.verdict == HOLDS

    def scanned_bound(self) -> int:
        return self.bound if self.effective_bound is None else self.effective_bound


def _capped(f: Sequence, bound: int) -> tuple[int, int | None, str | None]:
    if bound < 1:
        raise ValueError("bound must be positive")
    if f.length is not None and f.length < bound:
        return f.length, f.length, f"finite sequence: bound reduced to {f.length}"
    return bound, None, None


def _report(prop: str, bound: int, witness: dict | None, reduced: int | None = None,
            note: str | None = None) -> ClassificationReport:
    return ClassificationReport(prop, bound, HOLDS if witness is None else FAILS,
                                witness, reduced, note)


def _certified(t: list[int], n: int, residuals: _Residuals) -> bool:
    """The dual-gcd step: is row n integral whenever row n-1 is?

    `t[i]` is f(i). With g = gcd(f(k), f(n-k)) = u f(k) + v f(n-k), the
    identities [n k] f(k) = [n-1 k-1] f(n) and [n k] f(n-k) = [n-1 k] f(n)
    give [n k] g = f(n) (u [n-1 k-1] + v [n-1 k]). So if g divides f(n)
    for every 1 <= k <= n/2, an integral row n-1 makes row n integral.
    A k where g does not divide f(n) is decided by the residual step on
    r_k = g / gcd(g, f(n)) (`_Residuals.certify`).
    """
    f_n = t[n]
    for k in range(1, n // 2 + 1):
        g = gcd(t[k], t[n - k])
        if f_n % g and not residuals.certify(n, k, g // gcd(g, f_n)):
            return False
    return True


_PRIME_CAP = 1000  # the residual step trial-divides residuals by the primes up to this


class _Residuals:
    """The residual step of one `is_binomid` call over `t[i]` = f(i): the
    pieces of each residual, and the partial sums S_q of their exponents.

    The pieces met in one call are pairwise coprime, and every term is
    q^e * u with gcd(u, q) = 1 for each piece q: a prime, or a product of
    primes past the cap that refinement (`_refine`) ties together.
    """

    primes = None  # the primes up to the cap: the same for every call, listed on first use

    def __init__(self, t: list[int]):
        self.t = t
        self.sums = {}  # q -> [S_q(0), ..., S_q(len(t) - 1)], in the order the pieces are seen
        self.pieces = {}  # residual -> its pieces

    def certify(self, n: int, k: int, r: int) -> bool:
        """Is [n k] an integer, given that row n-1 is and r = r_k?"""
        pieces = self.pieces[r] if r in self.pieces else self._pieces(r)
        for q in pieces:
            s = self.sums[q] if q in self.sums else self._sums(q)
            if s[n] < s[k] + s[n - k]:
                return False
        return True

    def _pieces(self, r: int) -> list[int]:
        # r is a quotient of gcds of terms, so each piece met before
        # divides it only as a power of the whole piece
        key, found = r, []
        for q in self.sums:
            if r % q == 0:
                found.append(q)
                r //= q
                while r % q == 0:
                    r //= q
        if _Residuals.primes is None:
            _Residuals.primes = primes_up_to(_PRIME_CAP)
        for p in _Residuals.primes:
            if p * p > r:
                # every prime below p is divided out, so what is left is 1 or a prime
                if r > 1:
                    found.append(r)
                break
            if r % p == 0:
                found.append(p)
                r //= p
                while r % p == 0:
                    r //= p
        else:
            if r > 1:
                found += self._refine(r)
        self.pieces[key] = found
        return found

    def _refine(self, c: int) -> list[int]:
        """A pairwise coprime base of c and of the part of each term made
        of c's primes, found by gcds alone (factor refinement)."""
        todo = {c}
        for v in self.t[1:]:
            part, g = 1, gcd(v, c)
            while g > 1:
                part *= g
                v //= g
                g = gcd(v, g)
            todo.add(part)
        todo.discard(1)
        todo, base = list(todo), []
        while todo:
            a = todo.pop()
            for i, b in enumerate(base):
                g = gcd(a, b)
                if g > 1:
                    # a * b becomes g * (a / g) * (b / g): the product of all
                    # numbers left falls, so the loop ends
                    del base[i]
                    todo += [x for x in (g, a // g, b // g) if x > 1]
                    break
            else:
                base.append(a)
        return base

    def _sums(self, q: int) -> list[int]:
        sums = self.sums[q] = [0]
        total = 0
        for v in self.t[1:]:
            while v % q == 0:
                v //= q
                total += 1
            sums.append(total)
        return sums


def is_binomid(f: Sequence, bound: int) -> ClassificationReport:
    """Is every [n k] over f an integer, for n up to the bound?

    Rows 0 and 1 are integral, and each row n that passes the dual-gcd
    step (`_certified`) is integral if row n-1 is, so it is not built.
    A k that the dual-gcd step rejects goes to the residual step
    (`_Residuals`). With g = gcd(f(k), f(n-k)), [n k] g = f(n) (u [n-1
    k-1] + v [n-1 k]), so when row n-1 is integral the denominator of
    [n k] divides the residual r_k = g / gcd(g, f(n)), and only a prime of
    r_k can keep [n k] from being an integer. For a prime p, v_p([n k]) =
    S_p(n) - S_p(k) - S_p(n-k), where S_p(m) is the sum of v_p(f(i)) over
    i <= m: the paper's additive criterion, and how Knuth and Wilf count
    the power of p in [n k] (J. reine angew. Math. 396, 1989). So [n k] is
    an integer exactly when S_p(n) >= S_p(k) + S_p(n-k) for every prime p
    of r_k.

    The residual step splits r_k into pairwise coprime pieces q that
    every term is a power of, up to a cofactor prime to q: f(i) = q^e(i) u
    with gcd(u, q) = 1. Then v_p(f(i)) = v_p(q) e(i) for each prime p | q,
    so S_p = v_p(q) S_q, and the test on p is the test S_q(n) >= S_q(k) +
    S_q(n-k), the same for every prime of q. Trial division by the primes
    up to `_PRIME_CAP` finds the small pieces, and stops once p * p
    exceeds what is left, which is then 1 or a prime. A cofactor c with no
    prime up to the cap is refined by gcds alone (Bach, Driscoll and
    Shallit, "Factor refinement", J. Algorithms 15, 1993): c and the part
    of each term made of c's primes are split into a coprime base that
    generates each of them, so each term's part is a product of powers of
    the pieces, and the pieces hold exactly c's primes. No primality test
    is needed, and refinement never looks for a prime. Pieces already
    met divide a later residual only as powers of the whole piece, since a
    residual is a quotient of gcds of terms, and are divided out first.

    So every k is decided exactly: a row whose every k passes is integral
    if row n-1 is, and a rejected k has v_p([n k]) < 0 for some p. By
    induction on n the first rejected row is the first non-integral row.
    Only there does the triangle's row kernel build anything: row n-1,
    which must hold only ints, and row n, which must hold a non-integral
    entry, and the witness is the first entry of its half that is not an
    int. Row n is checked against row n-1 by the identity the definition
    gives between adjacent rows, [n k] f(n-k) = [n-1 k] f(n) for 1 <= k
    <= n/2, with [n 0] = 1 and the row equal to its own reverse; these fix
    every entry, with no division and nothing larger than an entry times a
    term. The kernel yields an integral entry as a plain int, so a
    Fraction entry's product is an exact Fraction, equal to the int on the
    other side only when the identity holds. A failed check is an
    arithmetic bug.
    """
    eff, reduced, note = _capped(f, bound)
    terms = f.prefix(eff)
    t = [1, *terms]
    residuals = _Residuals(t)
    witness = None
    for n in range(eff + 1):
        if _certified(t, n, residuals):
            continue
        rows = _rows(terms, n - 1)
        above = next(rows)
        if any(type(q) is not int for q in above):
            raise InternalCheckError(f"triangle row {n - 1} is certified but not integral")
        row = next(rows)
        h = n // 2
        lhs = [row[k] * t[n - k] for k in range(1, h + 1)]
        rhs = [above[k] * t[n] for k in range(1, h + 1)]
        if row != row[::-1] or row[0] != 1 or lhs != rhs:
            raise InternalCheckError(f"triangle row {n} fails the column identity")
        k = next((k for k, q in enumerate(row[:h + 1]) if type(q) is not int), None)
        if k is None:
            raise InternalCheckError(f"triangle row {n} is rejected but integral")
        witness = {"m": n - k, "k": k, "n": n, "value": row[k]}
        break
    return _report("binomid", bound, witness, reduced, note)


def is_binomid_at_level(f: Sequence, c: int, bound: int) -> ClassificationReport:
    """Is column c of the triangle of f itself a binomid sequence?

    A non-integral column entry refutes the level vacuously and becomes
    the witness.
    """
    if c < 0:
        raise ValueError("level must be nonnegative")
    prop = f"binomid_at_level({c})"
    column = col_seq(f, c)
    try:
        rep = is_binomid(column, bound)
    except NonIntegralEntryError as exc:
        witness = {"level": c, "n": exc.n, "k": exc.k, "value": exc.value}
        return ClassificationReport(prop, bound, FAILS, witness,
                                    note="column entry is not an integer")
    witness = None if rep.witness is None else {"level": c, **rep.witness}
    return ClassificationReport(prop, bound, rep.verdict, witness,
                                rep.effective_bound, rep.note)


def is_binomid_every_level(f: Sequence, depth: int, bound: int) -> ClassificationReport:
    """All pyramid entries integral and every column binomid to the bound.

    The row-based check (pyramid slices) and the column-based check must
    agree where they overlap; a value mismatch there is an internal error.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    prop = "binomid_every_level"
    eff_depth = depth
    note = None
    if f.length is not None and f.length < depth:
        eff_depth = f.length
        note = f"finite sequence: depth reduced to {eff_depth}"
    try:
        pyr = pyramid(f, eff_depth)
    except NonIntegralEntryError as exc:
        witness = {"n": exc.n, "k": exc.k, "value": exc.value}
        return ClassificationReport(prop, bound, FAILS, witness, note=(
            "base triangle row is not integral" if note is None
            else note + "; base triangle row is not integral"))
    bad = pyr.first_non_integral()
    if bad is not None:
        m, n, k, value = bad
        witness = {"slice": m, "n": n, "k": k, "value": value}
        return ClassificationReport(prop, bound, FAILS, witness, note=note)
    _check_slices_match_columns(f, pyr)
    for c in range(eff_depth + 1):
        rep = is_binomid_at_level(f, c, bound)
        if not rep.holds():
            return ClassificationReport(prop, bound, FAILS, rep.witness,
                                        rep.effective_bound, rep.note)
    return ClassificationReport(prop, bound, HOLDS, None, None, note)


def _check_slices_match_columns(f: Sequence, pyr) -> None:
    # row n of slice n+m-1 is row n of the triangle over column m; the two
    # routes are required to agree, so any mismatch is an arithmetic bug
    for m in range(1, pyr.depth + 1):
        column = triangle(col_seq(f, m), pyr.depth - m + 1)
        for n in range(1, pyr.depth - m + 2):
            if pyr.slice(n + m - 1).row(n) != column.row(n):
                raise InternalCheckError(
                    f"slice {n + m - 1} row {n} disagrees with column {m}")


def mobius_invert(f: Sequence, count: int) -> list[int | Fraction]:
    """The unique g with f = divisor-product of g, exact: g(n) is an int
    where it is integral and a Fraction in lowest terms elsewhere.

    g(n) is the product of f(d)**mu(n/d) over divisors d of n. By the
    Euler product mu = prod over primes p of (1 - [x p]), that is f with
    each prime divided out in turn: for each p <= count, h(n) becomes
    h(n) / h(n/p) at every multiple n of p, starting from h = f, and after
    the last prime h = g. Each pass walks the multiples downward, so h(n/p)
    is still that pass's input when h(n) is divided by it. The exact round
    trip back to f is verified before returning, on plain integers: over
    the divisors d of n, the numerators of g(d) multiply to f(n) times the
    product of their denominators. A g(d) = 1 changes no product, and the
    denominators are multiplied only when some g(d) is a Fraction.
    """
    if count < 1:
        raise ValueError("count must be positive")
    values = f.prefix(count)
    inverted = _mobius_quotients(values)
    nums = [1] * (count + 1)
    dens = None
    for d, q in enumerate(inverted, start=1):
        if type(q) is not int:
            if dens is None:
                dens = [1] * (count + 1)
            b = q.denominator
            for n in range(d, count + 1, d):
                dens[n] *= b
            q = q.numerator
        if q != 1:
            for n in range(d, count + 1, d):
                nums[n] *= q
    if dens is not None:
        values = [v * b for v, b in zip(values, dens[1:])]
    for n in range(1, count + 1):
        if nums[n] != values[n - 1]:
            raise InternalCheckError(f"inversion round trip failed at index {n}")
    return inverted


def _mobius_quotients(values: list[int]) -> list[int | Fraction]:
    # h(n) is the pair num[n] / den[n], kept unreduced and made an integer
    # again whenever a division comes out exact, so den[n] is 1 exactly
    # when h(n) is an integer
    count = len(values)
    num = [1, *values]
    den = [1] * (count + 1)
    for p in primes_up_to(count):
        for n in range(count - count % p, 0, -p):
            a, b = num[n] * den[n // p], den[n] * num[n // p]
            q, r = divmod(a, b)
            num[n], den[n] = (a, b) if r else (q, 1)
    return [a if b == 1 else Fraction(a, b) for a, b in zip(num[1:], den[1:])]


def _divisor_product(f: Sequence, bound: int
                     ) -> tuple[ClassificationReport, list[int | Fraction]]:
    eff, reduced, note = _capped(f, bound)
    inverted = mobius_invert(f, eff)
    witness = None
    for n, value in enumerate(inverted, start=1):
        if value.denominator != 1:
            witness = {"n": n, "value": value}
            break
    return _report("divisor_product", bound, witness, reduced, note), inverted


def is_divisor_product(f: Sequence, bound: int) -> ClassificationReport:
    """Does f factor through an integer sequence on its divisor lattice?"""
    return _divisor_product(f, bound)[0]


def is_divisor_chain(f: Sequence, bound: int) -> ClassificationReport:
    """Does every term divide its successor?"""
    eff, reduced, note = _capped(f, bound)
    t = f._terms
    witness = None
    for n in range(1, eff):
        f_n = t[n]
        if t[n + 1] % f_n:
            witness = {"n": n, "f_n": f_n, "f_next": t[n + 1]}
            break
    return _report("divisor_chain", bound, witness, reduced, note)


def is_divisible(f: Sequence, bound: int) -> ClassificationReport:
    """k | n implies f(k) | f(n), over all pairs within the bound.

    Each proper divisor k of n is reached from n by prime steps m -> m/p
    through divisors of n, and divisibility is transitive, so f(k) | f(n)
    for all k | n <= N exactly when f(n/p) | f(n) for every n <= N and
    prime p | n. The first n that fails a prime step is therefore the
    first n with any violation, and its witness is the first k in
    `divisors(n)` with f(k) not dividing f(n), as a scan of every pair
    finds it. Terms are read in ascending order, and at a scanned bound
    of 1 nothing is read.
    """
    eff, reduced, note = _capped(f, bound)
    spf = smallest_prime_factors(eff)
    t = f._terms
    if eff > 1:
        t[1]  # f(1) is read before f(2), as by every scan
    witness = None
    for n in range(2, eff + 1):
        f_n = t[n]
        m = n  # n with the primes stepped so far divided out
        while m > 1:
            p = spf[m]
            if f_n % t[n // p]:
                break
            while m % p == 0:
                m //= p
        if m > 1:
            witness = _divisible_witness(t, n)
            break
    return _report("divisible", bound, witness, reduced, note)


def _divisible_witness(t, n: int) -> dict:
    # n fails a prime step, so some proper divisor k of n has f(k) not dividing f(n)
    f_n = t[n]
    for k in divisors(n)[:-1]:
        if f_n % t[k]:
            return {"k": k, "n": n, "f_k": t[k], "f_n": f_n}
    raise InternalCheckError(f"divisible: index {n} fails a prime step but no divisor pair")


def is_gcd_sequence(f: Sequence, bound: int) -> ClassificationReport:
    """gcd(f(m), f(n)) = |f(gcd(m, n))| for all pairs within the bound.

    Terms may be negative; only a(n) = |f(n)| matters. A pass is proved
    on the divisor lattice (`_gcd_lattice_holds`), with one gcd per index;
    only when that proof fails does the pair scan (`_gcd_pair_witness`)
    run, and it finds the lexicographically first violating pair. Terms
    are read in ascending order, as the pair scan first reads them, and
    at a scanned bound of 1 nothing is read.
    """
    eff, reduced, note = _capped(f, bound)
    t = f._terms
    witness = None
    if eff > 1 and not _gcd_lattice_holds(t, eff):
        witness = _gcd_pair_witness(t, eff)
        if witness is None:
            raise InternalCheckError("gcd_sequence: the lattice certificate fails "
                                     "but no pair does")
    return _report("gcd_sequence", bound, witness, reduced, note)


def _gcd_lattice_holds(t, eff: int) -> bool:
    """Is f a gcd sequence on 1..eff? Decided by primitive parts.

    Let g be the unique positive rationals with a(n) = prod of g(d) over
    d | n (Kimberling's primitive parts of a strong divisibility
    sequence). Then f is a gcd sequence on 1..N exactly when every g(y)
    is an integer and g(x), g(y) are coprime for every incomparable pair
    (neither index divides the other):

    - If so, take m, n <= N and d = gcd(m, n). Their common divisors are
      the divisors of d, so a(m) = a(d) A and a(n) = a(d) B, with A the
      product of g(e) over e | m, e not dividing n, and B likewise. Such
      an e and an e' | n, e' not dividing m, are incomparable: e | e'
      would give e | n. So gcd(A, B) = 1 and gcd(a(m), a(n)) = a(d).
    - Conversely, fix a prime p and k >= 1. The indices n <= N with
      p^k | a(n) are closed under gcd and under multiples within N,
      since a(gcd(m, n)) = gcd(a(m), a(n)) and a(n) | a(m) when n | m.
      So they are empty or all multiples of their least element r_k, and
      v_p(a(n)) = #{k : r_k | n}. Mobius inversion gives v_p(g(n)) =
      #{k : r_k = n} >= 0. As r_k | r_j for k <= j, the indices of the
      g divisible by p form a chain, so no incomparable pair shares p.

    The walk computes g(y) = a(y) / D(y) for y = 1, 2, ..., where D(y),
    the product of g over the proper divisors of y, is built by pushing
    each g(d) > 1 onto the multiples 2d, 3d, ... . It requires the
    division to be exact and g(y) coprime to Q(y), the product of g(x)
    over x < y with x not dividing y; with P the product of g(x) over all
    x < y, P = D(y) Q(y), so gcd(g, Q) = gcd(g, (P mod g D) / D), with
    g D = a(y). A g(y) = 1 needs neither test nor update. Each step
    extends the claim from 1..y-1 to 1..y, so the walk holds to N exactly
    when f is a gcd sequence on 1..N, and it stops at the first y where
    1..y is not.
    """
    pushed = [1] * (eff + 1)  # D(y), complete once the walk reaches y
    below = 1  # P: the product of g(x) over x < y
    for y in range(1, eff + 1):
        a = abs(t[y])
        g, r = divmod(a, pushed[y])
        if r:
            return False
        if g > 1:
            for multiple in range(2 * y, eff + 1, y):
                pushed[multiple] *= g
            if gcd(g, below % a // pushed[y]) > 1:
                return False
            below *= g
    return True


def _gcd_pair_witness(t, eff: int) -> dict | None:
    # the first pair (m, n), m < n, with gcd(f(m), f(n)) != |f(gcd(m, n))|
    for m in range(1, eff):
        f_m = t[m]
        for n in range(m + 1, eff + 1):
            got = gcd(f_m, t[n])
            expected = abs(t[gcd(m, n)])
            if got != expected:
                return {"m": m, "n": n, "gcd": got, "expected": expected}
    return None


def is_dual_gcd(f: Sequence, bound: int) -> ClassificationReport:
    """gcd(f(m), f(n)) divides f(m+n), for all pairs with m+n within bound."""
    eff, reduced, note = _capped(f, bound)
    t = f._terms
    witness = None
    for m in range(1, eff // 2 + 1):
        f_m = t[m]
        for n in range(m, eff - m + 1):
            g = gcd(f_m, t[n])
            if t[m + n] % g:
                witness = {"m": m, "n": n, "gcd": g, "f_sum": t[m + n]}
                break
        if witness:
            break
    return _report("dual_gcd", bound, witness, reduced, note)


def is_multiplicative(f: Sequence, bound: int) -> ClassificationReport:
    """f(ab) = f(a) f(b) on coprime pairs with product within the bound.

    The pair (1, 1) gives f(1) = 1. Let q = p^e be the full power in n of
    its smallest prime p. With f(1) = 1, this holds on 1..N exactly when
    f(n) = f(q) f(n/q) for every n <= N that is not a prime power: by
    strong induction f(n) is then the product of f(p_i^e_i) over the prime
    powers of n, so f(a) f(b) = f(ab) for coprime a, b; conversely each
    (q, n/q) is a scanned coprime pair. A pass is proved by these steps
    (`_product_rule_holds`), one per index; only when they fail does the
    pair scan run, and it finds the lexicographically first violating
    pair. Terms are read in ascending order, as the pair scan's a = 1 row
    reads them.
    """
    eff, reduced, note = _capped(f, bound)
    witness = _product_rule_witness(f, eff, coprime_only=True)
    return _report("multiplicative", bound, witness, reduced, note)


def is_homomorphic(f: Sequence, bound: int) -> ClassificationReport:
    """f(ab) = f(a) f(b) on all pairs with product within the bound.

    The pair (1, 1) gives f(1) = 1. With f(1) = 1, this holds on 1..N
    exactly when f(n) = f(p) f(n/p) for every 2 <= n <= N, with p the
    smallest prime of n: by strong induction f(n) is then the product of
    f(p_i) over the primes of n counted with multiplicity, so f(a) f(b) =
    f(ab); conversely each (p, n/p) is a scanned pair. A pass is proved by
    these steps (`_product_rule_holds`), one per index; only when they
    fail does the pair scan run, and it finds the lexicographically first
    violating pair. Terms are read in ascending order, as the pair scan's
    a = 1 row reads them.
    """
    eff, reduced, note = _capped(f, bound)
    witness = _product_rule_witness(f, eff, coprime_only=False)
    return _report("homomorphic", bound, witness, reduced, note)


# premise -> the properties a passing scan of it implies, premises in the
# order `battery` runs them (the proofs are in its docstring)
_IMPLIES = {
    "gcd_sequence": ("dual_gcd", "divisor_product", "divisible", "binomid"),
    "dual_gcd": ("binomid",),
    "divisor_product": ("divisible",),
}
_BATTERY_ORDER = (*_IMPLIES, *(name for name in PROPERTIES if name not in _IMPLIES))


def battery(f: Sequence, bound: int, names: list[str],
            record: dict | None = None) -> list[ClassificationReport]:
    """`[is_<name>(f, bound) for name in names]`, with less work.

    `record` maps property names to the reports of earlier calls on the
    same f and bound; a recorded property is read, not scanned again, and
    every report this call makes or settles is added to it. The premises
    of `_IMPLIES` run first, and a premise that holds to a scanned bound
    N >= 2 settles every property it implies, selected or not, as
    `holds_to_bound` with its own effective bound and note, which every
    scan takes alike from `_capped`. Each implication holds at the finite
    bound N:

    - gcd => dual: for m <= n with m + n <= N, d = gcd(m, n) divides m + n;
      the scanned pairs (m, n) and (d, m+n) give gcd(f(m), f(n)) = |f(d)|
      and f(d) | f(m+n), and for m = n the pair (m, 2m) gives f(m) | f(2m).
    - gcd => divisible: for k | n, gcd(f(k), f(n)) = |f(k)|.
    - gcd => divisor-product: fix a prime p. On the divisors of n,
      a(d) = v_p(f(d)) is monotone and gcd-closed, so each level set
      {d | n : a(d) >= k} is empty or all multiples of one e_k, and the
      Mobius sum gives v_p(g(n)) = #{k >= 1 : e_k = n} >= 0.
    - dual => binomid: the pairs (k, n-k) are scanned, so every row passes
      the dual-gcd step (`_certified`); gcd => binomid goes through dual.
    - divisor-product => divisible: f(n)/f(k) is the product of g(d) over
      the d with d | n and d not dividing k.

    A passing premise at N >= 2 has read every term up to N, so an implied
    scan could raise no error either; at N = 1 the gcd and dual-gcd scans
    read nothing, and nothing is implied. A property that is not selected
    is never run. Every scan reads terms in ascending order, so every scan
    that raises raises the error of the same term, and the first one to
    raise ends the call.
    """
    record = {} if record is None else record
    for name in _BATTERY_ORDER:
        if name not in names or name in record:
            continue
        # looked up on each call, so a replaced module attribute is what runs
        rep = record[name] = globals()["is_" + name](f, bound)
        if rep.holds() and rep.scanned_bound() > 1:
            for implied in _IMPLIES.get(name, ()):
                record.setdefault(implied, ClassificationReport(
                    implied, bound, HOLDS, None, rep.effective_bound, rep.note))
    return [record[name] for name in names]


def _product_rule_witness(f: Sequence, eff: int, coprime_only: bool) -> dict | None:
    t = f._terms
    if _product_rule_holds(t, eff, coprime_only):
        return None
    witness = _product_pair_witness(t, eff, coprime_only)
    if witness is None:
        rule = "multiplicative" if coprime_only else "homomorphic"
        raise InternalCheckError(f"{rule}: a prime step fails but no pair does")
    return witness


def _product_rule_holds(t, eff: int, coprime_only: bool) -> bool:
    # the prime steps of `is_multiplicative` and `is_homomorphic`; every
    # term is read, prime powers included, so a zero term raises here
    # as in the pair scan's a = 1 row
    if t[1] != 1:
        return False
    spf = smallest_prime_factors(eff)
    for n in range(2, eff + 1):
        f_n = t[n]
        d = spf[n]
        if coprime_only:
            m = n // d
            while m % d == 0:
                m //= d
            if m == 1:
                continue  # n is a prime power
            d = n // m
        if f_n != t[d] * t[n // d]:
            return False
    return True


def _product_pair_witness(t, eff: int, coprime_only: bool) -> dict | None:
    # the first pair (a, b), a <= b, with f(a) f(b) != f(ab)
    for a in range(1, eff + 1):
        b = a
        while a * b <= eff:
            if not coprime_only or gcd(a, b) == 1:
                lhs = t[a] * t[b]
                rhs = t[a * b]
                if lhs != rhs:
                    return {"a": a, "b": b, "product_of_terms": lhs,
                            "term_of_product": rhs}
            b += 1
    return None


def additive_binomid_check(c: int, exponents, bound: int) -> ClassificationReport:
    """Superadditivity of partial sums of an exponent list.

    For any base c > 1, the sequence (c ** exponents[n]) is binomid exactly
    when s(m) + s(n) <= s(m+n) for the partial sums s. Exponents may be
    zero or negative; they are a plain list, not a Sequence. The witness
    is the first violating pair, by total m + n and then by m.

    When no exponent is negative, s never decreases, and only the m with
    e(m) > 0 are tried: if (total, m) violates, take the largest j <= m
    with e(j) > 0. With no such j, s(m) = 0 and nothing violates.
    Otherwise s(j) = s(m) and s(total - j) >= s(total - m), so (total, j)
    violates too, and the smallest violating m is one of those tried.
    """
    if c <= 1:
        raise ValueError("base must be an integer greater than 1")
    if bound < 1:
        raise ValueError("bound must be positive")
    exponents = list(exponents)
    if len(exponents) < bound:
        raise ValueError(f"need {bound} exponents, have {len(exponents)}")
    sums = [0]
    for e in exponents[:bound]:
        sums.append(sums[-1] + e)
    if min(exponents[:bound]) >= 0:
        tried = [m for m in range(1, bound // 2 + 1) if exponents[m - 1] > 0]
    else:
        tried = range(1, bound // 2 + 1)
    witness = None
    for total in range(2, bound + 1):
        half, rhs = total // 2, sums[total]
        for m in tried:
            if m > half:
                break
            lhs = sums[m] + sums[total - m]
            if lhs > rhs:
                witness = {"m": m, "n": total - m, "lhs": lhs, "rhs": rhs}
                break
        if witness:
            break
    return _report("binomid_additive", bound, witness,
                   note=f"additive criterion, base {c}")


@dataclass(frozen=True)
class PerPrimeDecomposition:
    bound: int
    effective_bound: int
    prime_bound: int
    reports: tuple  # (prime, ClassificationReport) pairs
    undecided: tuple  # (index, cofactor) pairs with factors beyond prime_bound
    combined_verdict: str


def per_prime_decomposition(f: Sequence, bound: int, prime_bound: int,
                            record: dict | None = None) -> PerPrimeDecomposition:
    """Binomid reports for each prime p, by the additive criterion.

    (p ** v_p(f(n))) is binomid exactly when the partial sums of the
    exponents v_p(f(n)) are superadditive (`additive_binomid_check`).
    Terms with factors beyond prime_bound are reported as undecided rather
    than guessed at. When every term factors completely, the conjunction of
    the per-prime verdicts must match the binomid verdict of `battery`,
    which reads it from `record` when a run already decided it.

    Only the primes that divide some term get an exponent list. Trial
    division stops once p * p exceeds what is left of a term, which is
    then 1 or a prime: a prime up to prime_bound is counted, and a larger
    one is the undecided cofactor, as after dividing by every prime up to
    prime_bound. So no prime past the square root of the largest term is
    listed.
    """
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    eff, _, _ = _capped(f, bound)
    values = [abs(v) for v in f.prefix(eff)]
    primes = primes_up_to(min(prime_bound, isqrt(max(values, default=1))))
    exps = {}
    undecided = []
    for idx, v in enumerate(values):
        for p in primes:
            if p * p > v:
                break
            if v % p == 0:
                e = exps.setdefault(p, [0] * eff)
                while v % p == 0:
                    v //= p
                    e[idx] += 1
        if v > prime_bound:
            undecided.append((idx + 1, v))
        elif v > 1:
            exps.setdefault(v, [0] * eff)[idx] += 1
    reports = [(p, additive_binomid_check(p, exps[p], eff)) for p in sorted(exps)]
    combined = HOLDS if all(rep.holds() for _, rep in reports) else FAILS
    if not undecided and combined != battery(f, bound, ["binomid"], record)[0].verdict:
        raise InternalCheckError("per-prime conjunction disagrees with direct check")
    return PerPrimeDecomposition(bound, eff, prime_bound, tuple(reports),
                                 tuple(undecided), combined)


@dataclass(frozen=True)
class DivisorProductProfile:
    bound: int
    precondition_ok: bool
    precondition_witness: dict | None = None
    criteria: tuple = ()  # multiplicative, homomorphic and gcd_sequence reports on g


def divisor_product_profile(f: Sequence, bound: int,
                            record: dict | None = None) -> DivisorProductProfile:
    """Read multiplicativity, homomorphy, and the gcd property off the
    inverted sequence g, and confirm each against the verdict of `battery`,
    which reads it from `record` when a run already decided it.

    Requires f(1) = 1 and f a divisor-product to the bound; a failed
    precondition is reported, not raised. The gcd criterion on g and the
    lattice certificate (`_gcd_lattice_holds`) rest on the same theorem,
    so the pairs of g are searched only when the verdict fails, and then
    one must fail.
    """
    eff, _, _ = _capped(f, bound)
    if f.term(1) != 1:
        return DivisorProductProfile(eff, False,
                                     {"reason": "first term is not 1",
                                      "value": f.term(1)})
    dp, inverted = _divisor_product(f, eff)
    if not dp.holds():
        return DivisorProductProfile(eff, False,
                                     {"reason": "not a divisor-product",
                                      **(dp.witness or {})})
    g = [None, *inverted]  # g[n] is g(n), an int
    spf = smallest_prime_factors(eff)
    # a multiplicative violation is a homomorphic one too, so the pass keeps
    # the first homomorphic witness and stops at the multiplicative one
    mult_witness = homo_witness = None
    for n in range(2, eff + 1):
        p, m = spf[n], n  # n is a power of p when m ends at 1
        while m % p == 0:
            m //= p
        if m > 1:
            if g[n] != 1:
                mult_witness = {"n": n, "g": g[n]}
                homo_witness = homo_witness or {"n": n, "g": g[n]}
                break
        elif homo_witness is None and n != p and g[n] != g[p]:
            homo_witness = {"n": n, "g": g[n], "g_p": g[p]}

    names = ("multiplicative", "homomorphic", "gcd_sequence")
    direct = battery(f, bound, names, record)
    witnesses = (mult_witness, homo_witness,
                 None if direct[2].holds() else _coprime_pair_witness(g, eff))
    for name, witness, rep in zip(names, witnesses, direct):
        if (witness is None) != rep.holds():
            raise InternalCheckError(
                f"profile criterion {name} disagrees with the direct classifier")
    return DivisorProductProfile(eff, True, None, tuple(
        _report(name, eff, witness) for name, witness in zip(names, witnesses)))


def _coprime_pair_witness(g: list, eff: int) -> dict | None:
    # the first pair m < n with m not dividing n and gcd(g[m], g[n]) != 1
    for m in range(2, eff + 1):
        for n in range(m + 1, eff + 1):
            if n % m:
                common = gcd(g[m], g[n])
                if common != 1:
                    return {"m": m, "n": n, "gcd": common}
    return None
