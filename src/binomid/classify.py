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
from math import gcd

from . import _EXPORTS
from .core import _rows, col_seq, pyramid, triangle
from .errors import InternalCheckError, NonIntegralEntryError
from .numtheory import Sieve, primes_up_to
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


def _certified(t: list[int], n: int) -> bool:
    """The dual-gcd step: is row n integral whenever row n-1 is?

    `t[i]` is f(i). With g = gcd(f(k), f(n-k)) = u f(k) + v f(n-k), the
    identities [n k] f(k) = [n-1 k-1] f(n) and [n k] f(n-k) = [n-1 k] f(n)
    give [n k] g = f(n) (u [n-1 k-1] + v [n-1 k]). So if g divides f(n)
    for every 1 <= k <= n/2, an integral row n-1 makes row n integral.
    """
    f_n = t[n]
    for k in range(1, n // 2 + 1):
        if f_n % gcd(t[k], t[n - k]):
            return False
    return True


def is_binomid(f: Sequence, bound: int) -> ClassificationReport:
    """Is every [n k] over f an integer, for n up to the bound?

    Rows 0 and 1 are integral, and each row n that passes the dual-gcd
    step (`_certified`) is integral if row n-1 is, so it is not built.
    The triangle's row kernel builds each row the step rejects, and also
    row n-1 when that row was certified, which must then hold only ints.
    By induction on n the first built row with a non-integral entry is
    the first non-integral row, and the witness is the first entry of its
    half that is not an int. Every row the step rejects is checked
    against the kernel's row n-1 by the identity the definition gives
    between adjacent rows, [n k] f(n-k) = [n-1 k] f(n) for 1 <= k <= n/2,
    with [n 0] = 1 and the row equal to its own reverse; these fix every
    entry, with no division and nothing larger than an entry times a
    term. The kernel yields an integral entry as a plain int, so a
    Fraction entry's product is an exact Fraction, equal to the int on
    the other side only when the identity holds. A mismatch is an
    arithmetic bug.
    """
    eff, reduced, note = _capped(f, bound)
    terms = f.prefix(eff)
    t = [1, *terms]
    witness = None
    rows = None  # the kernel's rows from n-1 on, while the step rejects each row
    for n in range(eff + 1):
        if _certified(t, n):
            rows = None
            continue
        if rows is None:
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
        if k is not None:
            witness = {"m": n - k, "k": k, "n": n, "value": row[k]}
            break
        above = row
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


def mobius_invert(f: Sequence, count: int) -> list[Fraction]:
    """The unique g with f = divisor-product of g, as exact rationals.

    g(n) is the product of f(d)**mu(n/d) over divisors d of n. The exact
    round trip back to f is verified before returning, on plain integers:
    over the divisors d of n, the numerators of g(d) multiply to f(n) times
    the product of their denominators.
    """
    if count < 1:
        raise ValueError("count must be positive")
    values = f.prefix(count)
    inverted = _mobius_quotients(values)
    nums = [1] * (count + 1)
    dens = [1] * (count + 1)
    for d, q in enumerate(inverted, start=1):
        a, b = q.numerator, q.denominator
        for n in range(d, count + 1, d):
            nums[n] *= a
            dens[n] *= b
    for n in range(1, count + 1):
        if nums[n] != values[n - 1] * dens[n]:
            raise InternalCheckError(f"inversion round trip failed at index {n}")
    return inverted


def _mobius_quotients(values: list[int]) -> list[Fraction]:
    # each f(d) goes to the multiples n = d*j with j squarefree, into the
    # numerator of g(n) when mu(j) = 1 and the denominator when mu(j) = -1
    count = len(values)
    mu = Sieve(count).mu
    num = [1] * (count + 1)
    den = [1] * (count + 1)
    for d, value in enumerate(values, start=1):
        for j in range(1, count // d + 1):
            if mu[j] == 1:
                num[d * j] *= value
            elif mu[j] == -1:
                den[d * j] *= value
    return [_quotient(num[n], den[n]) for n in range(1, count + 1)]


def _quotient(num: int, den: int) -> Fraction:
    # an exact quotient needs no gcd to be in lowest terms
    q, r = divmod(num, den)
    return Fraction(num, den) if r else Fraction(q)


def _divisor_product(f: Sequence, bound: int) -> tuple[ClassificationReport, list[Fraction]]:
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
        if t[n + 1] % t[n]:
            witness = {"n": n, "f_n": t[n], "f_next": t[n + 1]}
            break
    return _report("divisor_chain", bound, witness, reduced, note)


def is_divisible(f: Sequence, bound: int) -> ClassificationReport:
    """k | n implies f(k) | f(n), over all pairs within the bound."""
    eff, reduced, note = _capped(f, bound)
    sieve = Sieve(eff)
    t = f._terms
    witness = None
    for n in range(2, eff + 1):
        f_n = t[n]
        for k in sieve.divisors(n)[:-1]:
            if f_n % t[k]:
                witness = {"k": k, "n": n, "f_k": t[k], "f_n": f_n}
                break
        if witness:
            break
    return _report("divisible", bound, witness, reduced, note)


def is_gcd_sequence(f: Sequence, bound: int) -> ClassificationReport:
    """gcd(f(m), f(n)) = |f(gcd(m, n))| for all pairs within the bound.

    Terms may be negative; `gcd` of signed terms is already nonnegative.
    """
    eff, reduced, note = _capped(f, bound)
    t = f._terms
    witness = None
    for m in range(1, eff):  # m = eff has no partner: at eff = 1 nothing is read
        f_m = t[m]
        for n in range(m + 1, eff + 1):
            got = gcd(f_m, t[n])
            expected = abs(t[gcd(m, n)])
            if got != expected:
                witness = {"m": m, "n": n, "gcd": got, "expected": expected}
                break
        if witness:
            break
    return _report("gcd_sequence", bound, witness, reduced, note)


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
    """f(ab) = f(a) f(b) on coprime pairs with product within the bound."""
    eff, reduced, note = _capped(f, bound)
    witness = _product_rule_witness(f, eff, coprime_only=True)
    return _report("multiplicative", bound, witness, reduced, note)


def is_homomorphic(f: Sequence, bound: int) -> ClassificationReport:
    """f(ab) = f(a) f(b) on all pairs with product within the bound."""
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


def battery(f: Sequence, bound: int, names: list[str]) -> list[ClassificationReport]:
    """`[is_<name>(f, bound) for name in names]`, with less work.

    The premises of `_IMPLIES` run first, and a premise that holds to a
    scanned bound N >= 2 settles the selected properties it implies as
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
    is never run. When scans raise, the error is the one the first raising
    scan in `names` order raises: after a scan raises, only scans before it
    in that order still run.
    """
    rank = {name: names.index(name) for name in names}
    done = {}
    error = None  # (rank, exception) of the first scan in `names` order known to raise
    for name in sorted(rank, key=_BATTERY_ORDER.index):
        if name in done or (error is not None and rank[name] > error[0]):
            continue
        try:
            # looked up on each call, so a replaced module attribute is what runs
            rep = globals()["is_" + name](f, bound)
        except Exception as exc:  # raised at the end, unless an earlier-ranked scan raises
            error = rank[name], exc
            continue
        done[name] = rep
        if rep.holds() and rep.scanned_bound() > 1:
            for implied in _IMPLIES.get(name, ()):
                if implied in rank:
                    done[implied] = ClassificationReport(
                        implied, bound, HOLDS, None, rep.effective_bound, rep.note)
    if error is not None:
        raise error[1]
    return [done[name] for name in names]


def _product_rule_witness(f: Sequence, eff: int, coprime_only: bool) -> dict | None:
    t = f._terms
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
    zero or negative; they are a plain list, not a Sequence.
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
    witness = None
    for total in range(2, bound + 1):
        for m in range(1, total // 2 + 1):
            n = total - m
            if sums[m] + sums[n] > sums[total]:
                witness = {"m": m, "n": n, "lhs": sums[m] + sums[n],
                           "rhs": sums[total]}
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
    agrees_with_direct: bool | None  # None when factorization was incomplete


def per_prime_decomposition(f: Sequence, bound: int, prime_bound: int) -> PerPrimeDecomposition:
    """Binomid reports for each prime p, by the additive criterion.

    (p ** v_p(f(n))) is binomid exactly when the partial sums of the
    exponents v_p(f(n)) are superadditive (`additive_binomid_check`).
    Terms with factors beyond prime_bound are reported as undecided rather
    than guessed at. When every term factors completely, the conjunction of
    the per-prime verdicts must match the direct binomid check.
    """
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    eff, _, _ = _capped(f, bound)
    primes = primes_up_to(prime_bound)
    exps = {p: [0] * eff for p in primes}
    undecided = []
    for idx in range(1, eff + 1):
        v = abs(f.term(idx))
        for p in primes:
            while v % p == 0:
                v //= p
                exps[p][idx - 1] += 1
        if v > 1:
            undecided.append((idx, v))
    reports = [(p, additive_binomid_check(p, exps[p], eff))
               for p in primes if any(exps[p])]
    combined = HOLDS if all(rep.holds() for _, rep in reports) else FAILS
    agrees = None
    if not undecided:
        agrees = combined == is_binomid(f, eff).verdict
        if not agrees:
            raise InternalCheckError("per-prime conjunction disagrees with direct check")
    return PerPrimeDecomposition(bound, eff, prime_bound, tuple(reports),
                                 tuple(undecided), combined, agrees)


@dataclass(frozen=True)
class ProfileCriterion:
    name: str
    verdict: str
    witness: dict | None
    direct_verdict: str
    agrees: bool


@dataclass(frozen=True)
class DivisorProductProfile:
    bound: int
    precondition_ok: bool
    precondition_witness: dict | None = None
    multiplicative: ProfileCriterion | None = None
    homomorphic: ProfileCriterion | None = None
    gcd: ProfileCriterion | None = None


def divisor_product_profile(f: Sequence, bound: int) -> DivisorProductProfile:
    """Read multiplicativity, homomorphy, and the gcd property off the
    inverted sequence g, and confirm each against the direct classifier.

    Requires f(1) = 1 and f a divisor-product to the bound; a failed
    precondition is reported, not raised.
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
    g = [q.numerator for q in inverted]
    sieve = Sieve(eff)

    mult_witness = None
    for n in range(2, eff + 1):
        if sieve.prime_power_base(n) is None and g[n - 1] != 1:
            mult_witness = {"n": n, "g": g[n - 1]}
            break

    homo_witness = None
    for n in range(2, eff + 1):
        p = sieve.prime_power_base(n)
        if p is None:
            if g[n - 1] != 1:
                homo_witness = {"n": n, "g": g[n - 1]}
                break
        elif n != p and g[n - 1] != g[p - 1]:
            homo_witness = {"n": n, "g": g[n - 1], "g_p": g[p - 1]}
            break

    gcd_witness = None
    for m in range(2, eff + 1):
        for n in range(m + 1, eff + 1):
            if n % m:
                common = gcd(g[m - 1], g[n - 1])
                if common != 1:
                    gcd_witness = {"m": m, "n": n, "gcd": common}
                    break
        if gcd_witness:
            break

    criteria = []
    for name, witness, direct in (
            ("multiplicative", mult_witness, is_multiplicative(f, eff)),
            ("homomorphic", homo_witness, is_homomorphic(f, eff)),
            ("gcd_sequence", gcd_witness, is_gcd_sequence(f, eff))):
        verdict = HOLDS if witness is None else FAILS
        if verdict != direct.verdict:
            raise InternalCheckError(
                f"profile criterion {name} disagrees with the direct classifier")
        criteria.append(ProfileCriterion(name, verdict, witness,
                                         direct.verdict, True))
    return DivisorProductProfile(eff, True, None, *criteria)
