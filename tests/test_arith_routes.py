"""Differential and liveness tests for the smallest-prime-factor table,
the prime-by-prime inversion, the certified gcd and divisibility scans,
the profile's single pass over g, and the prefix-extending Lucas rule.

The trial-division helpers below are the number-theory code the sieve
replaced in the scans, the pair scans below are the routes the lattice
certificates replaced on passing inputs, and the two-loop profile is the
route the single pass replaced; all are kept here as oracles.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid import (InternalCheckError, Sequence, ZeroTermError, classify,
                     divisor_product_of, divisors, euler_phi, fibonacci,
                     from_list, g_ab, identity_seq, lucas, mobius,
                     mobius_invert, numtheory, prime_power_base, triangular_seq)
from binomid.cli import main, parse_seqspec
from binomid.numtheory import smallest_prime_factors

LIMIT = 3000


# -- the trial-division oracle -----------------------------------------------

def trial_factorization(n):
    out, m, d = [], n, 2
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


def trial_divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def trial_mobius(n):
    factors = trial_factorization(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def trial_euler_phi(n):
    result = n
    for p, _ in trial_factorization(n):
        result = result // p * (p - 1)
    return result


def trial_prime_power_base(n):
    if n == 1:
        return None
    factors = trial_factorization(n)
    return factors[0][0] if len(factors) == 1 else None


def old_mobius_invert(values):
    """The inversion route the sieve replaced: divisors(n), mobius(n // d)
    per divisor, and a Fraction round trip."""
    count = len(values)
    inverted = []
    for n in range(1, count + 1):
        num = den = 1
        for d in trial_divisors(n):
            mu = trial_mobius(n // d)
            if mu == 1:
                num *= values[d - 1]
            elif mu == -1:
                den *= values[d - 1]
        inverted.append(Fraction(num, den))
    for n in range(1, count + 1):
        total = Fraction(1)
        for d in trial_divisors(n):
            total *= inverted[d - 1]
        assert total == values[n - 1]
    return inverted


def old_divisible_witness(t, eff):
    """The divisible scan before the prime-step certificate: every pair,
    f(k) read before f(n)."""
    for n in range(2, eff + 1):
        for k in trial_divisors(n)[:-1]:
            f_k = t[k]
            if t[n] % f_k:
                return {"k": k, "n": n, "f_k": f_k, "f_n": t[n]}
    return None


def old_gcd_witness(t, eff):
    """The gcd scan before the lattice certificate: every pair."""
    for m in range(1, eff):
        f_m = t[m]
        for n in range(m + 1, eff + 1):
            got = gcd(f_m, t[n])
            expected = abs(t[gcd(m, n)])
            if got != expected:
                return {"m": m, "n": n, "gcd": got, "expected": expected}
    return None


def old_route(prop, witness_of):
    def scan(f, bound):
        eff, reduced, note = classify._capped(f, bound)
        return classify._report(prop, bound, witness_of(f._terms, eff), reduced, note)
    return scan


OLD_SCANS = {"gcd_sequence": old_route("gcd_sequence", old_gcd_witness),
             "divisible": old_route("divisible", old_divisible_witness)}


def old_divisor_product_profile(f, bound):
    """The profile before its single pass over g: the multiplicative and
    homomorphic criteria in two loops over a 0-indexed g, prime-power bases
    by trial division, and the gcd criterion from every pair of g."""
    eff, _, _ = classify._capped(f, bound)
    if f.term(1) != 1:
        return classify.DivisorProductProfile(
            eff, False, {"reason": "first term is not 1", "value": f.term(1)})
    dp = classify.is_divisor_product(f, eff)
    if not dp.holds():
        return classify.DivisorProductProfile(
            eff, False, {"reason": "not a divisor-product", **(dp.witness or {})})
    g = [q.numerator for q in old_mobius_invert(f.prefix(eff))]

    mult_witness = None
    for n in range(2, eff + 1):
        if prime_power_base(n) is None and g[n - 1] != 1:
            mult_witness = {"n": n, "g": g[n - 1]}
            break

    homo_witness = None
    for n in range(2, eff + 1):
        p = prime_power_base(n)
        if p is None:
            if g[n - 1] != 1:
                homo_witness = {"n": n, "g": g[n - 1]}
                break
        elif n != p and g[n - 1] != g[p - 1]:
            homo_witness = {"n": n, "g": g[n - 1], "g_p": g[p - 1]}
            break

    names = ("multiplicative", "homomorphic", "gcd_sequence")
    direct = [getattr(classify, f"is_{name}")(f, bound) for name in names]
    witnesses = (mult_witness, homo_witness,
                 None if direct[2].holds() else old_profile_gcd_witness(g, eff))
    for name, witness, rep in zip(names, witnesses, direct):
        if (witness is None) != rep.holds():
            raise InternalCheckError(
                f"profile criterion {name} disagrees with the direct classifier")
    return classify.DivisorProductProfile(eff, True, None, tuple(
        classify._report(name, eff, witness) for name, witness in zip(names, witnesses)))


@pytest.fixture(scope="module")
def spf():
    return smallest_prime_factors(LIMIT)


def spf_prime_power_base(spf, n):
    """The prime-power base as the profile reads it off the spf table."""
    p, m = spf[n], n
    while m % p == 0:
        m //= p
    return p if m == 1 else None


# -- the spf table against the trial-division oracle ---------------------------

class TestSieveAgainstTrialDivision:
    def test_prime_power_base(self, spf):
        for n in range(2, LIMIT + 1):
            assert spf_prime_power_base(spf, n) == trial_prime_power_base(n)

    def test_public_functions_match_too(self):
        for n in range(1, LIMIT + 1):
            assert divisors(n) == trial_divisors(n)
            assert mobius(n) == trial_mobius(n)
            assert euler_phi(n) == trial_euler_phi(n)
            assert prime_power_base(n) == trial_prime_power_base(n)

    def test_smallest_prime_factor_table(self, spf):
        assert spf[:13] == [0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2, 11, 2]
        for n in range(2, LIMIT + 1):
            assert spf[n] == trial_factorization(n)[0][0]

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 9, 25, 26])
    def test_small_limits(self, limit):
        spf = smallest_prime_factors(limit)
        assert len(spf) == limit + 1
        for n in range(2, limit + 1):
            assert spf[n] == trial_factorization(n)[0][0]

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            smallest_prime_factors(-1)


# -- sympy cross-checks (tests only; skipped where sympy is missing) -----------

class TestAgainstSympy:
    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy", minversion="1.13")

    def test_mobius_factorization_and_prime_powers(self, spf, sympy):
        from sympy.functions.combinatorial.numbers import mobius as sym_mobius
        for n in range(1, 1201):
            assert mobius(n) == int(sym_mobius(n))
            factors = sympy.factorint(n)
            if n > 1:
                assert spf[n] == min(factors)
            expected = next(iter(factors)) if len(factors) == 1 else None
            assert prime_power_base(n) == expected

    def test_fibonacci(self, sympy):
        assert fibonacci().prefix(600) == [int(sympy.fibonacci(n))
                                           for n in range(1, 601)]

    def test_cyclotomic_coefficients(self, sympy):
        from binomid import cyclotomic
        x = sympy.symbols("x")
        for n in range(1, 121):
            coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
            assert cyclotomic(n).coeffs == tuple(int(c) for c in reversed(coeffs))

    @pytest.mark.parametrize("spec, count", [("T", 1000), ("gq:2", 1000),
                                             ("P(T)", 600), ("lucas:1,-2", 400)])
    def test_mobius_invert_is_the_divisor_sum_of_mu(self, sympy, spec, count):
        # g(n) is the product of f(d)**mu(n/d) over the divisors d of n
        from sympy.functions.combinatorial.numbers import mobius as sym_mobius
        f = parse_seqspec(spec).build()
        values = f.prefix(count)
        expected = []
        for n in range(1, count + 1):
            g = Fraction(1)
            for d in sympy.divisors(n):
                g *= Fraction(values[d - 1]) ** int(sym_mobius(n // d))
            expected.append(g)
        assert mobius_invert(f, count) == expected


# -- sieve-backed and certified scans against the old routes ------------------

nonzero = st.integers(-40, 40).filter(bool)

# passing gcd families (strong divisibility sequences), each with the prefix
# length the tests perturb
FAMILIES = {"fib": 90, "gq:2": 90, "I": 90, "lucas:3,2": 90, "pow(2,fib)": 20}
FAMILY_TERMS = {spec: parse_seqspec(spec).build().prefix(length)
                for spec, length in FAMILIES.items()}
PERTURB = {
    "times2": lambda v: 2 * v,
    "times3": lambda v: 3 * v,
    "negated": lambda v: -v,
    "plus1": lambda v: v + 1,
    "minus1": lambda v: v - 1,  # a 0 where the term was 1
    "zero": lambda v: 0,
}


@st.composite
def scan_inputs(draw):
    """(values, bound, wrap): a prefix of a passing family with up to two
    terms changed, or a short signed list rich in +-1, zeros allowed (a
    zero raises when read); the bound may pass the list's end, and `wrap`
    scans P(list) instead."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from(sorted(FAMILIES)))
        values = FAMILY_TERMS[spec][:draw(st.integers(1, FAMILIES[spec]))]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(values) - 1))
            values[i] = PERTURB[draw(st.sampled_from(sorted(PERTURB)))](values[i])
    else:
        term = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3, 4, 6, -6, 12, 0])
        values = draw(st.lists(term, min_size=1, max_size=40))
    bound = draw(st.integers(1, len(values) + 4))
    return values, bound, draw(st.booleans())


PROFILE_VALUES = [-1, *range(1, 10)]


def _draw_other(draw, avoid):
    return draw(st.sampled_from([v for v in PROFILE_VALUES if v != avoid]))


@st.composite
def profile_inputs(draw):
    """(g, bound) for a profile of P(g), g(n) in {-1, 1, ..., 9}: a free
    draw, or g forced multiplicative or homomorphic, or a homomorphic g
    with a violation at a non-prime-power N and one at a prime power p**k,
    k >= 2, before N, after N or nowhere (the homomorphic witness is then
    at N). The bound may pass the end of g."""
    length = draw(st.integers(1, 60))
    bound = draw(st.one_of(st.just(length), st.integers(1, 60)))
    kind = draw(st.sampled_from(["free", "multiplicative", "homomorphic", "violations"]))
    value = st.sampled_from(PROFILE_VALUES)
    if kind == "free":
        g = [draw(st.sampled_from([1, 1, 1, -1, 2])),
             *draw(st.lists(value, min_size=length - 1, max_size=length - 1))]
        return g, bound
    g = [1] * length
    for n in range(2, length + 1):
        p = prime_power_base(n)
        if p == n or (p is not None and kind == "multiplicative"):
            g[n - 1] = draw(value)
        elif p is not None:
            g[n - 1] = g[p - 1]
    non_powers = [n for n in range(2, length + 1) if prime_power_base(n) is None]
    if kind == "violations" and non_powers:
        first = draw(st.sampled_from(non_powers))
        g[first - 1] = _draw_other(draw, 1)
        where = draw(st.sampled_from(["before", "at", "after"]))
        powers = [n for n in range(4, length + 1) if prime_power_base(n) not in (None, n)
                  and (n < first if where == "before" else n > first)]
        if where != "at" and powers:
            q = draw(st.sampled_from(powers))
            g[q - 1] = _draw_other(draw, g[prime_power_base(q) - 1])
        for n in non_powers:  # later non-prime-power violations, if any
            if n > first and draw(st.booleans()):
                g[n - 1] = draw(value)
    return g, bound


def drawn_sequence(values, calls, wrap):
    def rule(n):
        calls.append(n)
        return values[n - 1]
    f = Sequence("drawn", rule, length=len(values))
    return divisor_product_of(f) if wrap else f


def outcome(scan, f, bound):
    try:
        return scan(f, bound)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_as_old_route(prop, values, bound, wrap):
    """Same report, or same error type and message, and the same rule calls."""
    new_calls, old_calls = [], []
    got = outcome(getattr(classify, f"is_{prop}"),
                  drawn_sequence(values, new_calls, wrap), bound)
    expected = outcome(OLD_SCANS[prop], drawn_sequence(values, old_calls, wrap), bound)
    assert got == expected
    assert new_calls == old_calls


class TestScansAgainstOldRoutes:
    @given(st.lists(nonzero, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_mobius_invert_matches_old_route(self, values):
        assert mobius_invert(from_list(values), len(values)) == old_mobius_invert(values)

    @given(st.lists(nonzero, min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_divisor_products_invert_to_their_base(self, g):
        f = divisor_product_of(from_list(g))
        assert mobius_invert(f, len(g)) == g

    @pytest.mark.parametrize("seq", [identity_seq(), fibonacci(), lucas(3, 2),
                                     g_ab(5, 3), lucas(1, -2)],
                             ids=lambda s: s.name)
    def test_mobius_invert_of_families(self, seq):
        values = seq.prefix(300)
        assert mobius_invert(seq, 300) == old_mobius_invert(values)

    # every g(n) of gq:2 is the integer Phi_n(2); T's g(4) is 10/3
    @pytest.mark.parametrize("seq, integral", [(g_ab(2, 1), True),
                                               (triangular_seq(), False)],
                             ids=["gq:2", "T"])
    def test_quotients_match_reduced_fractions(self, seq, integral):
        values = seq.prefix(300)
        quotients = classify._mobius_quotients(values)
        expected = old_mobius_invert(values)
        assert quotients == expected
        assert all(type(q) is Fraction for q in quotients)
        assert [(q.numerator, q.denominator) for q in quotients] == [
            (q.numerator, q.denominator) for q in expected]
        assert all(q.denominator == 1 for q in quotients) == integral

    @given(scan_inputs())
    @settings(max_examples=300, deadline=None)
    def test_divisible_witness_matches_old_route(self, drawn):
        assert_same_as_old_route("divisible", *drawn)

    @given(scan_inputs())
    @settings(max_examples=300, deadline=None)
    def test_gcd_witness_matches_old_route(self, drawn):
        assert_same_as_old_route("gcd_sequence", *drawn)

    @pytest.mark.parametrize("prop", sorted(OLD_SCANS))
    @pytest.mark.parametrize("change", sorted(PERTURB))
    @pytest.mark.parametrize("spec", sorted(FAMILIES))
    def test_perturbed_families(self, spec, change, prop):
        # a change two thirds of the way in: the certificate passes the
        # prefix before it, then passes on or stops there
        values = list(FAMILY_TERMS[spec])
        i = len(values) * 2 // 3
        values[i] = PERTURB[change](values[i])
        for wrap in (False, True):
            assert_same_as_old_route(prop, values, len(values), wrap)

    @pytest.mark.parametrize("prop", sorted(OLD_SCANS))
    @pytest.mark.parametrize("spec", sorted(FAMILIES))
    def test_every_early_change(self, spec, prop):
        # each of the first 16 terms changed in each way, in a prefix of 40:
        # f(2) doubled in I divides f(4) but not f(6), which only the step
        # 6 -> 6/3 sees
        for i in range(min(16, FAMILIES[spec])):
            for change in PERTURB.values():
                values = FAMILY_TERMS[spec][:40]
                values[i] = change(values[i])
                assert_same_as_old_route(prop, values, 40, False)

    def test_divisible_on_families(self):
        for seq in (identity_seq(), fibonacci(), lucas(3, 2), from_list(range(1, 500))):
            seq.prefix(400)
            assert classify.is_divisible(seq, 400) == OLD_SCANS["divisible"](seq, 400)

    def test_gcd_on_families(self):
        for seq in (identity_seq(), fibonacci(), lucas(3, 2), lucas(5, 6), g_ab(2, 1),
                    triangular_seq(), divisor_product_of(identity_seq())):
            seq.prefix(150)
            assert classify.is_gcd_sequence(seq, 150) == OLD_SCANS["gcd_sequence"](seq, 150)

    @given(profile_inputs())
    @settings(max_examples=400, deadline=None)
    def test_profile_matches_old_route(self, drawn):
        g, bound = drawn
        f = divisor_product_of(from_list(g))
        assert outcome(classify.divisor_product_profile, f, bound) == outcome(
            old_divisor_product_profile, divisor_product_of(from_list(g)), bound)


# -- the certificates prove passes on their own -------------------------------

def _never(*args):
    pytest.fail("a witness search ran on a passing input")


class TestCertificateLiveness:
    @pytest.mark.parametrize("spec, bound", [("fib", 200), ("I", 2000)])
    def test_passing_gcd_scan_runs_no_pair_scan(self, monkeypatch, spec, bound):
        monkeypatch.setattr(classify, "_gcd_pair_witness", _never)
        assert classify.is_gcd_sequence(parse_seqspec(spec).build(), bound).holds()

    @pytest.mark.parametrize("spec, bound", [("fib", 200), ("I", 2000), ("P(I)", 2000)])
    def test_passing_divisible_scan_runs_no_witness_search(self, monkeypatch, spec, bound):
        monkeypatch.setattr(classify, "_divisible_witness", _never)
        assert classify.is_divisible(parse_seqspec(spec).build(), bound).holds()

    def test_a_failing_lattice_walk_needs_a_failing_pair(self, monkeypatch):
        monkeypatch.setattr(classify, "_gcd_lattice_holds", lambda t, eff: False)
        with pytest.raises(InternalCheckError, match="lattice certificate"):
            classify.is_gcd_sequence(fibonacci(), 30)

    def test_a_failing_prime_step_needs_a_failing_divisor(self, monkeypatch):
        monkeypatch.setattr(classify, "divisors", lambda n: [n])
        with pytest.raises(InternalCheckError, match="prime step"):
            classify.is_divisible(from_list([2, 3]), 2)


# -- the integer round trip still fires ---------------------------------------

def _corrupt(monkeypatch, index, change):
    original = classify._mobius_quotients

    def corrupted(values):
        out = original(values)
        out[index] = change(out[index])
        return out

    monkeypatch.setattr(classify, "_mobius_quotients", corrupted)


CORRUPTIONS = {
    "plus_one": lambda q: q + 1,
    "negated": lambda q: -q,
    "halved": lambda q: q * Fraction(1, 2),
    "doubled": lambda q: q * 2,
}


class TestRoundTripLiveness:
    @pytest.mark.parametrize("index", [0, 1, 5, 29])
    @pytest.mark.parametrize("change", list(CORRUPTIONS), ids=str)
    def test_corrupted_value_is_caught(self, monkeypatch, index, change):
        _corrupt(monkeypatch, index, CORRUPTIONS[change])
        with pytest.raises(InternalCheckError, match="round trip"):
            mobius_invert(fibonacci(), 30)

    def test_corrupted_fraction_is_caught(self, monkeypatch):
        # a spurious denominator on a value that should be an integer
        _corrupt(monkeypatch, 11, lambda q: Fraction(q.numerator, 7))
        with pytest.raises(InternalCheckError):
            mobius_invert(identity_seq(), 20)

    def test_corrupted_inversion_fails_the_divisor_product_check(self, monkeypatch):
        _corrupt(monkeypatch, 3, CORRUPTIONS["plus_one"])
        with pytest.raises(InternalCheckError):
            classify.is_divisor_product(lucas(3, 2), 10)

    def test_invert_command_exits_3(self, capsys, monkeypatch):
        _corrupt(monkeypatch, 5, CORRUPTIONS["plus_one"])
        code = main(["invert", "I", "--terms", "20"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: internal check failed: "
                                "inversion round trip failed at index 6\n")


# -- the inversion builds no table ---------------------------------------------

def _patch_spf(monkeypatch, replacement):
    for module in (numtheory, classify):
        monkeypatch.setattr(module, "smallest_prime_factors", replacement)


class TestInversionBuildsNoTable:
    def test_inversion_needs_no_spf_table(self, monkeypatch):
        _patch_spf(monkeypatch, lambda limit: pytest.fail("built an spf table"))
        assert mobius_invert(parse_seqspec("P(I)").build(), 300) == list(range(1, 301))

    def test_profile_run_builds_one_spf_table(self, monkeypatch, capsys):
        calls = []
        original = numtheory.smallest_prime_factors

        def counted(limit):
            calls.append(limit)
            return original(limit)

        _patch_spf(monkeypatch, counted)
        assert main(["classify", "P(I)", "--bound", "300", "--profile"]) == 1
        assert "profile gcd_sequence: fails" in capsys.readouterr().out
        assert calls == [300]


# -- the profile inverts once --------------------------------------------------

class TestProfileInvertsOnce:
    @pytest.mark.parametrize("spec", ["fib", "P(I)", "list:1,2,2,2,2,2,2,2,2,2,2,2",
                                      "lucas:3,2", "I"])
    def test_one_inversion_per_profile(self, monkeypatch, spec):
        from binomid.cli import parse_seqspec
        calls = []
        original = classify.mobius_invert

        def counted(f, count):
            calls.append(count)
            return original(f, count)

        monkeypatch.setattr(classify, "mobius_invert", counted)
        profile = classify.divisor_product_profile(parse_seqspec(spec).build(), 12)
        assert calls == [12]
        assert profile.bound == 12

    def test_precondition_witness_is_the_divisor_product_witness(self, w_ones_then_twos):
        profile = classify.divisor_product_profile(w_ones_then_twos, 8)
        assert not profile.precondition_ok
        assert profile.precondition_witness == {
            "reason": "not a divisor-product", "n": 6, "value": Fraction(1, 2)}
        assert profile.precondition_witness == {
            "reason": "not a divisor-product",
            **classify.is_divisor_product(w_ones_then_twos, 8).witness}

    def test_first_term_precondition_skips_the_inversion(self, monkeypatch):
        monkeypatch.setattr(classify, "mobius_invert",
                            lambda f, count: pytest.fail("inverted"))
        profile = classify.divisor_product_profile(from_list([2, 4]), 2)
        assert profile.precondition_witness == {"reason": "first term is not 1",
                                                "value": 2}


# -- the profile's gcd criterion against every pair of g ------------------------

def old_profile_gcd_witness(g, eff):
    """The profile's gcd criterion before it read the lattice certificate's
    verdict: every pair m < n of g with m not dividing n."""
    for m in range(2, eff + 1):
        for n in range(m + 1, eff + 1):
            if n % m:
                common = gcd(g[m - 1], g[n - 1])
                if common != 1:
                    return {"m": m, "n": n, "gcd": common}
    return None


def assert_gcd_criterion_matches_every_pair(f, bound):
    profile = classify.divisor_product_profile(f, bound)
    assert profile.precondition_ok
    eff = profile.bound
    g = [q.numerator for q in old_mobius_invert(f.prefix(eff))]
    witness = old_profile_gcd_witness(g, eff)
    crit = profile.criteria[2]
    assert crit.property == "gcd_sequence"
    assert (crit.verdict, crit.witness) == (
        "holds_to_bound" if witness is None else "fails", witness)
    return crit.holds()


@st.composite
def negated_divisor_products(draw):
    """P(list) with g(1) = 1, so f(1) = 1, and some later terms of f negated:
    a negated f(n) only flips the signs of g(n) and of some g at multiples
    of n, so f stays a divisor-product."""
    term = st.sampled_from([1, 1, 1, -1, 2, -2, 3, 5, 4, 6])
    g = [1, *draw(st.lists(term, min_size=1, max_size=24))]
    values = divisor_product_of(from_list(g)).prefix(len(g))
    signs = draw(st.lists(st.booleans(), min_size=len(g), max_size=len(g)))
    values = [-v if negate and n > 1 else v
              for n, (v, negate) in enumerate(zip(values, signs), start=1)]
    return from_list(values), max(1, len(values) - draw(st.integers(0, 2)))


class TestProfileGcdCriterion:
    """A passing gcd criterion is the lattice certificate's verdict, and a
    failing one is the first pair of g the old loop over every pair finds."""

    @given(negated_divisor_products())
    @settings(max_examples=300, deadline=None)
    def test_matches_every_pair_on_negated_divisor_products(self, drawn):
        assert_gcd_criterion_matches_every_pair(*drawn)

    def test_matches_every_pair_on_families(self, phi_seq):
        held = [assert_gcd_criterion_matches_every_pair(f, 60) for f in (
            fibonacci(), lucas(3, 2), lucas(1, 2), identity_seq(), g_ab(2, 1),
            phi_seq, divisor_product_of(identity_seq()),
            parse_seqspec("pow(2,fib)").build(), divisor_product_of(triangular_seq()))]
        assert held == [True, True, True, True, True, False, False, True, False]

    @pytest.mark.parametrize("spec, bound", [("I", 2000), ("fib", 200), ("gq:2", 200)])
    def test_passing_profile_runs_no_pair_loop(self, monkeypatch, spec, bound):
        monkeypatch.setattr(classify, "_coprime_pair_witness", _never)
        profile = classify.divisor_product_profile(parse_seqspec(spec).build(), bound)
        assert profile.criteria[2].holds()

    def test_a_failing_verdict_needs_a_failing_pair(self, monkeypatch):
        monkeypatch.setattr(classify, "_coprime_pair_witness", lambda g, eff: None)
        with pytest.raises(InternalCheckError, match="profile criterion gcd_sequence"):
            classify.divisor_product_profile(divisor_product_of(identity_seq()), 12)


# -- the prefix-extending Lucas rule ------------------------------------------

def recurrence(p, q, count):
    prev, cur, out = 0, 1, []
    for _ in range(count):
        out.append(cur)
        prev, cur = cur, p * cur - q * prev
    return out


PQ = [(1, -1), (3, 2), (2, -1), (1, -2), (4, 3), (5, 6), (-3, 7), (2, 5)]


class TestLucasPrefixCache:
    @pytest.mark.parametrize("pq", PQ)
    def test_late_term_first_matches_prefix(self, pq):
        late_first = lucas(*pq)
        assert late_first.term(500) == recurrence(*pq, 500)[-1]
        assert late_first.prefix(500) == lucas(*pq).prefix(500) == recurrence(*pq, 500)

    def test_fibonacci_late_term_first(self):
        late_first = fibonacci()
        last = late_first.term(500)
        assert late_first.prefix(500) == fibonacci().prefix(500)
        assert last == fibonacci().prefix(500)[-1]

    @pytest.mark.parametrize("pq", PQ[:4])
    def test_shuffled_access(self, pq):
        order = list(range(1, 301))
        random.Random(17).shuffle(order)
        seq = lucas(*pq)
        expected = recurrence(*pq, 300)
        for n in order:
            assert seq.term(n) == expected[n - 1]

    def test_zero_term_raises_only_at_its_index(self):
        seq = lucas(0, 1)  # 1, 0, -1, 0, 1, 0, ...
        assert seq.term(3) == -1
        for n in (2, 4, 6):
            with pytest.raises(ZeroTermError) as exc:
                seq.term(n)
            assert exc.value.index == n
        assert seq.term(5) == 1
        assert seq.term(1) == 1
        with pytest.raises(ZeroTermError) as exc:
            seq.term(2)  # a zero is never cached, so it raises again
        assert exc.value.index == 2
        with pytest.raises(ZeroTermError) as exc:
            lucas(0, 1).prefix(3)
        assert exc.value.index == 2

    def test_late_zero_does_not_poison_earlier_terms(self):
        seq = lucas(1, 1)  # period 6: 1, 1, 0, -1, -1, 0
        with pytest.raises(ZeroTermError):
            seq.term(9)
        assert [seq.term(n) for n in (1, 2, 4, 5, 7, 8)] == [1, 1, -1, -1, 1, 1]

    def test_each_term_is_computed_once(self):
        calls = []
        rule = lucas(3, 2)._terms._rule

        def counted(n):
            calls.append(n)
            return rule(n)

        seq = Sequence("counted", counted)
        seq.prefix(200)
        seq.term(100)
        assert calls == list(range(1, 201))
