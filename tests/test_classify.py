import dataclasses
import gc
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomid.classify
from binomid import (FAILS, HOLDS, InternalCheckError, Sequence,
                     UndefinedTermError, ZeroTermError,
                     additive_binomid_check, battery, col_seq, compose_power,
                     divisor_product_of, divisor_product_profile, divisors,
                     factorial_seq,
                     fbinom, fibonacci, from_list, g_ab, identity_seq,
                     is_binomid, is_binomid_at_level, is_binomid_every_level,
                     is_divisible, is_divisor_chain, is_divisor_product,
                     is_dual_gcd, is_gcd_sequence, is_homomorphic,
                     is_multiplicative, lucas, mobius_invert,
                     per_prime_decomposition, power_seq, scalar,
                     triangular_seq)
from binomid.cli import main


def nonzero(rng, lo=-9, hi=9):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


class TestIsBinomid:
    def test_mersenne_holds(self):
        rep = is_binomid(g_ab(2, 1), 20)
        assert rep.holds() and rep.witness is None

    def test_power_of_two_example_fails_at_6_3(self, two_pow_a):
        rep = is_binomid(two_pow_a, 8)
        assert rep.verdict == FAILS
        assert rep.witness["n"] == 6
        assert rep.witness["k"] == 3
        assert rep.witness["m"] == 3
        assert rep.witness["value"] == Fraction(1, 2)

    def test_divisible_example_fails_at_m4_k3(self, h_divisible):
        rep = is_binomid(h_divisible, 8)
        assert rep.verdict == FAILS
        assert rep.witness["m"] == 4
        assert rep.witness["k"] == 3

    def test_witness_is_recheckable(self, h_divisible):
        w = is_binomid(h_divisible, 8).witness
        assert fbinom(h_divisible, w["n"], w["k"]) == w["value"]
        assert w["value"].denominator != 1

    def test_finite_input_reduces_the_bound(self):
        rep = is_binomid(from_list([1, 2, 6]), 10)
        assert rep.holds()
        assert rep.effective_bound == 3
        assert rep.note is not None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            is_binomid(fibonacci(), 0)

    def test_scalar_invariance(self, two_pow_a):
        for seq in (triangular_seq(), fibonacci(), g_ab(2, 1), two_pow_a):
            base = is_binomid(seq, 10).verdict
            for c in (-3, 5):
                assert is_binomid(scalar(c, seq), 10).verdict == base

    def test_interleavings_preserve_binomid(self):
        from binomid import double_terms, interleave_ones, prepend_one
        for seq in (fibonacci(), g_ab(2, 1), factorial_seq()):
            assert is_binomid(seq, 8).holds()
            assert is_binomid(prepend_one(seq), 16).holds()
            assert is_binomid(interleave_ones(seq), 16).holds()
            assert is_binomid(double_terms(seq), 16).holds()


class TestAtLevel:
    def test_triangular_holds_at_level_one(self):
        assert is_binomid_at_level(triangular_seq(), 1, 20).holds()

    def test_triangular_fails_at_level_two(self):
        rep = is_binomid_at_level(triangular_seq(), 2, 6)
        assert rep.verdict == FAILS
        assert rep.witness["level"] == 2
        assert (rep.witness["n"], rep.witness["k"]) == (4, 2)
        assert rep.witness["value"] == Fraction(500, 3)

    def test_level_zero_is_trivial(self):
        assert is_binomid_at_level(fibonacci(), 0, 10).holds()

    def test_power_of_two_example_is_binomid_at_level_two(self, two_pow_a):
        # not binomid itself, but its second column is, well past the witness
        assert is_binomid(two_pow_a, 8).verdict == FAILS
        assert is_binomid_at_level(two_pow_a, 2, 8).holds()

    def test_non_integral_column_entry_is_the_witness(self):
        # column 2 of the triangle of 1, 2, 3, 4, 5, 7 reaches [6 2] = 7*5/2
        rep = is_binomid_at_level(from_list([1, 2, 3, 4, 5, 7]), 2, 5)
        assert (rep.property, rep.verdict) == ("binomid_at_level(2)", FAILS)
        assert rep.witness == {"level": 2, "n": 6, "k": 2, "value": Fraction(35, 2)}
        assert rep.note == "column entry is not an integer"


class TestEveryLevel:
    def test_pascal(self):
        assert is_binomid_every_level(identity_seq(), 8, 8).holds()

    def test_factorials_divisor_chain(self):
        assert is_binomid_every_level(factorial_seq(), 8, 10).holds()

    def test_triangular_fails_at_level_two(self):
        rep = is_binomid_every_level(triangular_seq(), 2, 6)
        assert rep.verdict == FAILS
        assert rep.witness["level"] == 2

    def test_non_binomid_base_fails_in_the_rows(self, two_pow_a):
        rep = is_binomid_every_level(two_pow_a, 6, 6)
        assert rep.verdict == FAILS
        assert rep.witness["value"] == Fraction(1, 2)
        assert (rep.witness["n"], rep.witness["k"]) == (6, 3)

    def test_requires_unit_first_term(self):
        with pytest.raises(ValueError):
            is_binomid_every_level(power_seq(2), 4, 6)

    def test_non_integral_pyramid_slice_is_the_witness(self):
        # T's triangle is integral, but slice 5 of its pyramid is not
        rep = is_binomid_every_level(triangular_seq(), 5, 20)
        assert rep.verdict == FAILS
        assert rep.witness == {"slice": 5, "n": 4, "k": 2, "value": Fraction(500, 3)}
        assert rep.note is None

    def test_non_integral_column_entry_is_the_witness(self):
        rep = is_binomid_every_level(from_list([1, 2, 3, 4, 5, 7]), 2, 5)
        assert rep.verdict == FAILS
        assert rep.witness == {"level": 2, "n": 6, "k": 2, "value": Fraction(35, 2)}
        assert rep.note == "column entry is not an integer"


def _bump_slice_entry(pyr, s, n, k):
    rows = [list(row) for row in pyr.slices[s].rows]
    rows[n][k] += 1
    bad = dataclasses.replace(pyr.slices[s], rows=tuple(map(tuple, rows)))
    return dataclasses.replace(pyr, slices=pyr.slices[:s] + (bad,) + pyr.slices[s + 1:])


class TestSlicesMatchColumnsIsLive:
    """Row n of pyramid slice n+m-1 must equal row n of the triangle over
    column m; corrupting one slice entry must raise."""

    def test_intact_pyramid_passes(self):
        pyr = binomid.classify.pyramid(fibonacci(), 6)
        assert binomid.classify._check_slices_match_columns(
            pyr, [col_seq(fibonacci(), m) for m in range(7)]) is None

    @pytest.mark.parametrize("s, n, k", [(1, 1, 0), (3, 2, 1), (6, 6, 3), (6, 1, 1)])
    def test_one_corrupted_entry_is_caught(self, s, n, k):
        pyr = _bump_slice_entry(binomid.classify.pyramid(fibonacci(), 6), s, n, k)
        with pytest.raises(InternalCheckError, match=f"slice {s} row {n} "):
            binomid.classify._check_slices_match_columns(
                pyr, [col_seq(fibonacci(), m) for m in range(7)])

    def test_classify_levels_exits_3(self, capsys, monkeypatch):
        original = binomid.classify.pyramid
        monkeypatch.setattr(binomid.classify, "pyramid",
                            lambda f, depth: _bump_slice_entry(original(f, depth), 4, 3, 1))
        assert main(["classify", "fib", "--bound", "10", "--levels", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: internal check failed: "
                                "slice 4 row 3 disagrees with column 2\n")


class TestMobiusInvert:
    def test_mersenne_gives_cyclotomic_values(self):
        values = mobius_invert(g_ab(2, 1), 10)
        assert values == [1, 3, 7, 5, 31, 3, 127, 17, 73, 11]

    def test_fibonacci_inversion_values(self):
        values = mobius_invert(fibonacci(), 12)
        assert values == [1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6]

    def test_ones_then_twos_has_half_at_six(self, w_ones_then_twos):
        values = mobius_invert(w_ones_then_twos, 6)
        assert values[5] == Fraction(1, 2)

    def test_round_trips_random_integer_inputs_exactly(self):
        rng = random.Random(631)
        for _ in range(4):
            g = [nonzero(rng) for _ in range(60)]
            g[0] = nonzero(rng)
            f = divisor_product_of(from_list(g))
            assert mobius_invert(f, 60) == g

    def test_requires_defined_terms(self):
        with pytest.raises(UndefinedTermError):
            mobius_invert(from_list([1, 2]), 5)


class TestDivisorProduct:
    @pytest.mark.parametrize("pq", [(1, -1), (3, 2), (2, 1)])
    def test_lucas_sequences_hold(self, pq):
        assert is_divisor_product(lucas(*pq), 40).holds()

    def test_ones_then_twos_fails_at_six(self, w_ones_then_twos):
        rep = is_divisor_product(w_ones_then_twos, 6)
        assert rep.verdict == FAILS
        assert rep.witness["n"] == 6
        assert rep.witness["value"] == Fraction(1, 2)

    def test_euler_phi_holds(self, phi_seq):
        assert is_divisor_product(phi_seq, 50).holds()


class TestDivisorChainAndDivisible:
    def test_ones_then_twos_is_a_divisor_chain(self, w_ones_then_twos):
        assert is_divisor_chain(w_ones_then_twos, 20).holds()

    def test_factorials_are_a_divisor_chain(self):
        assert is_divisor_chain(factorial_seq(), 15).holds()

    def test_triangular_is_not_a_divisor_chain(self):
        rep = is_divisor_chain(triangular_seq(), 10)
        assert rep.verdict == FAILS
        assert rep.witness["n"] == 3

    def test_h_is_divisible_but_not_binomid(self, h_divisible):
        assert is_divisible(h_divisible, 10).holds()
        assert is_binomid(h_divisible, 10).verdict == FAILS

    def test_triangular_is_not_divisible(self):
        rep = is_divisible(triangular_seq(), 10)
        assert rep.verdict == FAILS
        assert (rep.witness["k"], rep.witness["n"]) == (2, 4)
        assert (rep.witness["f_k"], rep.witness["f_n"]) == (3, 10)

    def test_fibonacci_is_divisible(self):
        assert is_divisible(fibonacci(), 15).holds()


class TestGcdFamily:
    def test_fibonacci_is_gcd(self):
        assert is_gcd_sequence(fibonacci(), 20).holds()
        f = fibonacci()
        assert gcd(f.term(6), f.term(9)) == f.term(3) == 2

    def test_phi_is_not_gcd(self, phi_seq):
        rep = is_gcd_sequence(phi_seq, 10)
        assert rep.verdict == FAILS
        assert (rep.witness["m"], rep.witness["n"]) == (3, 4)

    def test_factorials_are_not_gcd(self):
        rep = is_gcd_sequence(factorial_seq(), 10)
        assert rep.verdict == FAILS

    def test_dual_gcd_examples(self, w_ones_then_twos):
        assert is_dual_gcd(w_ones_then_twos, 20).holds()
        assert is_dual_gcd(fibonacci(), 20).holds()
        assert is_dual_gcd(factorial_seq(), 20).holds()

    def test_triangular_is_not_dual_gcd(self):
        rep = is_dual_gcd(triangular_seq(), 10)
        assert rep.verdict == FAILS
        assert (rep.witness["m"], rep.witness["n"]) == (2, 2)


class TestMultiplicativeAndHomomorphic:
    def test_phi_is_multiplicative_not_homomorphic(self, phi_seq):
        assert is_multiplicative(phi_seq, 60).holds()
        rep = is_homomorphic(phi_seq, 60)
        assert rep.verdict == FAILS
        assert (rep.witness["a"], rep.witness["b"]) == (2, 2)

    def test_squares_are_homomorphic(self):
        squares = compose_power(2, identity_seq())
        assert is_homomorphic(squares, 60).holds()

    def test_fibonacci_is_not_multiplicative(self):
        rep = is_multiplicative(fibonacci(), 20)
        assert rep.verdict == FAILS
        assert (rep.witness["a"], rep.witness["b"]) == (2, 3)


class TestAdditiveCheck:
    def test_constant_ones_hold(self):
        rep = additive_binomid_check(2, [1] * 20, 20)
        assert rep.holds()

    def test_known_exponent_list_agrees_with_direct_check(self, two_pow_a):
        a = [0, 2, 4, 1, 3, 1, 4, 4, 4]
        rep = additive_binomid_check(2, a, 9)
        assert rep.verdict == FAILS
        assert rep.verdict == is_binomid(two_pow_a, 9).verdict

    def test_random_cross_oracle_base_three(self):
        rng = random.Random(733)
        for _ in range(30):
            b = [rng.randint(0, 3) for _ in range(12)]
            direct = is_binomid(Sequence("3^b", lambda n, b=b: 3 ** b[n - 1],
                                         length=12), 12)
            assert additive_binomid_check(3, b, 12).verdict == direct.verdict

    def test_negative_exponents_are_allowed(self):
        rep = additive_binomid_check(2, [0, -1, 5, 5], 4)
        assert rep.verdict == FAILS
        assert rep.witness["m"] == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            additive_binomid_check(1, [1, 2], 2)
        with pytest.raises(ValueError):
            additive_binomid_check(2, [1], 5)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=1, max_size=40),
        st.lists(st.integers(0, 4), min_size=1, max_size=40),
        st.lists(st.integers(-2, 3), min_size=1, max_size=40)), st.integers(0, 3))
    def test_support_scan_matches_every_pair(self, exponents, extra):
        # with no negative exponent only the m with e(m) > 0 are tried; the
        # scan of every pair (m, total - m), kept here, is the oracle
        bound = max(1, len(exponents) - extra)
        sums = [0]
        for e in exponents[:bound]:
            sums.append(sums[-1] + e)
        expected = next(({"m": m, "n": total - m, "lhs": sums[m] + sums[total - m],
                          "rhs": sums[total]}
                         for total in range(2, bound + 1)
                         for m in range(1, total // 2 + 1)
                         if sums[m] + sums[total - m] > sums[total]), None)
        rep = additive_binomid_check(2, exponents, bound)
        assert rep.witness == expected
        assert rep.verdict == (HOLDS if expected is None else FAILS)


class TestPerPrime:
    def test_power_of_two_example(self, two_pow_a):
        decomp = per_prime_decomposition(two_pow_a, 8, 11)
        reports = dict(decomp.reports)
        assert set(reports) == {2}
        assert reports[2].verdict == FAILS
        assert decomp.combined_verdict == FAILS
        assert decomp.undecided == ()

    def test_pascal_identity_all_primes_hold(self):
        decomp = per_prime_decomposition(identity_seq(), 12, 11)
        assert decomp.undecided == ()
        assert all(rep.holds() for _, rep in decomp.reports)

    def test_six_powers_split_into_two_and_three(self):
        decomp = per_prime_decomposition(power_seq(6), 10, 7)
        reports = dict(decomp.reports)
        assert set(reports) == {2, 3}
        assert all(rep.holds() for rep in reports.values())

    def test_large_factor_is_reported_undecided(self):
        decomp = per_prime_decomposition(from_list([1, 13, 1]), 3, 11)
        assert decomp.undecided == ((2, 13),)

    def test_rejects_tiny_prime_bound(self):
        with pytest.raises(ValueError):
            per_prime_decomposition(identity_seq(), 5, 1)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def smooth_lists(draw):
    """Signed terms that factor over SMALL_PRIMES, with their exponents.

    Each prime gets its own exponent column: all zeros leaves the prime
    out, and a sorted column keeps its shadow binomid. A term whose
    exponents are all zero is 1 or -1.
    """
    size = draw(st.integers(1, 10))
    exps = {}
    for p in SMALL_PRIMES:
        top = draw(st.integers(0, 3))
        column = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
        exps[p] = sorted(column) if draw(st.booleans()) else column
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    values = [sign * prod(p ** exps[p][i] for p in SMALL_PRIMES)
              for i, sign in enumerate(signs)]
    return values, exps


def _flip_verdict(monkeypatch, prime):
    original = binomid.classify.additive_binomid_check

    def flipped(c, exponents, bound):
        rep = original(c, exponents, bound)
        if c != prime:
            return rep
        return dataclasses.replace(rep, verdict=FAILS if rep.holds() else HOLDS)

    monkeypatch.setattr(binomid.classify, "additive_binomid_check", flipped)


class TestPerPrimeAgainstShadowRoute:
    """per_prime_decomposition against the route it replaced, kept here as
    the oracle: the full is_binomid on each shadow sequence (p ** v_p(f(n)))."""

    @settings(max_examples=150, deadline=None)
    @given(smooth_lists(), st.sampled_from(SMALL_PRIMES), st.integers(0, 2))
    def test_verdicts_and_witnesses_match(self, drawn, prime_bound, extra):
        values, exps = drawn
        eff = len(values)
        decomp = per_prime_decomposition(from_list(values), eff + extra, prime_bound)
        primes = [p for p in SMALL_PRIMES if p <= prime_bound]
        shadows = [(p, is_binomid(from_list([p ** e for e in exps[p]]), eff))
                   for p in primes if any(exps[p])]
        assert [p for p, _ in decomp.reports] == [p for p, _ in shadows]
        for (p, rep), (_, shadow) in zip(decomp.reports, shadows):
            assert rep.property == "binomid_additive"
            assert rep.note == f"additive criterion, base {p}"
            assert (rep.verdict, rep.bound) == (shadow.verdict, shadow.bound)
            if shadow.witness is None:
                assert rep.witness is None
            else:
                w = rep.witness
                # the additive pair (m, n) is the shadow's (k, n-k)
                assert (w["m"], w["n"], w["m"] + w["n"]) == (
                    shadow.witness["k"], shadow.witness["m"], shadow.witness["n"])
                assert shadow.witness["value"] == Fraction(p) ** (w["rhs"] - w["lhs"])
        undecided = tuple(
            (i, c) for i, c in enumerate(
                (prod(p ** exps[p][i] for p in SMALL_PRIMES if p > prime_bound)
                 for i in range(eff)), start=1)
            if c > 1)
        assert decomp.undecided == undecided
        assert decomp.effective_bound == eff
        assert decomp.combined_verdict == (
            HOLDS if all(shadow.holds() for _, shadow in shadows) else FAILS)

    def test_direct_check_runs_once_and_only_when_every_term_factors(
            self, monkeypatch):
        calls = []

        def counted(f, bound):
            calls.append(f.name)
            return is_binomid(f, bound)

        monkeypatch.setattr(binomid.classify, "is_binomid", counted)
        per_prime_decomposition(power_seq(6), 10, 7)
        assert calls == ["cpow:6"]
        calls.clear()
        per_prime_decomposition(from_list([1, 13, 1]), 3, 11)
        assert calls == []

    @pytest.mark.parametrize("prime", [2, 3])
    def test_flipped_prime_verdict_is_caught(self, monkeypatch, prime):
        _flip_verdict(monkeypatch, prime)
        with pytest.raises(InternalCheckError):
            per_prime_decomposition(power_seq(6), 10, 7)

    def test_flipped_failing_verdict_is_caught(self, monkeypatch, two_pow_a):
        _flip_verdict(monkeypatch, 2)
        with pytest.raises(InternalCheckError):
            per_prime_decomposition(two_pow_a, 8, 11)

    def test_classify_per_prime_exits_3(self, capsys, monkeypatch):
        _flip_verdict(monkeypatch, 3)
        code = main(["classify", "cpow:6", "--bound", "10", "--only", "binomid",
                     "--per-prime", "7"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: internal check failed: per-prime "
                                "conjunction disagrees with direct check\n")


def profile_verdicts(profile):
    return [(crit.property, crit.verdict) for crit in profile.criteria]


class TestProfile:
    def test_phi_profile(self, phi_seq):
        profile = divisor_product_profile(phi_seq, 40)
        assert profile.precondition_ok
        assert profile_verdicts(profile) == [
            ("multiplicative", HOLDS), ("homomorphic", FAILS), ("gcd_sequence", FAILS)]

    def test_fibonacci_profile(self):
        profile = divisor_product_profile(fibonacci(), 30)
        assert profile.precondition_ok
        assert profile_verdicts(profile) == [
            ("multiplicative", FAILS), ("homomorphic", FAILS), ("gcd_sequence", HOLDS)]

    def test_squares_profile_is_homomorphic(self):
        profile = divisor_product_profile(compose_power(2, identity_seq()), 30)
        assert profile.precondition_ok
        assert profile_verdicts(profile) == [
            ("multiplicative", HOLDS), ("homomorphic", HOLDS), ("gcd_sequence", HOLDS)]

    def test_geometric_fails_the_first_term_precondition(self):
        profile = divisor_product_profile(power_seq(2), 20)
        assert not profile.precondition_ok
        assert profile.precondition_witness["value"] == 2

    def test_non_divisor_product_fails_the_precondition(self, w_ones_then_twos):
        profile = divisor_product_profile(w_ones_then_twos, 10)
        assert not profile.precondition_ok
        assert profile.precondition_witness["n"] == 6


class TestImplications:
    def test_chain_on_mixed_family(self, phi_seq, w_ones_then_twos, h_divisible):
        family = [fibonacci(), g_ab(2, 1), lucas(4, 1), phi_seq, identity_seq(),
                  factorial_seq(), power_seq(2), w_ones_then_twos, h_divisible,
                  triangular_seq()]
        bound = 14
        for f in family:
            gcd_v = is_gcd_sequence(f, bound).holds()
            dual_v = is_dual_gcd(f, bound).holds()
            binomid_v = is_binomid(f, bound).holds()
            dp_v = is_divisor_product(f, bound).holds()
            div_v = is_divisible(f, bound).holds()
            if gcd_v:
                assert dual_v and dp_v, f.name
            if dual_v:
                assert binomid_v, f.name
            if dp_v:
                assert div_v, f.name

    def test_non_implications_are_witnessed(self, w_ones_then_twos, h_divisible):
        # divisible does not give binomid
        assert is_divisible(h_divisible, 10).holds()
        assert not is_binomid(h_divisible, 10).holds()
        # dual-gcd does not give divisor-product
        assert is_dual_gcd(w_ones_then_twos, 12).holds()
        assert not is_divisor_product(w_ones_then_twos, 12).holds()
        # binomid does not give divisible
        assert is_binomid(triangular_seq(), 12).holds()
        assert not is_divisible(triangular_seq(), 12).holds()


signed_terms = st.one_of(st.sampled_from([1, -1]), st.integers(-6, 6).filter(bool))
signed_lists = st.lists(signed_terms, min_size=1, max_size=9)


def implication_chain(f, bound):
    """Check every premise => conclusion pair of `classify._IMPLIES` by
    running both scans at one bound; return the premises that held."""
    table = binomid.classify._IMPLIES
    names = {*table, *(name for implied in table.values() for name in implied)}
    held = {name: getattr(binomid.classify, f"is_{name}")(f, bound).holds()
            for name in sorted(names)}
    for premise, implied in table.items():
        if held[premise]:
            for name in implied:
                assert held[name], (f.name, premise, name)
    return {premise: held[premise] for premise in table}


class TestImplicationProperty:
    """Every implication `classify.battery` relies on (`classify._IMPLIES`:
    gcd => dual-gcd, divisor-product, divisible and binomid, dual-gcd =>
    binomid, divisor-product => divisible), over random inputs. The pair
    scans and the Mobius inversion share no code with the triangle kernel,
    so this also checks the kernel's binomid verdict."""

    def test_table_names_only_properties(self):
        table = binomid.classify._IMPLIES
        assert set(table) <= set(binomid.classify.PROPERTIES)
        for implied in table.values():
            assert set(implied) <= set(binomid.classify.PROPERTIES)

    @settings(max_examples=200, deadline=None)
    @given(signed_lists)
    def test_on_signed_lists(self, values):
        implication_chain(from_list(values), len(values))

    @settings(max_examples=200, deadline=None)
    @given(signed_lists)
    def test_on_divisor_products(self, values):
        implication_chain(divisor_product_of(from_list(values)), len(values))

    def test_every_premise_fires(self):
        rng = random.Random(61)
        fired = dict.fromkeys(binomid.classify._IMPLIES, 0)
        for _ in range(300):
            values = [rng.choice([1, -1, 1, -1, 2, -2, 3, 4, 6])
                      for _ in range(rng.randint(1, 8))]
            for f in (from_list(values), divisor_product_of(from_list(values))):
                for name, held in implication_chain(f, len(values)).items():
                    fired[name] += held
        assert min(fired.values()) >= 100, fired


class TestColumnReuse:
    def test_level_verdict_matches_manual_column_check(self):
        g = col_seq(triangular_seq(), 2)
        rep = is_binomid(g, 6)
        level = is_binomid_at_level(triangular_seq(), 2, 6)
        assert rep.verdict == level.verdict == FAILS
        assert rep.witness["value"] == level.witness["value"]


class TestOpenObservations:
    def test_dual_gcd_inputs_record_level_outcomes_without_a_claim(
            self, w_ones_then_twos):
        # empirical record only: no implication from dual-gcd to every level
        assert is_dual_gcd(w_ones_then_twos, 12).holds()
        assert is_binomid_every_level(w_ones_then_twos, 6, 10).holds()

    def test_every_level_depth_reduces_on_finite_input(self):
        rep = is_binomid_every_level(from_list([1, 2, 6, 24]), 9, 12)
        assert rep.holds()
        assert "depth reduced to 4" in rep.note


# The pair scans as they read terms before the per-scan memo: one
# `Sequence.term` call per read, divisors by trial division. They are the
# oracle for the memo's touch order, errors and witnesses.

def direct_divisor_chain(f, bound):
    eff, reduced, note = binomid.classify._capped(f, bound)
    witness = None
    for n in range(1, eff):
        f_n = f.term(n)
        if f.term(n + 1) % f_n:
            witness = {"n": n, "f_n": f_n, "f_next": f.term(n + 1)}
            break
    return binomid.classify._report("divisor_chain", bound, witness, reduced, note)


def direct_divisible(f, bound):
    eff, reduced, note = binomid.classify._capped(f, bound)
    witness = None
    for n in range(2, eff + 1):
        for k in divisors(n)[:-1]:
            f_k = f.term(k)
            if f.term(n) % f_k:
                witness = {"k": k, "n": n, "f_k": f_k, "f_n": f.term(n)}
                break
        if witness:
            break
    return binomid.classify._report("divisible", bound, witness, reduced, note)


def direct_gcd_sequence(f, bound):
    eff, reduced, note = binomid.classify._capped(f, bound)
    witness = None
    for m in range(1, eff + 1):
        for n in range(m + 1, eff + 1):
            got = gcd(abs(f.term(m)), abs(f.term(n)))
            expected = abs(f.term(gcd(m, n)))
            if got != expected:
                witness = {"m": m, "n": n, "gcd": got, "expected": expected}
                break
        if witness:
            break
    return binomid.classify._report("gcd_sequence", bound, witness, reduced, note)


def direct_dual_gcd(f, bound):
    eff, reduced, note = binomid.classify._capped(f, bound)
    witness = None
    for m in range(1, eff // 2 + 1):
        for n in range(m, eff - m + 1):
            g = gcd(abs(f.term(m)), abs(f.term(n)))
            if f.term(m + n) % g:
                witness = {"m": m, "n": n, "gcd": g, "f_sum": f.term(m + n)}
                break
        if witness:
            break
    return binomid.classify._report("dual_gcd", bound, witness, reduced, note)


def direct_product_rule(prop, coprime_only):
    def witness_of(f, eff):
        for a in range(1, eff + 1):
            b = a
            while a * b <= eff:
                if not coprime_only or gcd(a, b) == 1:
                    lhs = f.term(a) * f.term(b)
                    rhs = f.term(a * b)
                    if lhs != rhs:
                        return {"a": a, "b": b, "product_of_terms": lhs,
                                "term_of_product": rhs}
                b += 1
        return None

    def scan(f, bound):
        eff, reduced, note = binomid.classify._capped(f, bound)
        return binomid.classify._report(prop, bound, witness_of(f, eff), reduced, note)
    return scan


SCANS = [
    (is_divisor_chain, direct_divisor_chain),
    (is_divisible, direct_divisible),
    (is_gcd_sequence, direct_gcd_sequence),
    (is_dual_gcd, direct_dual_gcd),
    (is_multiplicative, direct_product_rule("multiplicative", True)),
    (is_homomorphic, direct_product_rule("homomorphic", False)),
]
SCAN_IDS = [fast.__name__ for fast, _ in SCANS]


def recorded(values, calls):
    """A finite sequence over `values` (zeros allowed) logging each rule call."""
    def rule(n):
        calls.append(n)
        return values[n - 1]
    return Sequence("recorded", rule, length=len(values))


def outcome(scan, f, bound, warm):
    for n in warm:  # terms some earlier scan already read, or failed to
        try:
            f.term(n)
        except ZeroTermError:
            pass
    try:
        return scan(f, bound)
    except (ZeroTermError, UndefinedTermError) as exc:
        return type(exc), exc.index


@st.composite
def lists_with_zeros(draw):
    length = draw(st.integers(1, 12))
    term = st.sampled_from([0, 1, -1, 1, 2, -2, 3, 4, -4, 6, 12])
    values = draw(st.lists(term, min_size=length, max_size=length))
    bound = draw(st.integers(1, 14))
    warm = draw(st.lists(st.integers(1, length), max_size=3))
    return values, bound, warm


class TestScansAgainstDirectReads:
    """Each scan reads terms through a per-scan memo; its report or error and
    the order of rule calls must be those of one `f.term` call per read."""

    @pytest.mark.parametrize("fast, direct", SCANS, ids=SCAN_IDS)
    @settings(max_examples=150, deadline=None)
    @given(lists_with_zeros())
    def test_same_outcome_and_rule_calls(self, fast, direct, drawn):
        values, bound, warm = drawn
        fast_calls, direct_calls = [], []
        got = outcome(fast, recorded(values, fast_calls), bound, warm)
        expected = outcome(direct, recorded(values, direct_calls), bound, warm)
        assert got == expected
        assert fast_calls == direct_calls

    @pytest.mark.parametrize("fast, direct", SCANS, ids=SCAN_IDS)
    @settings(max_examples=60, deadline=None)
    @given(lists_with_zeros())
    def test_same_on_divisor_products(self, fast, direct, drawn):
        # P(g) reads g at every divisor, so a zero of g surfaces at the
        # first index of P whose divisors reach it
        values, bound, warm = drawn
        fast_calls, direct_calls = [], []
        got = outcome(fast, divisor_product_of(recorded(values, fast_calls)),
                      bound, warm)
        expected = outcome(direct, divisor_product_of(recorded(values, direct_calls)),
                           bound, warm)
        assert got == expected
        assert fast_calls == direct_calls

    @pytest.mark.parametrize("fast, direct", SCANS, ids=SCAN_IDS)
    def test_same_on_named_families(self, fast, direct, phi_seq, h_divisible):
        for make in (fibonacci, lambda: lucas(3, 2), identity_seq,
                     triangular_seq, factorial_seq, lambda: phi_seq,
                     lambda: h_divisible, lambda: compose_power(2, identity_seq())):
            assert fast(make(), 40) == direct(make(), 40)

    def test_every_outcome_kind_occurs(self):
        # the drawn lists reach passes, witnesses and zero terms alike
        rng = random.Random(62)
        kinds = set()
        for _ in range(300):
            values = [rng.choice([0, 1, -1, 1, 2, -2, 3, 4, 6])
                      for _ in range(rng.randint(1, 10))]
            for fast, _ in SCANS:
                got = outcome(fast, recorded(values, []), len(values), [])
                kinds.add(got[0] if isinstance(got, tuple) else got.verdict)
        assert kinds == {HOLDS, FAILS, ZeroTermError}


class TestScansReadInAscendingOrder:
    """Every scan first reads f(1), f(2), ..., f(k) in that order, so every
    scan that raises raises the error of the same term. A block fill of
    P(list) may read the list ahead of the scan, and calls its rule again at
    a failing index (`check_fill_calls`); a plain list has no block rule."""

    @pytest.mark.parametrize("wrap", [lambda f: f, divisor_product_of],
                             ids=["list", "P(list)"])
    @pytest.mark.parametrize("name", binomid.classify.PROPERTIES)
    @settings(max_examples=100, deadline=None)
    @given(lists_with_zeros())
    def test_first_reads_are_one_to_k(self, name, wrap, check_fill_calls, drawn):
        values, bound, _ = drawn
        calls = []
        outcome(getattr(binomid.classify, f"is_{name}"),
                wrap(recorded(values, calls)), bound, [])
        if wrap is not divisor_product_of:
            assert calls == list(range(1, len(calls) + 1))
            return
        # Read by the one-term rule alone, P(n) calls g(n) last, so the
        # highest rule call is the highest index the scan reads.
        one_term_calls = []
        f = wrap(recorded(values, one_term_calls))
        f._terms._block = None
        outcome(getattr(binomid.classify, f"is_{name}"), f, bound, [])
        check_fill_calls([(n, True) for n in calls], values, max(one_term_calls, default=0))


def raised_or_returned(run):
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def separate_calls(f, bound, names):
    return [getattr(binomid.classify, f"is_{name}")(f, bound) for name in names]


property_subsets = st.lists(st.sampled_from(binomid.classify.PROPERTIES),
                            min_size=1, unique=True)


class TestBatteryAgainstSeparateCalls:
    """`battery` returns what one `is_<name>` call per name returns, or
    raises the same error: the error of the first raising call."""

    @pytest.mark.parametrize("wrap", [lambda f: f, divisor_product_of],
                             ids=["list", "P(list)"])
    @settings(max_examples=250, deadline=None)
    @given(lists_with_zeros(), property_subsets)
    def test_same_reports_or_error(self, wrap, drawn, names):
        values, bound, _ = drawn
        got = raised_or_returned(
            lambda: battery(wrap(recorded(values, [])), bound, names))
        expected = raised_or_returned(
            lambda: separate_calls(wrap(recorded(values, [])), bound, names))
        assert got == expected

    def test_error_is_that_of_the_first_raising_call(self):
        # every scan reads f(1) first, so both scans raise at index 1
        values = [0, 0, 1, 1]
        names = ["divisor_chain", "gcd_sequence"]
        expected = (ZeroTermError, "term at index 1 is zero")
        assert raised_or_returned(
            lambda: separate_calls(recorded(values, []), 4, names)) == expected
        assert raised_or_returned(
            lambda: battery(recorded(values, []), 4, names)) == expected

    def test_on_named_families(self, phi_seq, h_divisible, w_ones_then_twos):
        for make in (fibonacci, lambda: lucas(3, 2), lambda: lucas(4, 1),
                     identity_seq, triangular_seq, factorial_seq,
                     lambda: power_seq(2), lambda: g_ab(2, 1),
                     lambda: compose_power(2, identity_seq()),
                     lambda: divisor_product_of(identity_seq()),
                     lambda: phi_seq, lambda: h_divisible,
                     lambda: w_ones_then_twos):
            names = binomid.classify.PROPERTIES
            assert battery(make(), 60, names) == separate_calls(make(), 60, names)

    @pytest.mark.parametrize("make, skipped", [
        (fibonacci, {"dual_gcd", "binomid", "divisor_product", "divisible"}),
        (factorial_seq, {"binomid", "divisible"}),
        (triangular_seq, set()),
    ])
    def test_implied_scans_do_not_run(self, monkeypatch, make, skipped):
        called = []
        for name in binomid.classify.PROPERTIES:
            scan = getattr(binomid.classify, f"is_{name}")
            monkeypatch.setattr(binomid.classify, f"is_{name}",
                                lambda f, bound, scan=scan, name=name:
                                called.append(name) or scan(f, bound))
        battery(make(), 60, binomid.classify.PROPERTIES)
        assert sorted(called) == sorted(set(binomid.classify.PROPERTIES) - skipped)

    def test_nothing_is_implied_at_bound_one(self):
        # at bound 1 the gcd scan reads no term, so binomid must read f(1)
        f = Sequence("zero at 1", lambda n: 0)
        names = ["gcd_sequence", "binomid"]
        expected = (ZeroTermError, "term at index 1 is zero")
        assert raised_or_returned(lambda: battery(f, 1, names)) == expected


class TestOneDecisionPerRun:
    """One classify run decides each property once: `--per-prime` and
    `--profile` read what the battery decided or settled."""

    @pytest.mark.parametrize("argv, scanned", [
        (["fib", "--bound", "60", "--profile", "--per-prime", "7"],
         {"gcd_sequence", "divisor_chain", "multiplicative", "homomorphic"}),
        (["P(I)", "--bound", "60", "--profile", "--per-prime", "7"],
         set(binomid.classify.PROPERTIES) - {"divisible"}),
        (["cpow:6", "--bound", "30", "--only", "binomid", "--per-prime", "7"],
         {"binomid"}),
        (["fact", "--bound", "40", "--only", "divisor_chain", "--per-prime", "41"],
         {"divisor_chain", "binomid"}),
        (["lucas:1,-1", "--bound", "80", "--only", "divisor_product", "--profile"],
         {"divisor_product", "gcd_sequence", "multiplicative", "homomorphic"}),
    ], ids=["fib", "P(I)", "cpow:6", "fact", "lucas:1,-1"])
    def test_no_scan_runs_twice(self, monkeypatch, capsys, argv, scanned):
        calls = []
        for name in ("mobius_invert", *(f"is_{p}" for p in binomid.classify.PROPERTIES)):
            monkeypatch.setattr(binomid.classify, name,
                                lambda *args, run=getattr(binomid.classify, name),
                                name=name: calls.append(name) or run(*args))
        assert main(["classify", *argv]) in (0, 1)
        capsys.readouterr()
        scans = [name for name in calls if name != "mobius_invert"]
        assert sorted(scans) == sorted(f"is_{name}" for name in scanned)
        # the profile inverts f itself, after a divisor-product scan did
        assert calls.count("mobius_invert") == (
            ("--profile" in argv) + ("divisor_product" in scanned))


def full_battery(f, bound):
    for name in binomid.classify.PROPERTIES:
        getattr(binomid.classify, f"is_{name}")(f, bound)
    divisor_product_profile(f, bound)
    per_prime_decomposition(f, bound, 7)


class TestScansKeepNoCycle:
    """The scans read the sequence's own term store, which holds the rule but
    never the sequence, so a finished job's terms are freed by reference
    counting alone."""

    @pytest.fixture(autouse=True)
    def no_cyclic_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        yield
        if was_enabled:
            gc.enable()

    @pytest.mark.parametrize("make", [fibonacci, identity_seq, lambda: lucas(3, 2),
                                      lambda: from_list([1, 2, 2, 4, 2, 4, 2, 8])])
    def test_sequence_is_freed_after_the_battery(self, make):
        f = make()
        ref = weakref.ref(f)
        full_battery(f, 24)
        del f
        assert ref() is None

    def test_sequence_is_freed_after_a_zero_term(self):
        f = Sequence("zero at 5", lambda n: 0 if n == 5 else n)
        ref = weakref.ref(f)
        for name in ("gcd_sequence", "dual_gcd", "divisible", "homomorphic"):
            try:
                getattr(binomid.classify, f"is_{name}")(f, 12)
            except ZeroTermError as exc:
                assert exc.index == 5
            else:
                pytest.fail(f"is_{name} passed over the zero term")
        del f
        assert ref() is None

    def test_divisor_product_and_its_sieve_are_freed(self):
        g = identity_seq()
        f = divisor_product_of(g)
        refs = [weakref.ref(g), weakref.ref(f), weakref.ref(f._terms._rule)]
        full_battery(f, 24)
        f.term(300)  # a late term, past every index the battery read
        del f, g
        assert [ref() for ref in refs] == [None, None, None]


class TestScansKeepNoCopyOfTheTerms:
    """With the terms already read, a scan allocates less than a dict with
    one entry per term: it reads the sequence's own store, not a copy."""

    @pytest.mark.parametrize("scan, bound", [
        (is_multiplicative, 3000), (is_homomorphic, 3000),
        (is_gcd_sequence, 300), (is_dual_gcd, 300)])
    def test_peak_stays_below_a_dict_of_the_terms(self, scan, bound):
        f = identity_seq()
        f.prefix(bound)
        copy_size = sys.getsizeof(dict.fromkeys(range(1, bound + 1)))
        tracemalloc.start()
        try:
            rep = scan(f, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds()
        assert peak < copy_size, (peak, copy_size)
