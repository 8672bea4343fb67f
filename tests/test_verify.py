import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid import (ExponentVector, check_delta_pattern,
                     check_determinant_identity, check_hm_identity,
                     check_recurrence_step, check_slice_identity,
                     check_symmetry, check_window_minimality, const_seq,
                     compose_power, delta, divisor_product_of, fbinom,
                     fbinom_values, ffactorial, fibonacci, from_list, g_ab,
                     generic_factorial_exponents, generic_pyramid_entry,
                     h_m, identity_seq, is_binomid, pascal_row,
                     triangular_seq)
from binomid import CheckResult, Sequence


def brute_factorial_exponents(n):
    # expand the product of generic divisor-product terms one index at a time
    counts = {}
    for j in range(1, n + 1):
        for r in range(1, j + 1):
            if j % r == 0:
                counts[r] = counts.get(r, 0) + 1
    return counts


class TestExponentVector:
    def test_zero_exponents_are_dropped(self):
        assert ExponentVector({1: 0, 2: 3}) == ExponentVector({2: 3})
        assert ExponentVector({}) == ExponentVector()

    def test_lookup_defaults_to_zero(self):
        vec = ExponentVector({2: 3})
        assert vec[2] == 3
        assert vec[7] == 0

    def test_monomial_algebra(self):
        a = ExponentVector({1: 2, 3: 1})
        b = ExponentVector({3: -1, 4: 5})
        assert a * b == ExponentVector({1: 2, 4: 5})
        assert a ** -1 == ExponentVector({1: -2, 3: -1})
        assert a ** 0 == ExponentVector()

    def test_polynomial_test(self):
        assert ExponentVector({2: 1}).is_polynomial()
        assert not ExponentVector({2: -1}).is_polynomial()

    def test_specialize(self):
        vec = ExponentVector({1: 2, 3: -1})
        assert vec.specialize(lambda r: r + 1) == Fraction(4, 4)
        assert vec.specialize(identity_seq()) == Fraction(1, 3)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            ExponentVector({0: 1})


class TestFactorialExponents:
    def test_example_n6(self):
        assert generic_factorial_exponents(6) == ExponentVector(
            {1: 6, 2: 3, 3: 2, 4: 1, 5: 1, 6: 1})

    def test_empty_at_zero(self):
        assert generic_factorial_exponents(0) == ExponentVector()

    def test_example_n4(self):
        assert generic_factorial_exponents(4) == ExponentVector(
            {1: 4, 2: 2, 3: 1, 4: 1})

    def test_matches_brute_force_expansion(self):
        for n in range(21):
            assert generic_factorial_exponents(n) == ExponentVector(
                brute_factorial_exponents(n))

    def test_specializes_to_the_concrete_factorial(self):
        rng = random.Random(829)
        g = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(12)]
        f = divisor_product_of(from_list(g))
        seq = from_list(g)
        for n in range(13):
            assert generic_factorial_exponents(n).specialize(seq) == ffactorial(f, n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generic_factorial_exponents(-1)


class TestDelta:
    def test_examples(self):
        assert delta(2, 6, 4) == 1
        assert delta(2, 6, 0) == 0

    def test_always_zero_or_one(self):
        for m in range(15):
            for r in range(1, 13):
                for j in range(25):
                    assert delta(m, r, j) in (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 12), st.integers(0, 30),
           st.integers(1, 3))
    def test_periodic_in_both_arguments(self, m, r, j, s):
        assert delta(m + r * s, r, j) == delta(m, r, j)
        assert delta(m, r, j + r * s) == delta(m, r, j)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            delta(1, 0, 1)
        with pytest.raises(ValueError):
            delta(-1, 3, 1)


class TestFloorIdentity:
    def test_exhaustive_small_denominators(self):
        for q1 in range(1, 13):
            for p1 in range(q1):
                alpha = Fraction(p1, q1)
                for q2 in range(1, 13):
                    for p2 in range(q2):
                        beta = Fraction(p2, q2)
                        total = alpha + beta
                        floor_sum = total.numerator // total.denominator
                        assert floor_sum == (1 if total >= 1 else 0)


class TestDeltaPattern:
    def test_two_six_pattern(self):
        assert check_delta_pattern(2, 6, 12).ok
        assert [delta(2, 6, j) for j in range(12)] == [0, 0, 0, 0, 1, 1,
                                                       0, 0, 0, 0, 1, 1]

    def test_zero_m_is_all_zeros(self):
        assert check_delta_pattern(0, 5, 10).ok
        assert all(delta(0, 5, j) == 0 for j in range(10))

    def test_three_quarters(self):
        assert check_delta_pattern(3, 4, 8).ok
        assert [delta(3, 4, j) for j in range(8)] == [0, 1, 1, 1, 0, 1, 1, 1]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            check_delta_pattern(6, 6, 12)
        with pytest.raises(ValueError):
            check_delta_pattern(1, 6, 3)


class TestWindowMinimality:
    @pytest.mark.parametrize("m,r,n_max,a_max", [(2, 6, 18, 18), (0, 5, 10, 10),
                                                 (3, 4, 16, 16)])
    def test_examples_hold(self, m, r, n_max, a_max):
        assert check_window_minimality(m, r, n_max, a_max).ok

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            check_window_minimality(1, 0, 5, 5)


class TestGenericPyramidEntry:
    def test_column_one_entry(self):
        assert generic_pyramid_entry(1, 2, 1) == ExponentVector({2: 1})

    def test_k_zero_is_empty(self):
        for m in range(5):
            assert generic_pyramid_entry(m, 4, 0) == ExponentVector()

    def test_frozen_example(self):
        assert generic_pyramid_entry(2, 4, 2) == ExponentVector({4: 2, 5: 1})

    def test_matches_factorial_vector_algebra(self):
        # independent oracle: build the same monomial out of factorial vectors
        for m in range(6):
            for n in range(1, 9):
                for k in range(n + 1):
                    acc = ExponentVector()
                    for N in range(n - k + 1, n + 1):
                        acc = (acc * generic_factorial_exponents(N + m - 1)
                               * generic_factorial_exponents(m) ** -1
                               * generic_factorial_exponents(N - 1) ** -1)
                    for N in range(1, k + 1):
                        acc = (acc * generic_factorial_exponents(N + m - 1) ** -1
                               * generic_factorial_exponents(m)
                               * generic_factorial_exponents(N - 1))
                    assert generic_pyramid_entry(m, n, k) == acc

    def test_nonnegative_components_sample(self):
        for m in range(5):
            for n in range(1, 9):
                for k in range(n + 1):
                    assert generic_pyramid_entry(m, n, k).is_polynomial()

    def test_specialization_reproduces_concrete_columns(self):
        rng = random.Random(907)
        g = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(16)]
        g[0] = 1
        seq = from_list(g)
        f = divisor_product_of(seq)
        for m in range(1, 5):
            colvals = [fbinom(f, N + m - 1, m) for N in range(1, 7)]
            for n in range(1, 7):
                for k in range(n + 1):
                    expected = fbinom_values(colvals, n, k)
                    assert generic_pyramid_entry(m, n, k).specialize(seq) == expected

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            generic_pyramid_entry(-1, 3, 1)
        with pytest.raises(ValueError):
            generic_pyramid_entry(2, 3, 4)


class TestSymmetry:
    def test_palindromic_list_with_rational_center(self):
        f = from_list([1, 2, 4, 4, 2, 1])
        assert check_symmetry(f).ok
        from binomid import triangle
        assert triangle(f, 6).entry(4, 2) == 8

    def test_pascal_row_seven(self):
        assert check_symmetry(pascal_row(7)).ok

    def test_two_ones(self):
        assert check_symmetry(from_list([1, 1])).ok

    def test_asymmetric_input_rejected_with_index(self):
        with pytest.raises(ValueError) as exc:
            check_symmetry(from_list([1, 2, 3]))
        assert "k=1" in str(exc.value)

    def test_unbounded_input_rejected(self):
        with pytest.raises(ValueError):
            check_symmetry(identity_seq())


class TestSliceIdentity:
    def test_pascal_small_range(self):
        assert check_slice_identity(identity_seq(), 6, 4, 6).ok

    def test_row_three_of_column_two_matches_display(self):
        colvals = [fbinom(identity_seq(), N + 1, 2) for N in range(1, 5)]
        row = [fbinom_values(colvals, 3, k) for k in range(4)]
        assert row == [1, 6, 6, 1]

    def test_requires_unit_first_term(self):
        with pytest.raises(ValueError):
            check_slice_identity(const_seq(2), 4, 3, 4)

    @pytest.mark.parametrize("n_max, m_max, k_max", [(0, 4, 6), (6, -1, 6), (6, 4, -3)])
    def test_empty_range_is_rejected(self, n_max, m_max, k_max):
        with pytest.raises(ValueError, match="need n_max >= 1, m_max >= 0 and k_max >= 0"):
            check_slice_identity(identity_seq(), n_max, m_max, k_max)


def fbinom_symmetry(f):
    """check_symmetry as it was before it read a kernel triangle."""
    if f.length is None:
        raise ValueError("symmetry check needs a finite sequence")
    n = f.length
    for k in range(1, n + 1):
        if f.term(k) != f.term(n + 1 - k):
            raise ValueError(f"sequence is not symmetric at k={k}")
    values = f.prefix(n)
    for c in range(n + 1):
        for k in range(n - c + 1):
            col_entry = fbinom_values(values, c + k, c)
            row_entry = fbinom_values(values, n - c, k)
            if col_entry != row_entry:
                return CheckResult("symmetry", False, "rotation_violated",
                                   {"c": c, "k": k, "column_value": col_entry,
                                    "row_value": row_entry})
    return CheckResult("symmetry", True, "holds")


def fbinom_slice_identity(f, n_max, m_max, k_max):
    """check_slice_identity as it was before it read a kernel triangle."""
    if f.term(1) != 1:
        raise ValueError(f"{f.name}: first term must be 1")
    for m in range(m_max + 1):
        colvals = [fbinom(f, N + m - 1, m) for N in range(1, n_max + 1)]
        for n in range(1, n_max + 1):
            rowvals = [fbinom(f, n + m - 1, N - 1) for N in range(1, n + m + 1)]
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


def outcome(check, values, *args):
    # a fresh sequence per route: zero terms raise when first touched
    f = Sequence("z", lambda n: values[n - 1], length=len(values))
    try:
        return check(f, *args)
    except Exception as exc:  # noqa: BLE001 - the type and message are the outcome
        return type(exc).__name__, str(exc)


small_terms = st.sampled_from([0, 1, 1, -1, 2, -2, 3, 4, 6])


@st.composite
def palindromes(draw):
    half = draw(st.lists(small_terms, min_size=1, max_size=5))
    return half + half[::-1][draw(st.integers(0, 1)):]


class TestChecksAgainstFbinomRoute:
    """check_symmetry and check_slice_identity read a kernel triangle; the
    per-entry fbinom routes they replaced, kept above, are the oracle for
    results, witnesses and errors, zero terms and short inputs included."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(palindromes(), st.lists(small_terms, min_size=1, max_size=8)))
    def test_symmetry(self, values):
        assert outcome(check_symmetry, values) == outcome(fbinom_symmetry, values)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(small_terms, min_size=1, max_size=9).map(lambda v: [1] + v),
                     st.lists(small_terms, min_size=1, max_size=9)),
           st.integers(1, 5), st.integers(0, 4), st.integers(0, 5))
    def test_slice_identity(self, values, n_max, m_max, k_max):
        args = (values, n_max, m_max, k_max)
        assert outcome(check_slice_identity, *args) == outcome(fbinom_slice_identity, *args)


class TestDeterminantIdentity:
    def test_hand_checked_two_by_two(self):
        assert check_determinant_identity(3, 1, 2).ok
        assert fbinom(from_list([1, 2, 3, 4, 5]), 4, 2) == comb(4, 2)

    def test_unit_when_n_equals_m(self):
        for m in range(1, 5):
            for k in range(1, 5):
                assert check_determinant_identity(m, m, k).ok

    def test_five_two_three(self):
        assert check_determinant_identity(5, 2, 3).ok

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            check_determinant_identity(2, 3, 1)
        with pytest.raises(ValueError):
            check_determinant_identity(3, 1, 0)


class TestRecurrenceStep:
    def test_fibonacci_with_solved_certificate(self):
        result = check_recurrence_step(fibonacci(), 5, 2)
        assert result.ok and result.status == "holds"
        u, v = result.witness["u"], result.witness["v"]
        f = fibonacci()
        assert u * f.term(4) + v * f.term(2) == f.term(6)

    def test_pascal_rule(self):
        assert check_recurrence_step(identity_seq(), 4, 2, 1, 1).ok

    def test_mersenne_certificate(self):
        assert check_recurrence_step(g_ab(2, 1), 4, 2, 4, 1).ok

    def test_false_hypothesis_is_reported_distinctly(self):
        result = check_recurrence_step(identity_seq(), 4, 2, 2, 2)
        assert not result.ok
        assert result.status == "hypothesis_failed"

    def test_no_certificate_case(self):
        result = check_recurrence_step(from_list([2, 4, 5]), 2, 1)
        assert not result.ok
        assert result.status == "no_certificate"

    def test_rejects_half_given_certificate(self):
        with pytest.raises(ValueError):
            check_recurrence_step(fibonacci(), 5, 2, u=1)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            check_recurrence_step(fibonacci(), 3, 0)


class TestHmIdentity:
    def test_examples(self):
        assert check_hm_identity(2, 3, 1).ok
        assert fbinom(h_m(2), 3, 1) == comb(6, 2) == 15
        assert check_hm_identity(3, 4, 2).ok
        assert fbinom(h_m(3), 4, 2) == comb(12, 6) == 924

    def test_k_zero(self):
        for m in range(1, 4):
            assert check_hm_identity(m, 5, 0).ok

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_hm_identity(0, 3, 1)
        with pytest.raises(ValueError):
            check_hm_identity(2, 3, 4)


class TestDegreeTwoPolynomials:
    def test_all_five_are_binomid_to_25(self):
        polynomials = [const_seq(1), identity_seq(), triangular_seq(),
                       compose_power(2, identity_seq()), h_m(2)]
        for seq in polynomials:
            assert is_binomid(seq, 25).holds(), seq.name
