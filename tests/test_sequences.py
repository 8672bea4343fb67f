import random
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid import (Sequence, UndefinedTermError, ZeroTermError,
                     compose_power, const_seq, cyclotomic_eval,
                     divisor_product_of, divisors, double_terms, factorial_seq,
                     fibonacci, from_list, g_ab, h_m, identity_seq,
                     interleave_ones, lucas, pascal_column, pascal_row,
                     power_seq, prepend_one, product, scalar, triangular_seq)

nonzero_ints = st.integers(-50, 50).filter(lambda v: v != 0)


class TestFromList:
    def test_triangular_prefix(self):
        seq = from_list([1, 3, 6, 10])
        assert seq.prefix(4) == [1, 3, 6, 10]
        assert seq.length == 4

    def test_single_term(self):
        assert from_list([1]).term(1) == 1

    def test_zero_term_rejected_with_index(self):
        with pytest.raises(ZeroTermError) as exc:
            from_list([1, 0, 3])
        assert exc.value.index == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_list([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(nonzero_ints, min_size=1, max_size=20))
    def test_round_trip(self, values):
        assert from_list(values).prefix(len(values)) == values


class TestNamedConstructors:
    def test_identity(self):
        assert identity_seq().term(5) == 5

    def test_triangular(self):
        assert triangular_seq().prefix(5) == [1, 3, 6, 10, 15]

    def test_factorial(self):
        assert factorial_seq().term(5) == 120

    def test_const_and_power(self):
        assert const_seq(-3).prefix(3) == [-3, -3, -3]
        assert power_seq(2).prefix(4) == [2, 4, 8, 16]

    def test_zero_arguments_rejected(self):
        with pytest.raises(ValueError):
            const_seq(0)
        with pytest.raises(ValueError):
            power_seq(0)

    def test_pascal_column(self):
        assert pascal_column(3).prefix(5) == [1, 4, 10, 20, 35]
        assert pascal_column(0).prefix(3) == [1, 1, 1]

    def test_pascal_row(self):
        row = pascal_row(4)
        assert row.prefix(5) == [1, 4, 6, 4, 1]
        assert row.length == 5

    def test_pascal_row_overrun_is_undefined(self):
        with pytest.raises(UndefinedTermError) as exc:
            pascal_row(4).term(6)
        assert exc.value.index == 6


class TestGab:
    def test_mersenne_values(self):
        assert g_ab(2, 1).prefix(6) == [1, 3, 7, 15, 31, 63]

    def test_equal_arguments_take_the_limit_rule(self):
        assert g_ab(3, 3).prefix(4) == [1, 6, 27, 108]

    def test_power_tail_when_one_argument_is_zero(self):
        assert g_ab(0, 5).prefix(3) == [1, 5, 25]

    def test_zero_term_surfaces_on_materialization(self):
        seq = g_ab(1, -1)
        assert seq.term(1) == 1
        with pytest.raises(ZeroTermError) as exc:
            seq.term(2)
        assert exc.value.index == 2

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            g_ab(0, 0)


class TestLucas:
    def test_fibonacci_values(self):
        assert lucas(1, -1).prefix(7) == [1, 1, 2, 3, 5, 8, 13]
        assert fibonacci().prefix(7) == [1, 1, 2, 3, 5, 8, 13]

    def test_mersenne_recurrence(self):
        assert lucas(3, 2).prefix(5) == [1, 3, 7, 15, 31]

    def test_double_root_gives_identity(self):
        assert lucas(2, 1).prefix(4) == [1, 2, 3, 4]

    def test_agrees_with_gab_to_50(self):
        assert lucas(3, 2).prefix(50) == g_ab(2, 1).prefix(50)

    def test_zero_terms_reported_at_requested_index(self):
        seq = lucas(1, 1)
        with pytest.raises(ZeroTermError) as exc:
            seq.term(3)
        assert exc.value.index == 3
        assert seq.term(4) == -1
        with pytest.raises(ZeroTermError) as exc:
            seq.term(6)
        assert exc.value.index == 6

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            lucas(0, 0)


class TestDivisorProduct:
    def test_of_cyclotomic_values_gives_mersenne(self):
        g = Sequence("phi2", lambda n: cyclotomic_eval(n, 2, 1))
        assert divisor_product_of(g).prefix(6) == [1, 3, 7, 15, 31, 63]

    def test_of_spike_gives_constant(self):
        delta = from_list([7, 1, 1, 1, 1, 1])
        assert divisor_product_of(delta).prefix(6) == [7] * 6

    def test_of_inverted_fibonacci_prefix(self):
        b = from_list([1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6])
        assert divisor_product_of(b).prefix(12) == fibonacci().prefix(12)

    def test_product_homomorphism_on_random_inputs(self):
        rng = random.Random(411)
        for _ in range(5):
            g = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(100)]
            h = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(100)]
            gh = from_list([x * y for x, y in zip(g, h)])
            lhs = divisor_product_of(gh)
            rhs = product(divisor_product_of(from_list(g)),
                          divisor_product_of(from_list(h)))
            assert lhs.prefix(100) == rhs.prefix(100)

    def test_commutes_with_pointwise_powers(self):
        rng = random.Random(412)
        g = from_list([rng.choice([v for v in range(-9, 10) if v])
                       for _ in range(100)])
        lhs = compose_power(3, divisor_product_of(g))
        rhs = divisor_product_of(compose_power(3, g))
        assert lhs.prefix(100) == rhs.prefix(100)


class TestCombinators:
    def test_product_squares(self):
        assert product(identity_seq(), identity_seq()).prefix(4) == [1, 4, 9, 16]

    def test_interleave_ones(self):
        seq = interleave_ones(from_list([2, 3]))
        assert seq.prefix(4) == [1, 2, 1, 3]
        assert seq.length == 4

    def test_prepend_one(self):
        seq = prepend_one(from_list([2, 3]))
        assert seq.prefix(3) == [1, 2, 3]
        assert seq.length == 3

    def test_double_terms(self):
        seq = double_terms(from_list([2, 3]))
        assert seq.prefix(4) == [2, 2, 3, 3]
        assert seq.length == 4

    def test_compose_power_squares_fibonacci(self):
        assert compose_power(2, fibonacci()).prefix(5) == [1, 1, 4, 9, 25]

    def test_compose_power_zero_gives_ones(self):
        assert compose_power(0, fibonacci()).prefix(4) == [1, 1, 1, 1]

    def test_scalar(self):
        assert scalar(-2, identity_seq()).prefix(3) == [-2, -4, -6]
        with pytest.raises(ValueError):
            scalar(0, identity_seq())

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            compose_power(-1, identity_seq())

    def test_product_length_tracks_shorter_operand(self):
        seq = product(from_list([1, 2, 3]), identity_seq())
        assert seq.length == 3

    @pytest.mark.parametrize("wrap", [
        lambda f: product(f, const_seq(1)),
        lambda f: scalar(-1, f),
        lambda f: compose_power(1, f),
    ], ids=["product", "scalar", "pow"])
    def test_nesting_300_deep(self, wrap):
        # a term miss costs three frames per level (the store's subscript,
        # `__missing__` and the rule), so 300 levels fit in 1000 frames
        seq = identity_seq()
        for _ in range(300):
            seq = wrap(seq)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 1000)
        try:
            assert seq.prefix(3) == [1, 2, 3]
        finally:
            sys.setrecursionlimit(limit)


class TestHm:
    def test_values(self):
        assert h_m(2).prefix(4) == [1, 6, 15, 28]
        assert h_m(1).prefix(3) == [1, 2, 3]
        assert h_m(3).term(2) == 20

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            h_m(0)


class TestSequenceBehavior:
    def test_overrun_is_undefined_not_zero(self):
        seq = from_list([1, 2])
        with pytest.raises(UndefinedTermError):
            seq.term(3)
        with pytest.raises(UndefinedTermError):
            seq.term(0)
        with pytest.raises(UndefinedTermError):
            seq.term(-1)

    def test_repeated_queries_agree(self):
        seq = fibonacci()
        assert seq.term(30) == seq.term(30)

    def test_concurrent_materialization_is_consistent(self):
        seq = fibonacci()
        results = []

        def worker():
            results.append([seq.term(n) for n in range(1, 40)])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_rule_may_read_its_own_earlier_terms(self):
        x = Sequence("rec", lambda n: 1 if n == 1 else 2 * x.term(n - 1))
        results = []
        thread = threading.Thread(target=lambda: results.append(x.term(5)),
                                  daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), "self-referential rule deadlocked"
        assert results == [16]
        assert x.prefix(5) == [1, 2, 4, 8, 16]


class TestDivisorProductSieve:
    """P(g) reads g in ascending divisor order and reports the same terms
    and errors as a rule over trial-division divisors through `g.term`."""

    @staticmethod
    def trial_division_product(g):
        def rule(n):
            total = 1
            for d in divisors(n):
                total *= g.term(d)
            return total
        return Sequence("P", rule, length=g.length)

    @staticmethod
    def logged(values, calls):
        def rule(n):
            calls.append(n)
            return values[n - 1]
        return Sequence("g", rule, length=len(values))

    @staticmethod
    def read(f, n):
        try:
            return f.term(n)
        except (ZeroTermError, UndefinedTermError) as exc:
            return type(exc), exc.index

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, -1, 2, 3, -5, 7]), min_size=1, max_size=80),
           st.lists(st.integers(-2, 90), max_size=30))
    def test_same_terms_errors_and_reads_of_g(self, values, order):
        sieve_calls, trial_calls = [], []
        sieved = divisor_product_of(self.logged(values, sieve_calls))
        trial = self.trial_division_product(self.logged(values, trial_calls))
        for n in order:
            assert self.read(sieved, n) == self.read(trial, n)
        assert sieve_calls == trial_calls

    def test_late_index_first_then_past_the_sieve(self):
        f = divisor_product_of(identity_seq())
        ref = self.trial_division_product(identity_seq())
        for n in (1000, 7, 1001, 2003, 5000, 1):
            assert f.term(n) == ref.term(n)
        assert f.prefix(300) == ref.prefix(300)


class TestTermFastPath:
    """`term` answers from the cache before checking the index; the cache
    holds only defined, nonzero terms."""

    def test_undefined_indices_raise_after_every_term_is_cached(self):
        seq = from_list([3, 1, 4, 1, 5])
        assert seq.prefix(5) == [3, 1, 4, 1, 5]
        for n in (0, -1, 6):
            with pytest.raises(UndefinedTermError) as exc:
                seq.term(n)
            assert exc.value.index == n

    def test_zero_term_is_never_cached(self):
        calls = []

        def rule(n):
            calls.append(n)
            return 0 if n == 3 else n

        seq = Sequence("zero at 3", rule)
        assert seq.prefix(2) == [1, 2]
        for _ in range(3):
            with pytest.raises(ZeroTermError) as exc:
                seq.term(3)
            assert exc.value.index == 3
        assert seq.term(4) == 4
        assert calls == [1, 2, 3, 3, 3, 4]

    def test_each_rule_call_happens_once_under_concurrent_reads(self):
        calls = Counter()
        count_lock = threading.Lock()

        def rule(n):
            with count_lock:
                calls[n] += 1
            time.sleep(0.0002)  # widen the window between miss and store
            return n * n + 1

        seq = Sequence("slow squares", rule)
        start = threading.Barrier(8)
        results = []

        def worker(seed):
            order = list(range(1, 61))
            random.Random(seed).shuffle(order)
            start.wait()
            results.append({n: seq.term(n) for n in order})

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(r == {n: n * n + 1 for n in range(1, 61)} for r in results)
        assert calls == Counter(range(1, 61))
