"""Differential tests of the row kernel behind `triangle`, `row_seq` and
`is_binomid`, against the factorial-quotient route it replaced.

The oracle routes here are the old implementations, kept in tests only:
entries as Fraction(fact[n], fact[k] * fact[n-k]), row extraction by one
`fbinom` per entry, and witnesses by a brute-force scan of the oracle
triangle.

`is_binomid` once decided by the window-divisibility criterion (the
product of the first k terms divides every product of k consecutive
terms); that scan is kept here as a second witness oracle. Before the
dual-gcd and residual steps certified rows, it built and guarded every
row down to the witness; that route is kept as the oracle of both steps
and of the per-prime decomposition.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import binomid.classify
import binomid.core
from binomid import (InternalCheckError, NonIntegralEntryError, Sequence,
                     divisor_product_of, fbinom, fibonacci, from_list,
                     is_binomid, per_prime_decomposition, row_seq, triangle)
from binomid.cli import main, parse_seqspec

nonzero = st.integers(-40, 40).filter(lambda v: v != 0)
signs = st.lists(st.sampled_from([1, -1]), min_size=14, max_size=14)
# signed prefixes of binomid sequences keep integral rows with negative entries
integral_bases = st.sampled_from([
    [n for n in range(1, 15)],
    fibonacci().prefix(14),
    [2 ** n - 1 for n in range(1, 15)],
    [1] * 14,
])
term_lists = st.one_of(
    st.lists(nonzero, min_size=1, max_size=12),
    st.lists(st.sampled_from([1, -1, 2, -2, 3]), min_size=1, max_size=12),
    st.builds(lambda base, sign, size: [s * v for s, v in zip(sign, base)][:size],
              integral_bases, signs, st.integers(1, 14)),
)


def factorial_quotient_rows(values, depth):
    fact = [1]
    for v in values[:depth]:
        fact.append(fact[-1] * v)
    return [[Fraction(fact[n], fact[k] * fact[n - k]) for k in range(n + 1)]
            for n in range(depth + 1)]


def first_non_integral(rows):
    for n, row in enumerate(rows):
        for k, value in enumerate(row):
            if value.denominator != 1:
                return n, k, value
    return None


def window_scan_witness(values):
    """is_binomid's witness as the window-divisibility scan found it."""
    fact = [1]
    for v in values:
        fact.append(fact[-1] * v)
    for n in range(2, len(values) + 1):
        window = 1
        for k in range(1, n // 2 + 1):
            window *= values[n - k]
            if window % fact[k]:
                return {"m": n - k, "k": k, "n": n, "value": Fraction(window, fact[k])}
    return None


def fbinom_row_seq(f, m):
    """row_seq as it was before the kernel: one fbinom per entry."""
    terms = []
    for j in range(m + 1):
        value = fbinom(f, m, j)
        if value.denominator != 1:
            raise NonIntegralEntryError(m, j, value)
        terms.append(value.numerator)
    return terms


def outcome(fn):
    try:
        return ("ok", fn())
    except NonIntegralEntryError as exc:
        return ("non_integral", exc.n, exc.k, exc.value)
    except Exception as exc:  # noqa: BLE001 - the type and message are the outcome
        return (type(exc).__name__, str(exc))


class TestKernelAgainstFactorialQuotients:
    @settings(max_examples=150, deadline=None)
    @given(term_lists)
    def test_triangle_rows(self, values):
        tri = triangle(from_list(values), len(values))
        assert [list(row) for row in tri.rows] == factorial_quotient_rows(values, len(values))
        assert all(type(v) is Fraction for row in tri.rows for v in row)

    @settings(max_examples=150, deadline=None)
    @given(term_lists)
    def test_kernel_yields_ints_exactly_where_integral(self, values):
        rows = list(binomid.core._rows(values))
        expected = factorial_quotient_rows(values, len(values))
        assert rows == expected
        assert ([[type(v) for v in row] for row in rows]
                == [[int if q.denominator == 1 else Fraction for q in row]
                    for row in expected])

    def test_fraction_reducing_to_an_integer_is_an_int(self):
        # over (2, 1, 2, 3) the walk carries [4 1] = 3/2, and [4 2] = 3
        # comes back from that fraction
        row = list(binomid.core._rows([2, 1, 2, 3]))[4]
        assert row == [1, Fraction(3, 2), 3, Fraction(3, 2), 1]
        assert [type(v) for v in row] == [int, Fraction, int, Fraction, int]

    @settings(max_examples=150, deadline=None)
    @given(term_lists)
    def test_binomid_witness_is_first_non_integral_entry(self, values):
        rep = is_binomid(from_list(values), len(values))
        bad = first_non_integral(factorial_quotient_rows(values, len(values)))
        if bad is None:
            assert rep.holds() and rep.witness is None
        else:
            n, k, value = bad
            assert not rep.holds()
            assert rep.witness == {"m": n - k, "k": k, "n": n, "value": value}
        assert rep.witness == window_scan_witness(values)

    @settings(max_examples=150, deadline=None)
    @given(term_lists, st.integers(0, 12))
    def test_row_seq_matches_fbinom_route(self, values, m):
        f = from_list([1] + values)
        m = min(m, len(values) + 1)
        got = outcome(lambda: row_seq(f, m).prefix(m + 1))
        assert got == outcome(lambda: fbinom_row_seq(f, m))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, -1, 2, 3, 4]), min_size=1, max_size=10),
           st.integers(0, 12))
    def test_row_seq_errors_match_with_zero_terms(self, values, m):
        # zero terms surface when materialized, so the order the walk touches
        # terms decides which error is raised first; it must not change
        def fresh():
            return Sequence("z", lambda n: 1 if n == 1 else values[n - 2],
                            length=len(values) + 1)
        got = outcome(lambda: row_seq(fresh(), m).prefix(m + 1))
        assert got == outcome(lambda: fbinom_row_seq(fresh(), m))

    def test_row_seq_touches_terms_in_fbinom_order(self):
        # [8 3] over (1, 2, 3, 4, 5, 4, 7, 8) is 224/6: the walk stops there
        # and never touches f(4) or f(5)
        def touched(extract):
            order = []
            f = Sequence("t", lambda n: order.append(n) or (4 if n == 6 else n),
                         length=8)
            assert outcome(lambda: extract(f)) == (
                "non_integral", 8, 3, Fraction(112, 3))
            return order

        assert touched(lambda f: row_seq(f, 8)) == [1, 8, 7, 2, 6, 3]
        assert touched(lambda f: (f.term(1), fbinom_row_seq(f, 8))) == [1, 8, 7, 2, 6, 3]

    def test_fibonacci_300_rows(self):
        values = fibonacci().prefix(300)
        tri = triangle(fibonacci(), 300)
        fact = [1]
        for v in values:
            fact.append(fact[-1] * v)
        for n in (1, 2, 150, 299, 300):
            assert tri.row(n) == tuple(Fraction(fact[n], fact[k] * fact[n - k])
                                       for k in range(n + 1))


def all_rows_is_binomid(f, bound):
    """is_binomid before the dual-gcd step: the kernel builds every row up
    to the witness, and each row is guarded by the column identity."""
    eff, reduced, note = binomid.classify._capped(f, bound)
    terms = f.prefix(eff)
    witness = None
    above = []
    for n, row in enumerate(binomid.core._rows(terms)):
        h = n // 2
        lhs = [a * t for a, t in zip(row[1:h + 1], reversed(terms[n - h - 1:n - 1]))]
        rhs = [c * terms[n - 1] for c in above[1:h + 1]]
        if row != row[::-1] or row[0] != 1 or lhs != rhs:
            raise InternalCheckError(f"triangle row {n} fails the column identity")
        k = next((k for k, q in enumerate(row[:h + 1]) if type(q) is not int), None)
        if k is not None:
            witness = {"m": n - k, "k": k, "n": n, "value": row[k]}
            break
        above = row
    return binomid.classify._report("binomid", bound, witness, reduced, note)


# primes past the residual step's cap (1000): 1009 is proved prime by trial
# division, and 1009 * 1013, 1000003 and 2^89 - 1 reach refinement
M89 = 2 ** 89 - 1
# terms over the primes 2, 3 and 5 times one or two of them; 1009 and 1013
# come apart in some terms and tied together in others, in a power of
# 1009 * 1013 or in 1009^2 * 1013
past_cap_terms = st.builds(
    lambda e2, e3, e5, big, other, sign: sign * 2 ** e2 * 3 ** e3 * 5 ** e5 * big * other,
    st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
    st.sampled_from([1, 1, 1, 1009, 1013, 1009 * 1013, 1009 ** 2 * 1013, 1000003, M89]),
    st.sampled_from([1, 1, 1, 1009 * 1013, M89]), st.sampled_from([1, -1]))
# terms in which 1009 and 1013 come tied together, and M89 with them
tied_terms = st.builds(
    lambda e2, e3, tied, sign: sign * 2 ** e2 * 3 ** e3 * tied,
    st.integers(0, 3), st.integers(0, 2),
    st.sampled_from([1, 1, 1009 * 1013, (1009 * 1013) ** 2, 1009 * 1013 * M89, M89]),
    st.sampled_from([1, -1]))
# 1009^x(i) * 1013^y(i) with x = y but at one or two indices, where x is
# one more or one less: the pair comes tied in most terms and apart in a
# few, so a refinement that misses a term, or the part of a term made of a
# cofactor's primes, can split a cofactor wrongly
pair_lists = st.lists(st.integers(0, 2), min_size=2, max_size=12).flatmap(
    lambda ys: st.builds(
        lambda moves, sign: [sign * 1009 ** max(0, y + moves.get(i, 0)) * 1013 ** y
                             for i, y in enumerate(ys)],
        st.dictionaries(st.integers(0, len(ys) - 1), st.sampled_from([1, -1]),
                        min_size=1, max_size=2),
        st.sampled_from([1, -1])))

# signed lists, with zero terms that surface only when prefix reads them
step_lists = st.one_of(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, 4, -6]), min_size=1, max_size=14),
    st.lists(st.one_of(nonzero, st.sampled_from([1, -1, 0])), min_size=1, max_size=14),
    st.builds(lambda base, sign, size: [s * v for s, v in zip(sign, base)][:size],
              integral_bases, signs, st.integers(1, 14)),
    st.lists(past_cap_terms, min_size=1, max_size=14),
    st.lists(past_cap_terms, max_size=13).map(lambda rest: [1, *rest]),
    st.lists(tied_terms, max_size=13).map(lambda rest: [1, *rest]),
    pair_lists,
)
# a list, whether is_binomid reads it through P(...), and a bound that may
# run past its length
step_inputs = st.tuples(step_lists, st.booleans(), st.integers(1, 18))


def step_sequence(values, divisor_product):
    f = Sequence("s", lambda n: values[n - 1], length=len(values))
    return divisor_product_of(f) if divisor_product else f


def routes_taken(values, divisor_product, bound):
    """The routes that decide is_binomid's rows over the list: "dual_gcd"
    for a row n >= 2 that the dual-gcd step certifies alone, "residual" for
    a row that the residual step certifies, and "unfactored" for a residual
    that trial division does not factor, whose cofactor is refined."""
    taken = set()
    certified = binomid.classify._certified
    refine = binomid.classify._Residuals._refine

    def spy_certified(t, n, residuals):
        alone = all(t[n] % gcd(t[k], t[n - k]) == 0 for k in range(1, n // 2 + 1))
        if n >= 2 and alone:
            taken.add("dual_gcd")
        passed = certified(t, n, residuals)
        if passed and not alone:
            taken.add("residual")
        return passed

    def spy_refine(res, c):
        taken.add("unfactored")
        return refine(res, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binomid.classify, "_certified", spy_certified)
        mp.setattr(binomid.classify._Residuals, "_refine", spy_refine)
        outcome(lambda: is_binomid(step_sequence(values, divisor_product), bound))
    return taken


class TestStepAgainstAllRows:
    @settings(max_examples=600, deadline=None)
    @given(step_inputs)
    def test_same_report_or_error(self, args):
        values, divisor_product, bound = args
        assert (outcome(lambda: is_binomid(step_sequence(values, divisor_product), bound))
                == outcome(lambda: all_rows_is_binomid(step_sequence(values, divisor_product),
                                                       bound)))

    @pytest.mark.parametrize("route", ["dual_gcd", "residual", "unfactored"])
    def test_draws_reach_every_route(self, route):
        # the differential above is only as good as the routes its draws take
        find(step_inputs, lambda args: route in routes_taken(*args),
             settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))

    # 1009 and 1013 are tied in every term but one, as (exponent of 1009,
    # exponent of 1013): refinement must split the pair by that term, the
    # first in the first list, and must take all of 1009^3 * 1013^2 as the
    # third term's part in the second, where one gcd with 1009 * 1013 does not
    @pytest.mark.parametrize("pairs", [
        [(1, 0), (2, 2), (1, 1), (1, 1)],
        [(0, 0), (2, 2), (3, 2), (1, 1), (2, 2), (2, 2), (0, 0)],
    ])
    def test_refinement_splits_a_pair_by_one_term(self, pairs):
        values = [1009 ** a * 1013 ** b for a, b in pairs]
        rep = is_binomid(from_list(values), len(values))
        assert not rep.holds()
        assert rep == all_rows_is_binomid(from_list(values), len(values))

    @pytest.mark.parametrize("spec", [
        "I", "fact", "T", "fib", "cpow:3", "gq:2", "gab:5,2", "lucas:3,2",
        "lucas:1,1", "pcol:2", "prow:12", "hm:2", "P(gq:2)", "P(I)",
        "product(fib,gq:2)", "product(I,lucas:3,2)", "scalar(-2,fib)",
        "pow(2,T)", "prepend1(I)", "interleave1(fib)", "double(I)",
        "col(2,fib)", "col(3,T)", "col(4,gab:3,2)", "P(T)", "P(fib)",
        "product(T,fib)", "list:2,1,2,3,4,4"])
    def test_families(self, spec):
        build = parse_seqspec(spec).build
        assert (outcome(lambda: is_binomid(build(), 60))
                == outcome(lambda: all_rows_is_binomid(build(), 60)))


class TestPerPrimeAgainstAllRows:
    # per_prime_decomposition cross-checks its conjunction against the
    # battery's binomid verdict, which the residual step now reads off the
    # same valuations; the all-rows route builds every row instead
    @settings(max_examples=300, deadline=None)
    @given(st.lists(past_cap_terms, min_size=1, max_size=14), st.booleans(),
           st.integers(1, 18), st.sampled_from([2, 5, 1009, 1013]))
    def test_combined_verdict_where_decided(self, values, divisor_product, bound,
                                            prime_bound):
        decomposition = per_prime_decomposition(
            step_sequence(values, divisor_product), bound, prime_bound)
        if not decomposition.undecided:
            assert (decomposition.combined_verdict
                    == all_rows_is_binomid(step_sequence(values, divisor_product),
                                           bound).verdict)


def _corrupt_kernel(monkeypatch, at_n, at_k, delta):
    original = binomid.core._row

    def corrupted(term, n, last):
        for k, value in enumerate(original(term, n, last)):
            yield value + delta if (n, k) == (at_n, at_k) else value

    monkeypatch.setattr(binomid.core, "_row", corrupted)


# two products of two primes past the residual step's cap (1000): trial
# division up to the cap finds no factor of either, and each is too large to
# be a prime left over, so a residual made of them is refined
B2, B3 = 1009 * 1013, 1019 * 1021


def t_past_cap(n):
    """T(n) = n(n+1)/2 with its primes 2 and 3 replaced by B2 and B3."""
    v, out = n * (n + 1) // 2, 1
    for p, big in ((2, B2), (3, B3)):
        while v % p == 0:
            v //= p
            out *= big
    return out * v


def failing_past_cap():
    # t_past_cap with f(8) = 7 * B2 in place of B2^2 * B3^2; B2 and B3 are
    # coprime to each other and to the other primes of T, so rows 0 to 7
    # keep T's entries with 2 and 3 replaced, integral as T's are, and
    # [8 2] is the first entry that is not an integer
    return Sequence("t_past_cap_8", lambda n: 7 * B2 if n == 8 else t_past_cap(n))


class TestCrossCheckIsLive:
    # the dual-gcd step certifies every row of fib, I and 1..n, and the
    # residual step certifies the rows of T it rejects (their residuals are
    # 2 and 3), so the kernel builds none of them; over failing_past_cap the
    # dual-gcd step rejects rows 4, 6, 7 and 8, refinement certifies the
    # first three and rejects row 8, and the kernel builds rows 7 and 8
    # only: those are the rows corrupted
    def test_spurious_fraction_is_caught(self, monkeypatch):
        # a fraction at [8 1], before the true witness [8 2]
        assert is_binomid(failing_past_cap(), 8).witness["k"] == 2
        _corrupt_kernel(monkeypatch, 8, 1, Fraction(1, 2))
        with pytest.raises(InternalCheckError, match="triangle row 8 fails the column identity"):
            is_binomid(failing_past_cap(), 8)

    def test_hidden_fraction_is_caught(self, monkeypatch):
        # over (2, 3) the first non-integral entry is [2 1] = 3/2; the
        # corrupted kernel turns it into 2
        f = from_list([2, 3])
        assert is_binomid(f, 2).witness == {"m": 1, "k": 1, "n": 2,
                                            "value": Fraction(3, 2)}
        _corrupt_kernel(monkeypatch, 2, 1, Fraction(1, 2))
        with pytest.raises(InternalCheckError):
            is_binomid(f, 2)

    def test_classify_exits_3(self, capsys, monkeypatch):
        _corrupt_kernel(monkeypatch, 8, 1, Fraction(1, 2))
        spec = "list:" + ",".join(map(str, failing_past_cap().prefix(8)))
        code = main(["classify", spec, "--bound", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: internal check failed: triangle row 8 "
                                "fails the column identity\n")

    def test_mirrored_half_is_guarded(self, monkeypatch):
        # [8 6] is a copy of [8 2], the witness, in the kernel's rows;
        # change only the copy
        original = binomid.classify._rows

        def corrupted(*args):
            for row in original(*args):
                if len(row) == 9:
                    row[6] += 1
                yield row

        assert is_binomid(failing_past_cap(), 8).witness["n"] == 8
        monkeypatch.setattr(binomid.classify, "_rows", corrupted)
        with pytest.raises(InternalCheckError, match="row 8"):
            is_binomid(failing_past_cap(), 8)

    def test_fractional_mirror_is_guarded(self, monkeypatch):
        # a spurious fraction past the middle of row 7, the row before the
        # witness row, where the kernel never walks, is caught before row 8
        # is read against it
        original = binomid.classify._rows

        def corrupted(*args):
            for row in original(*args):
                if len(row) == 8:
                    row[5] += Fraction(1, 2)
                yield row

        monkeypatch.setattr(binomid.classify, "_rows", corrupted)
        with pytest.raises(InternalCheckError,
                           match="triangle row 7 is certified but not integral"):
            is_binomid(failing_past_cap(), 8)

    def test_unit_edge_is_guarded(self, monkeypatch):
        # [8 0] = [8 8] = 2 keeps the row a palindrome and leaves every
        # 1 <= k <= n/2 alone, so only the unit edge catches it
        _corrupt_kernel(monkeypatch, 8, 0, 1)
        with pytest.raises(InternalCheckError, match="row 8"):
            is_binomid(failing_past_cap(), 8)

    def test_rows_stop_at_the_witness_row(self, monkeypatch):
        # the rows that refinement certifies (4, 6 and 7) are not built, nor
        # any row past the witness row; rows 7 and 8 are built once
        built = []
        original = binomid.classify._rows

        def counted(*args):
            for row in original(*args):
                built.append(len(row) - 1)
                yield row

        monkeypatch.setattr(binomid.classify, "_rows", counted)
        assert is_binomid(failing_past_cap(), 20).witness["n"] == 8
        assert built == [7, 8]

    def test_rejected_row_must_hold_a_non_integer(self, monkeypatch):
        # a step that wrongly rejects row 5 of fib is caught when the kernel
        # builds that row and finds only integers
        original = binomid.classify._certified
        monkeypatch.setattr(binomid.classify, "_certified",
                            lambda t, n, *step: n != 5 and original(t, n, *step))
        with pytest.raises(InternalCheckError,
                           match="triangle row 5 is rejected but integral"):
            is_binomid(fibonacci(), 10)

    def test_residual_step_stops_the_kernel_rows(self, monkeypatch, two_pow_a):
        # over two_pow_a itself the residuals are powers of 2: the residual
        # step certifies row 4, so the kernel builds only rows 5 and 6
        built = []
        original = binomid.classify._rows

        def counted(*args):
            for row in original(*args):
                built.append(len(row) - 1)
                yield row

        monkeypatch.setattr(binomid.classify, "_rows", counted)
        assert is_binomid(two_pow_a, 20).witness["n"] == 6
        assert built == [5, 6]

    def test_certified_row_must_be_integral(self, monkeypatch):
        # over (4, 6, 3), [2 1] = 3/2 and both steps reject rows 2 and 3; a
        # dual-gcd step that wrongly certifies row 2 is caught when row 3
        # rebuilds it
        f = from_list([4, 6, 3])
        assert is_binomid(f, 3).witness["n"] == 2
        original = binomid.classify._certified
        monkeypatch.setattr(binomid.classify, "_certified",
                            lambda t, n, *step: n == 2 or original(t, n, *step))
        with pytest.raises(InternalCheckError,
                           match="triangle row 2 is certified but not integral"):
            is_binomid(f, 3)

    def test_residual_certified_row_must_be_integral(self, monkeypatch):
        # over (4, 6, 3) the residual of [2 1] is 2, and S_2(2) = 3 is less
        # than S_2(1) + S_2(1) = 4; a residual step that wrongly certifies
        # row 2 is caught when row 3, whose residual 2 fails too, rebuilds it
        f = from_list([4, 6, 3])
        original = binomid.classify._Residuals.certify
        monkeypatch.setattr(binomid.classify._Residuals, "certify",
                            lambda res, n, k, r: n == 2 or original(res, n, k, r))
        with pytest.raises(InternalCheckError,
                           match="triangle row 2 is certified but not integral"):
            is_binomid(f, 3)
