"""Differential tests of the row kernel behind `triangle`, `row_seq` and
`is_binomid`, against the factorial-quotient route it replaced.

The oracle routes here are the old implementations, kept in tests only:
entries as Fraction(fact[n], fact[k] * fact[n-k]), row extraction by one
`fbinom` per entry, and witnesses by a brute-force scan of the oracle
triangle.

`is_binomid` once decided by the window-divisibility criterion (the
product of the first k terms divides every product of k consecutive
terms); that scan is kept here as a second witness oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomid.classify
import binomid.core
from binomid import (InternalCheckError, NonIntegralEntryError, Sequence,
                     fbinom, fibonacci, from_list, is_binomid, row_seq,
                     triangle)
from binomid.cli import main

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


def _corrupt_kernel(monkeypatch, at_n, at_k, delta):
    original = binomid.core._row

    def corrupted(term, n, last):
        for k, value in enumerate(original(term, n, last)):
            yield value + delta if (n, k) == (at_n, at_k) else value

    monkeypatch.setattr(binomid.core, "_row", corrupted)


class TestCrossCheckIsLive:
    def test_spurious_fraction_is_caught(self, monkeypatch):
        _corrupt_kernel(monkeypatch, 4, 1, Fraction(1, 2))
        with pytest.raises(InternalCheckError):
            is_binomid(fibonacci(), 6)

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
        _corrupt_kernel(monkeypatch, 4, 1, Fraction(1, 2))
        code = main(["classify", "I", "--bound", "6"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: internal check failed: triangle row 4 "
                                "fails the column identity\n")

    def test_mirrored_half_is_guarded(self, monkeypatch):
        # [6 4] is a copy of [6 2] in the kernel's rows; change only the copy
        original = binomid.classify._rows

        def corrupted(terms):
            for n, row in enumerate(original(terms)):
                if n == 6:
                    row[4] += 1
                yield row

        assert is_binomid(fibonacci(), 8).holds()
        monkeypatch.setattr(binomid.classify, "_rows", corrupted)
        with pytest.raises(InternalCheckError, match="row 6"):
            is_binomid(fibonacci(), 8)

    def test_fractional_mirror_is_guarded(self, monkeypatch):
        # a spurious fraction past the middle of a row, where the kernel
        # never walks, is caught before it could become a witness
        original = binomid.classify._rows

        def corrupted(terms):
            for n, row in enumerate(original(terms)):
                if n == 5:
                    row[3] += Fraction(1, 2)
                yield row

        monkeypatch.setattr(binomid.classify, "_rows", corrupted)
        with pytest.raises(InternalCheckError, match="row 5"):
            is_binomid(from_list(range(1, 9)), 8)

    def test_unit_edge_is_guarded(self, monkeypatch):
        # [4 0] = [4 4] = 2 keeps the row a palindrome and leaves every
        # 1 <= k <= n/2 alone, so only the unit edge catches it
        _corrupt_kernel(monkeypatch, 4, 0, 1)
        with pytest.raises(InternalCheckError, match="row 4"):
            is_binomid(from_list(range(1, 7)), 6)

    def test_rows_stop_at_the_witness_row(self, monkeypatch, two_pow_a):
        built = []
        original = binomid.classify._rows

        def counted(terms):
            for n, row in enumerate(original(terms)):
                built.append(n)
                yield row

        monkeypatch.setattr(binomid.classify, "_rows", counted)
        assert is_binomid(two_pow_a, 20).witness["n"] == 6
        assert built == list(range(7))
