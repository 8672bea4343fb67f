from collections import Counter

import pytest

from binomid import Sequence, euler_phi


@pytest.fixture
def two_pow_a():
    """Eventually constant 2**a_n with a = (0, 2, 4, 1, 3, 1, 4, 4, 4, ...)."""
    exponents = [0, 2, 4, 1, 3, 1]
    return Sequence("two_pow_a",
                    lambda n: 2 ** (exponents[n - 1] if n <= 6 else 4))


@pytest.fixture
def h_divisible():
    """1 at indices 1, 5, 7 and 2 elsewhere: divisible but not binomid."""
    return Sequence("h_div", lambda n: 1 if n in (1, 5, 7) else 2)


@pytest.fixture
def w_ones_then_twos():
    """(1, 2, 2, 2, ...): a divisor-chain and dual-gcd, not a divisor-product."""
    return Sequence("w", lambda n: 1 if n == 1 else 2)


@pytest.fixture
def phi_seq():
    return Sequence("phi", euler_phi)


@pytest.fixture(scope="session")
def check_fill_calls():
    """Check the rule calls of a sequence over `values` that block fills read.

    `calls` holds (index, made by a fill) pairs in call order and `highest`
    is the highest index read. A fill calls the rule at n only once 1..n-1
    have all been called and gave nonzero terms, so the distinct calls that
    fills make run up from the first missing index, in order, and no fill
    calls past an index whose rule gave 0; an index is called again only
    where the rule gave 0; and every call is at most 2 * highest + 1, since
    a miss at n fills at most up to 2n.
    """
    def check(calls, values, highest):
        stored = set()  # indices whose rule was called and gave a nonzero term
        for n, by_fill in calls:
            assert not by_fill or stored.issuperset(range(1, n))
            if values[n - 1] != 0:
                stored.add(n)
        repeated = [n for n, times in Counter(n for n, _ in calls).items() if times > 1]
        assert all(values[n - 1] == 0 for n in repeated)
        assert max((n for n, _ in calls), default=0) <= 2 * highest + 1
    return check
