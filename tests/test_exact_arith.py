import pytest
from hypothesis import given
from hypothesis import strategies as st

from parabolic.bigprime import _MR_BASES, MR_EXACT_BOUND, miller_rabin
from parabolic.errors import InvalidArgumentError
from parabolic.exact_arith import (
    TRIAL_LIMIT,
    factorize,
    is_prime,
    v_p,
)


def test_v_p_examples():
    assert v_p(12, 2) == 2
    assert v_p(12, 5) == 0
    assert v_p(1, 7) == 0


def test_v_p_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        v_p(12, 4)
    with pytest.raises(InvalidArgumentError):
        v_p(0, 3)


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]
    with pytest.raises(InvalidArgumentError):
        factorize(0)


def test_is_prime_below_two():
    assert [n for n in range(-3, 2) if is_prime(n)] == []


def test_factorize_roundtrip_exhaustive_small():
    for n in range(1, 20001):
        prod = 1
        for p, a in factorize(n):
            prod *= p**a
        assert prod == n


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_roundtrip_and_structure(n):
    facts = factorize(n)
    prod = 1
    for p, a in facts:
        assert is_prime(p)
        assert a >= 1
        prod *= p**a
    assert prod == n
    assert [p for p, _ in facts] == sorted({p for p, _ in facts})


@given(st.integers(min_value=1, max_value=10**5))
def test_v_p_matches_factorization(n):
    for p, a in factorize(n):
        assert v_p(n, p) == a


def _trial_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    # past TRIAL_LIMIT**2 the test switches from trial division to Miller-Rabin
    lo = TRIAL_LIMIT * TRIAL_LIMIT - 2000
    for n in range(lo, lo + 6000):
        assert is_prime(n) == _trial_is_prime(n), n
    # strong pseudoprimes to several small bases
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(n)
    assert is_prime(1000000000000000003)


def test_miller_rabin_on_small_odd_numbers():
    # a base divisible by n used to make every prime n <= 41 look composite
    for n in range(3, 10**4, 2):
        assert miller_rabin(n) == _trial_is_prime(n), n
    assert [n for n in range(42) if miller_rabin(n)] == list(_MR_BASES)


def test_exact_bound_is_the_first_pseudoprime_to_every_base():
    # the bound itself is composite yet passes all 13 bases, so it must be refused
    assert MR_EXACT_BOUND == 1287836182261 * 2575672364521
    d, s = MR_EXACT_BOUND - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, MR_EXACT_BOUND)
        assert x in (1, MR_EXACT_BOUND - 1) or any(
            pow(x, 2**j, MR_EXACT_BOUND) == MR_EXACT_BOUND - 1 for j in range(1, s)
        )
    with pytest.raises(InvalidArgumentError):
        is_prime(MR_EXACT_BOUND)


def test_factorize_splits_large_semiprimes():
    p, q = 1000000000039, 1000003
    assert factorize(p * q * q * 12) == [(2, 2), (3, 1), (q, 2), (p, 1)]
    assert factorize(1000000000000000003) == [(1000000000000000003, 1)]
    r, s = 4294967311, 4294967357  # primes far above TRIAL_LIMIT: rho must split them
    assert factorize(r * s) == [(r, 1), (s, 1)]
    assert factorize(r * r) == [(r, 2)]
    # rho's batched gcd overshoots to n here, and the step back one value at a time splits it
    assert factorize(1031 * 1039) == [(1031, 1), (1039, 1)]


def test_cofactor_beyond_exact_bound_is_refused():
    n = 1000000000000000003 * 1000000000000000009
    with pytest.raises(InvalidArgumentError):
        factorize(n)
    with pytest.raises(InvalidArgumentError):
        is_prime(n)
    # numbers past the bound are fine when trial division finishes them
    assert factorize(2**100 * 3) == [(2, 100), (3, 1)]
    assert not is_prime(MR_EXACT_BOUND * 1024)
