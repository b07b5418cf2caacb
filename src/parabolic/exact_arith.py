"""Exact integer arithmetic: primality, factorization and valuations."""

from __future__ import annotations

from .errors import InvalidArgumentError

# Ordered (prime, exponent) pairs with primes strictly increasing.
PrimeFactorization = list[tuple[int, int]]


# Trial division finds every prime factor below this bound.  A cofactor left
# over goes to the ``bigprime`` module, imported only then, so that importing
# the package (which every CLI call pays) does not compile it.
TRIAL_LIMIT = 1 << 10


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Trial division below TRIAL_LIMIT, then Miller-Rabin with fixed bases;
    raises InvalidArgumentError when n has no factor below TRIAL_LIMIT and
    is at least bigprime.MR_EXACT_BOUND.
    """
    if n < 2:
        return False
    f = 2
    while f * f <= n and f < TRIAL_LIMIT:
        if n % f == 0:
            return False
        f += 1 if f == 2 else 2
    if f * f > n:
        return True
    from .bigprime import miller_rabin

    return miller_rabin(n)


def v_p(n: int, p: int) -> int:
    """Largest a such that p**a divides n, for n >= 1 and p prime."""
    if not is_prime(p):
        raise InvalidArgumentError(f"v_p requires a prime p, got {p}")
    if n < 1:
        raise InvalidArgumentError(f"v_p is defined for n >= 1, got {n}")
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def factorize(n: int) -> PrimeFactorization:
    """Complete prime factorization, primes ascending; factorize(1) == [].

    Trial division below TRIAL_LIMIT, which covers the gcds of ranks and
    degrees met in practice; a larger cofactor is tested with Miller-Rabin
    and split with Pollard rho.  Raises InvalidArgumentError when such a
    cofactor is at least bigprime.MR_EXACT_BOUND.
    """
    if n < 1:
        raise InvalidArgumentError(f"factorize requires n >= 1, got {n}")
    out: PrimeFactorization = []
    p = 2
    while p * p <= n and p < TRIAL_LIMIT:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if p * p <= n:
        from .bigprime import prime_factors

        big = prime_factors(n)
        return out + [(q, big.count(q)) for q in sorted(set(big))]
    if n > 1:
        out.append((n, 1))
    return out
