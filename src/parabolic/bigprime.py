"""Primality and factoring past trial division, for odd n with no factor below
``exact_arith.TRIAL_LIMIT``: deterministic Miller-Rabin and Pollard rho.

``exact_arith`` imports this module only when trial division leaves such a
cofactor, as a large ``--prime`` or ``N`` can.  ``verify`` loads it only
from ``--e-max 102`` on, where its split primes q > e^3 pass TRIAL_LIMIT^2.
"""

from __future__ import annotations

import math

from .errors import InternalInconsistencyError, InvalidArgumentError
from .exact_arith import TRIAL_LIMIT

# The first 13 prime bases make Miller-Rabin exact below this bound
# (Sorenson and Webster, 2015); larger cofactors are refused.
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def miller_rabin(n: int) -> bool:
    """Strong-probable-prime test to every base in _MR_BASES, exact for n < MR_EXACT_BOUND.

    A base divisible by n would make every n <= 41 look composite, so those n
    are answered directly.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    if n >= MR_EXACT_BOUND:
        raise InvalidArgumentError(
            f"{n} has no factor below {TRIAL_LIMIT} and is too large to test "
            f"exactly (the bound is {MR_EXACT_BOUND})"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard rho, Brent's cycle search.

    The polynomials x^2 + c are tried for c = 1, 2, ..., so the result is
    deterministic.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product overshot: step back one value at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalInconsistencyError(f"Pollard rho found no factor of {n}")


def prime_factors(n: int) -> list[int]:
    """Prime factors of n > 1 with no factor below TRIAL_LIMIT, with multiplicity."""
    if miller_rabin(n):
        return [n]
    d = _rho(n)
    return prime_factors(d) + prime_factors(n // d)
