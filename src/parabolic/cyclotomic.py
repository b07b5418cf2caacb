"""Exact arithmetic in the cyclotomic field Q(zeta_e).

Elements are polynomial residues modulo the e-th cyclotomic polynomial
Phi_e: an integer numerator vector over one positive common denominator
(the layout of FLINT's fmpq_poly), reduced modulo the monic Phi_e in plain
int arithmetic.  Every inverse, (zeta^i - 1)^-1 included, is one
fraction-free extended Euclid run against Phi_e.

The root-of-unity sums are closed forms.  ``oracle`` checks each of them
against the exact value of its sum, recovered at one split prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .core import FrozenValue
from .errors import InternalInconsistencyError, InvalidArgumentError


def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, constant term first.

    Computed by exact integer division of x^e - 1 by the product of
    Phi_d over the proper divisors d of e.
    """
    if e < 1:
        raise InvalidArgumentError(f"cyclotomic_poly requires e >= 1, got {e}")
    return _cyclo_poly(e)


@lru_cache(maxsize=None)
def _cyclo_poly(e: int) -> tuple[int, ...]:
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _int_poly_exact_div(num, _cyclo_poly(d))
    return tuple(num)


def _int_poly_exact_div(num: list[int], den: Sequence[int]) -> list[int]:
    """Exact long division of integer polynomials; den is monic."""
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * (len(rem) - dn)
    for top in range(len(rem) - 1, dn - 1, -1):
        c = rem[top]
        if c:
            quot[top - dn] = c
            for j in range(dn + 1):
                rem[top - dn + j] -= c * den[j]
    if any(rem):
        raise InternalInconsistencyError("inexact polynomial division")
    return quot


def _poly_inverse(a: Sequence[int], modulus: Sequence[int]) -> tuple[list[int], int]:
    """(s, c) with a * s == c, a nonzero integer, modulo the irreducible modulus.

    Fraction-free extended Euclid: every step r0 <- lead(r1) r0 - lead(r0)
    x^k r1 is repeated on the cofactor s0, and each (r, s) pair is divided
    by its joint content, so r == s * a (mod modulus) holds throughout.
    """
    r0, s0, r1, s1 = list(modulus), [], list(a), [1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("element shares a factor with the modulus")
        if len(r1) == 1:
            return s1, r1[0]
        while len(r0) >= len(r1):
            lead, c, k = r1[-1], r0[-1], len(r0) - len(r1)
            if lead != 1:
                r0 = [lead * x for x in r0]
                s0 = [lead * x for x in s0]
            s0 += [0] * (len(s1) + k - len(s0))
            for j, x in enumerate(r1):
                r0[j + k] -= c * x
            for j, x in enumerate(s1):
                s0[j + k] -= c * x
            while r0 and not r0[-1]:
                r0.pop()
        g = math.gcd(*r0, *s0)
        if g > 1:
            r0, s0 = [x // g for x in r0], [x // g for x in s0]
        r0, s0, r1, s1 = r1, s1, r0, s0


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def cyclo_field(e: int) -> "CycloField":
    """Shared field object for Q(zeta_e); instances are cached and reused."""
    return CycloField(e)


class CycloField:
    """The field Q(zeta_e), presented as Q[x]/(Phi_e(x)); immutable once built."""

    def __init__(self, e: int):
        if e < 1:
            raise InvalidArgumentError(f"field order must be >= 1, got {e}")
        self.e = e
        self.modulus = cyclotomic_poly(e)
        self.degree = len(self.modulus) - 1
        # the nonzero non-leading terms of Phi_e, all that reduction touches
        self._terms = tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)

    def __repr__(self) -> str:
        return f"CycloField({self.e})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycloField) and other.e == self.e

    def __hash__(self) -> int:
        return hash(("CycloField", self.e))

    def zero(self) -> "CycloElem":
        return self.from_rational(0)

    def one(self) -> "CycloElem":
        return self.from_rational(1)

    def from_rational(self, q: Fraction | int) -> "CycloElem":
        q = Fraction(q)
        return CycloElem(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def from_cover(self, coeffs: Iterable[Fraction | int]) -> "CycloElem":
        """Reduce an arbitrary-degree int/Fraction coefficient vector modulo Phi_e."""
        rem = list(coeffs)
        for k, c in enumerate(rem):
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise InvalidArgumentError(
                    f"from_cover: coefficient {k} must be an int or Fraction, got {c!r}")
        den = math.lcm(*(c.denominator for c in rem))
        return self._reduced([c.numerator * (den // c.denominator) for c in rem], den)

    def _reduced(self, rem: list[int], den: int = 1) -> "CycloElem":
        """The element rem(zeta) / den; reduces the int vector rem in place."""
        deg, terms = self.degree, self._terms
        for top in range(len(rem) - 1, deg - 1, -1):
            c = rem[top]
            if c:
                base = top - deg
                for j, m in terms:
                    rem[base + j] -= c * m
        del rem[deg:]
        return _normalised(self, rem + [0] * (deg - len(rem)), den)

    def zeta(self) -> "CycloElem":
        return self.zeta_pow(1)

    def zeta_pow(self, k: int) -> "CycloElem":
        """zeta^k for any integer k: the monomial x^(k mod e), reduced."""
        return self._reduced([0] * (k % self.e) + [1])

    def inv_omega_minus_one(self, i: int) -> "CycloElem":
        """(zeta^i - 1)^{-1}; i must not be divisible by e."""
        if i % self.e == 0:
            raise InvalidArgumentError("zeta^i - 1 vanishes for i = 0 mod e")
        return (self.zeta_pow(i) - 1).inverse()


def _normalised(field: CycloField, num: list[int], den: int) -> "CycloElem":
    """num / den with den > 0 and gcd(den, *num) == 1."""
    if den < 0:
        num, den = [-c for c in num], -den
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return CycloElem(field, tuple(num), den)


def _rational(x: object) -> Fraction | None:
    return Fraction(x) if isinstance(x, (int, Fraction)) else None


class CycloElem(FrozenValue):
    """An element of Q(zeta_e): (num[0] + num[1] zeta + ... ) / den.

    Always normalised (den > 0, gcd(den, *num) == 1), so equality of the
    (field, num, den) fields is equality in the field.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int = 1):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients of 1, zeta, ..., zeta^(phi-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other: object) -> "CycloElem | None":
        if isinstance(other, CycloElem):
            if other.field.e != self.field.e:
                raise InvalidArgumentError("cannot mix elements of different fields")
            return other
        q = _rational(other)
        return None if q is None else self.field.from_rational(q)

    def __add__(self, other: object) -> "CycloElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return _normalised(self.field, [x + y for x, y in zip(self.num, o.num)], a)
        return _normalised(self.field, [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "CycloElem":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other: object) -> "CycloElem":
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __neg__(self) -> "CycloElem":
        return CycloElem(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: object) -> "CycloElem":
        q = _rational(other)
        if q is not None:
            num = [c * q.numerator for c in self.num]
            return _normalised(self.field, num, self.den * q.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._reduced(_poly_mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CycloElem":
        q = _rational(other)
        if q is not None:
            return self * (1 / q)
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other: object) -> "CycloElem":
        q = _rational(other)
        return NotImplemented if q is None else self.inverse() * q

    def __pow__(self, n: int) -> "CycloElem":
        if n < 0:
            return self.inverse() ** (-n)
        result, base = self.field.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CycloElem":
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        s, c = _poly_inverse(self.num, self.field.modulus)
        return self.field._reduced([x * self.den for x in s], c)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise InternalInconsistencyError(f"element is not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    def coeff_strings(self) -> list[str]:
        """Serialized form: "p/q" strings, lowest degree first."""
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"CycloElem(e={self.field.e}, coeffs={self.coeff_strings()})"


def _check_sum_domain(e: int) -> None:
    if e < 2:
        raise InvalidArgumentError(f"root-of-unity sums require e >= 2, got {e}")


def geometric_sum(e: int, k: int) -> Fraction:
    """Closed form e - 1 at k = 0, else -1, for the sum of zeta^(i*k) over i = 1..e-1."""
    _check_sum_domain(e)
    if not 0 <= k < e:
        raise InvalidArgumentError(f"geometric_sum requires 0 <= k < e, got k={k}")
    return Fraction(e - 1 if k == 0 else -1)


def inverse_sum(e: int) -> Fraction:
    """Closed form -(e - 1)/2 for the sum of 1/(zeta^i - 1) over i = 1..e-1."""
    _check_sum_domain(e)
    return Fraction(1 - e, 2)


def ratio_sum(e: int, d: int) -> Fraction:
    """Closed form e - d for the sum of (zeta^(i*d) - 1)/(zeta^i - 1) over i = 1..e-1."""
    _check_sum_domain(e)
    if not 0 < d < e:
        raise InvalidArgumentError(f"ratio_sum requires 0 < d < e, got d={d}")
    return Fraction(e - d)


def shifted_sum(e: int, d: int) -> Fraction:
    """Closed form (e - 2d + 1)/2 for the sum of zeta^(i*d)/(zeta^i - 1) over i = 1..e-1."""
    _check_sum_domain(e)
    if not 0 < d <= e:
        raise InvalidArgumentError(f"shifted_sum requires 0 < d <= e, got d={d}")
    return Fraction(e - 2 * d + 1, 2)


def inertia_term(e: int, d: int, i: int) -> CycloElem:
    """The exact element (1/e) * zeta^(i*d) / (1 - zeta^(-i)) of Q(zeta_e).

    One inertia-component contribution; i = 0 mod e is rejected because the
    denominator vanishes there.
    """
    _check_sum_domain(e)
    if i % e == 0:
        raise InvalidArgumentError("inertia_term: 1 - zeta^(-i) vanishes for i = 0 mod e")
    if not 0 < i < e:
        raise InvalidArgumentError(f"inertia_term requires 0 < i < e, got i={i}")
    if not 0 <= d < e:
        raise InvalidArgumentError(f"inertia_term requires 0 <= d < e, got d={d}")
    field = cyclo_field(e)
    # 1/(1 - zeta^(-i)) == -(zeta^(e-i) - 1)^(-1)
    return field.zeta_pow(i * d) * field.inv_omega_minus_one(e - i) * Fraction(-1, e)


def inertia_total(e: int, d: int) -> Fraction:
    """Closed form (e - 1 - 2d)/(2e) for the full inertia sum at one point.

    Equals the sum of inertia_term(e, d, i) over i = 1..e-1; the e = 1 case
    is the empty sum 0.
    """
    if e < 1:
        raise InvalidArgumentError(f"inertia_total requires e >= 1, got {e}")
    if not 0 <= d < e:
        raise InvalidArgumentError(f"inertia_total requires 0 <= d < e, got d={d}")
    return Fraction(e - 1 - 2 * d, 2 * e)
