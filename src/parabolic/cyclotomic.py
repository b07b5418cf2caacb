"""Exact arithmetic in the cyclotomic field Q(zeta_e).

Elements are polynomial residues modulo the e-th cyclotomic polynomial
Phi_e: an integer numerator vector over one positive common denominator
(the layout of FLINT's fmpq_poly), reduced modulo the monic Phi_e in plain
int arithmetic.  A rational factor scales the other; every other product
packs each coefficient vector into one int of fixed-width signed slots
(Kronecker substitution) and is one big-int multiply and one big-int
division.  An inverse is chosen by field degree alone: a fraction-free
extended Euclid run against Phi_e below degree 16, and from 16 up an
extended subresultant PRS on packed ints, certified by one exact product
before it is returned.  (zeta^i - 1)^-1 is a closed form and needs
neither.  Slot widths are computed on each call from the operands and
Phi_e; packing is internal to ``*`` and ``inverse()``, and a CycloField
holds only values fixed when it is built.

The closed forms of the root-of-unity sums need no field arithmetic: they
are defined in ``riemann_roch`` and bound here under the same names.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .core import FrozenValue
from .errors import InternalInconsistencyError, InvalidArgumentError
from .riemann_roch import geometric_sum, inertia_total, inverse_sum, ratio_sum, shifted_sum


def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, constant term first: the modulus of cyclo_field(e)."""
    if e < 1:
        raise InvalidArgumentError(f"cyclotomic_poly requires e >= 1, got {e}")
    return cyclo_field(e).modulus


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


def _length(v: Sequence[int]) -> int:
    """len(v) without its trailing (top-degree) zeros; 0 for the zero vector."""
    k = len(v)
    while k and not v[k - 1]:
        k -= 1
    return k


def _pack(v: Sequence[int], w: int) -> int:
    """Kronecker substitution: the polynomial with coefficients v at x = 2**w."""
    packed = 0
    for c in reversed(v):
        packed = (packed << w) + c
    return packed


def _unpack(packed: int, w: int, n: int) -> list[int]:
    """The n coefficients of a packed polynomial; each must lie strictly within 2**(w-1).

    The one slot reader: it offsets every slot by 2**(w-1) and masks, about
    twice as fast as peeling slots off by rounded shifts.
    """
    half, mask = 1 << (w - 1), (1 << w) - 1
    ones, k = 1, 1
    while k < n:
        ones |= ones << (w * k)
        k *= 2
    packed += half * (ones & ((1 << (w * n)) - 1))
    return [((packed >> s) & mask) - half for s in range(0, w * n, w)]


def _rounded_shift(packed: int, shift: int) -> int:
    """packed / 2**shift rounded to nearest: the slots from shift up, the ones below rounded away."""
    return ((packed >> (shift - 1)) + 1) >> 1 if shift else packed


def _top(packed: int, degree: int, count: int, w: int) -> list[int]:
    """The count coefficients of a packed polynomial from its degree down, zeros below 0."""
    low = max(degree - count + 1, 0)
    coeffs = _unpack(_rounded_shift(packed, w * low), w, degree - low + 1)[::-1]
    return coeffs + [0] * (count - len(coeffs))


def _mul_mod(a: Sequence[int], b: Sequence[int], field: CycloField) -> list[int]:
    """The field.degree coefficients of a * b modulo Phi_e.

    A rational factor scales the other; every other product, sparse or
    dense, is _packed_mul.
    """
    n, la, lb = field.degree, _length(a), _length(b)
    if not la or not lb:
        return [0] * n
    if la == 1 or lb == 1:
        # a rational factor scales the other
        c, v = (a[0], b) if la == 1 else (b[0], a)
        return [c * y for y in v] + [0] * (n - len(v))
    return _packed_mul(a[:la], b[:lb], field)


def _packed_mul(a: Sequence[int], b: Sequence[int], field: CycloField) -> list[int]:
    """a * b modulo Phi_e on packed ints; a and b have no top zeros.

    One big-int product of the packed factors, folded once modulo x^f - 1
    (odd e, f = e) or x^f + 1 (even e, f = e/2), which Phi_e divides, then
    one big-int division by the packed Phi_e, skipped when the degree is
    already below it.  The slot width is rigorous: each folded coefficient
    sums at most min(len) products, and a long division step by a modulus
    with coefficients of size at most h grows the largest coefficient by a
    factor of at most 1 + h.
    """
    modulus, n = field.modulus, field.degree
    la, lb = len(a), len(b)
    f = field.e // 2 if field.e % 2 == 0 else field.e
    h = max(map(abs, modulus))
    steps = max(min(la + lb - 1, f) - n, 0)
    bound = min(la, lb) * max(map(abs, a)) * max(map(abs, b)) * (1 + h) ** steps
    # 2**w >= 2 * bound + h + 2: every remainder slot fits, and |R(2**w)| < Phi(2**w) / 2
    w = (2 * bound + h + 1).bit_length()
    packed = _pack(a, w) * _pack(b, w)
    if la + lb - 1 > f:
        high = _rounded_shift(packed, w * f)
        packed -= high << (w * f)
        packed += -high if field.e % 2 == 0 else high
    if steps:
        phi = _pack(modulus, w)
        # the quotient rounded to nearest leaves 2 R(2**w) + phi as the remainder
        packed = (divmod(2 * packed + phi, 2 * phi)[1] - phi) >> 1
    return _unpack(packed, w, n)


def _euclid_inverse(a: Sequence[int], modulus: Sequence[int]) -> tuple[list[int], int]:
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


def _prs_inverse(a: Sequence[int], modulus: Sequence[int], w: int) -> tuple[list[int], int]:
    """(s, c) from the extended subresultant PRS of (modulus, a) at slot width w.

    Collins's subresultant PRS, with the cofactor t of each remainder r = t * a
    (mod modulus) carried along: each pseudo-remainder and its cofactor are
    divided exactly by g * h**delta, with no content gcd.  Every r and t is a
    minor of Sylvester(modulus, a), so only they are read; the pseudo-quotient
    comes from the top coefficients of the two divisors, and the wider
    intermediates are exact as packed ints.  A width too narrow for some minor
    reads garbage, which the caller's certification rejects.
    """
    n, m = len(modulus) - 1, len(a) - 1
    r0, t0, d0 = _pack(modulus, w), 0, n
    r1, t1, d1 = _pack(a, w), 1, m
    g = h = 1
    top1: list[int] = []
    while d1:
        delta = d0 - d1
        # r0 is the previous r1: its top coefficients are read already unless delta grew
        top0 = top1[:delta + 1] if len(top1) > delta else _top(r0, d0, delta + 1, w)
        top1 = _top(r1, d1, delta + 1, w)
        lead = top1[0]
        powers = [1]
        for _ in range(delta + 1):
            powers.append(powers[-1] * lead)
        # the pseudo-quotient of lead**(delta+1) * r0 by r1 from the top coefficients: its
        # x^(delta-k) coefficient is y_k * lead**(delta-k), y_k = lead**(k+1) * (true quotient)
        terms = [(j, b) for j, b in enumerate(top1) if j and b]
        ys, quot = [], [0] * (delta + 1)
        for k in range(delta + 1):
            y = top0[k] * powers[k]
            for j, b in terms:
                if j > k:
                    break
                y -= ys[k - j] * b * powers[j - 1]
            ys.append(y)
            quot[delta - k] = y * powers[delta - k]
        q, scale, beta = _pack(quot, w), powers[delta + 1], g * h ** delta
        r2 = (scale * r0 - q * r1) // beta
        t2 = (scale * t0 - q * t1) // beta
        d2 = r2.bit_length() // w
        if not r2 or d2 >= d1:
            raise ZeroDivisionError("subresultant degree did not drop")
        r0, t0, d0, r1, t1, d1 = r1, t1, d1, r2, t2, d2
        g = lead
        h = g ** delta // h ** (delta - 1)
    return _unpack(t1, w, n), r1


def _inverse(a: Sequence[int], field: CycloField) -> tuple[list[int], int]:
    """(s, c) with a * s == c, a nonzero integer, modulo Phi_e; a is nonzero.

    A rational a gives s = 1 and c = a.  Otherwise the field degree alone
    picks the algorithm: fraction-free Euclid below 16 and the certified
    packed PRS from 16 up (no field has degree 13 to 15).  On dense elements
    with coefficients in [-3, 3] the PRS took 1.0 to 3.5 times Euclid's
    time at degrees 4 to 12, and 0.57 to 0.86 times at degrees 16 to 36.
    """
    n, la = field.degree, _length(a)
    a = a[:la]
    if la == 1:
        return [1] + [0] * (n - 1), a[0]
    if n < 16:
        s, c = _euclid_inverse(a, field.modulus)
        return field._remainder(s), c
    return _packed_inverse(a, field)


def _packed_inverse(a: Sequence[int], field: CycloField) -> tuple[list[int], int]:
    """(s, c) from the packed PRS; a has no top zeros and degree at least 1.

    The PRS starts at the slot width of Hadamard's bound on the minors of
    Sylvester(modulus, a), and its answer is returned only once one exact
    product certifies it; otherwise the width doubles and the PRS runs again.
    """
    modulus, n = field.modulus, field.degree
    hadamard_sq = sum(c * c for c in modulus) ** (len(a) - 1) * sum(c * c for c in a) ** n
    w = (math.isqrt(hadamard_sq) + 1).bit_length() + 1
    while True:
        try:
            s, c = _prs_inverse(a, modulus, w)
        except ZeroDivisionError:
            pass
        else:
            if c and _mul_mod(a, s, field) == [c] + [0] * (n - 1):
                return s, c
        w *= 2


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
        # x^e - 1 divided exactly by Phi_d for every proper divisor d of e
        num = [-1] + [0] * (e - 1) + [1]
        for d in range(1, e):
            if e % d == 0:
                num = _int_poly_exact_div(num, cyclo_field(d).modulus)
        self.modulus = tuple(num)
        self.degree = len(self.modulus) - 1
        # the nonzero non-leading terms of Phi_e, all that reduction touches
        self._terms = tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)

    def __repr__(self) -> str:
        return f"CycloField({self.e})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycloField) and other.e == self.e

    def __hash__(self) -> int:
        return hash(("CycloField", self.e))

    def from_rational(self, q: Fraction | int) -> "CycloElem":
        """The rational q, an int or Fraction as from_cover takes them."""
        return self.from_cover([q])

    def from_cover(self, coeffs: Iterable[Fraction | int]) -> "CycloElem":
        """Reduce an arbitrary-degree int/Fraction coefficient vector modulo Phi_e."""
        rem = list(coeffs)
        for k, c in enumerate(rem):
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise InvalidArgumentError(
                    f"from_cover: coefficient {k} must be an int or Fraction, got {c!r}")
        den = math.lcm(*(c.denominator for c in rem))
        return self._reduced([c.numerator * (den // c.denominator) for c in rem], den)

    def _remainder(self, rem: list[int]) -> list[int]:
        """The degree coefficients of rem modulo Phi_e; reduces rem in place."""
        deg, terms = self.degree, self._terms
        for top in range(len(rem) - 1, deg - 1, -1):
            c = rem[top]
            if c:
                base = top - deg
                for j, m in terms:
                    rem[base + j] -= c * m
        del rem[deg:]
        return rem + [0] * (deg - len(rem))

    def _reduced(self, rem: list[int], den: int = 1) -> "CycloElem":
        """The element rem(zeta) / den; reduces the int vector rem in place."""
        return _normalised(self, self._remainder(rem), den)

    def zeta_pow(self, k: int) -> "CycloElem":
        """zeta^k for any integer k: the monomial x^(k mod e), reduced."""
        return self._reduced([0] * (k % self.e) + [1])

    def inv_omega_minus_one(self, i: int) -> "CycloElem":
        """(zeta^i - 1)^{-1} = (1/e) sum_{0<k<e} k zeta^(ik); i must not be divisible by e.

        With w = zeta^i, (w - 1) sum_{k<e} k w^k = (e - 1) w^e - (w + ... + w^(e-1)),
        which is e whenever w^e = 1 != w.
        """
        e = self.e
        if i % e == 0:
            raise InvalidArgumentError("zeta^i - 1 vanishes for i = 0 mod e")
        rem = [0] * e
        for k in range(1, e):
            rem[i * k % e] += k
        return self._reduced(rem, e)


def _normalised(field: CycloField, num: list[int], den: int) -> "CycloElem":
    """num / den with den > 0 and gcd(den, *num) == 1."""
    if den < 0:
        num, den = [-c for c in num], -den
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return CycloElem(field, tuple(num), den)


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
        """other in this field, an int or Fraction (not a bool) through from_rational; else None."""
        if isinstance(other, CycloElem):
            if other.field.e != self.field.e:
                raise InvalidArgumentError("cannot mix elements of different fields")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.field.from_rational(other)
        return None

    def __add__(self, other: object) -> "CycloElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return _normalised(self.field, [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "CycloElem":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __neg__(self) -> "CycloElem":
        return CycloElem(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: object) -> "CycloElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _normalised(self.field, _mul_mod(self.num, o.num, self.field),
                           self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        s, c = _inverse(self.num, self.field)
        return _normalised(self.field, [x * self.den for x in s], c)

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


def inertia_term(e: int, d: int, i: int) -> CycloElem:
    """The exact element (1/e) * zeta^(i*d) / (1 - zeta^(-i)) of Q(zeta_e).

    One inertia-component contribution; 0 < i < e keeps the denominator
    away from zero.
    """
    if not 0 < i < e:
        raise InvalidArgumentError(f"inertia_term requires 0 < i < e, got i={i}")
    if not 0 <= d < e:
        raise InvalidArgumentError(f"inertia_term requires 0 <= d < e, got d={d}")
    field = cyclo_field(e)
    # 1/(1 - zeta^(-i)) == -(zeta^(e-i) - 1)^(-1)
    return field.zeta_pow(i * d) * field.inv_omega_minus_one(e - i) * Fraction(-1, e)
