"""Exact arithmetic in the cyclotomic field Q(zeta_e).

Elements are polynomial residues modulo the e-th cyclotomic polynomial
Phi_e: an integer numerator vector over one positive common denominator
(the layout of FLINT's fmpq_poly), reduced modulo the monic Phi_e in plain
int arithmetic.  The inverses (zeta^i - 1)^-1 behind the root-of-unity sums
come from a closed form, all built and certified at once, before any is used;
the general inverse() runs extended Euclid and is off that path.  The sums
multiply by powers of zeta as cyclic index shifts modulo x^e - 1 and reduce
once at the end: the quotient map Q[x]/(x^e - 1) -> Q[x]/(Phi_e) is a ring
homomorphism, so the reduced results are exact field values.

Both steps run on packed words (Kronecker substitution, as in FLINT's
bit-packed fmpz_poly).  Each certified lift is one Python int with a slot per
coefficient, stored twice in a row, so a cyclic shift is one right shift and
a column sum over all lifts is one big-int sum.  The rows of a family, one
per d, reduce in one run of the Phi_e loop on column words, word j holding
coefficient j of every row in a signed w-bit slot.  The loop is Z-linear on
exact ints, so only the final slots must fit: a reduced coefficient is at
most |row|_1 * H_e, for H_e the largest |coefficient| of x^k mod Phi_e over
k < e, and w is the least of 16, 32 and 64 bits that holds that bound.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .errors import InternalInconsistencyError, InvalidArgumentError
from .exact_arith import divisors, rational_str


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
    for d in divisors(e)[:-1]:
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


def _inv_lift_closed_form(e: int, i: int) -> tuple[int, ...]:
    """g * sum_{k<m} k x^(ik mod e) in Z[x]/(x^e - 1), g = gcd(i, e), m = e/g.

    With w = zeta^i a primitive m-th root of unity, (w - 1) * sum_k k w^k
    telescopes to (m - 1) - (w + ... + w^(m-1)) = m, so this lifts
    e * (zeta^i - 1)^-1.
    """
    g = math.gcd(i, e)
    lift = [0] * e
    for k in range(e // g):
        lift[(i * k) % e] = g * k
    return tuple(lift)


@lru_cache(maxsize=None)
def cyclo_field(e: int) -> "CycloField":
    """Shared field object for Q(zeta_e); instances are cached and reused."""
    return CycloField(e)


class CycloField:
    """The field Q(zeta_e), presented as Q[x]/(Phi_e(x)).

    Rows reduce together on packed words (module docstring).  The lifts and
    the values of the root-of-unity families are built once, on first need,
    so a field object can be shared read-only across concurrent sweeps.
    """

    def __init__(self, e: int):
        if e < 1:
            raise InvalidArgumentError(f"field order must be >= 1, got {e}")
        self.e = e
        self.modulus = cyclotomic_poly(e)
        self.degree = len(self.modulus) - 1
        # the nonzero non-leading terms of Phi_e, all that reduction touches
        self._terms = tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)
        # (slot layout, lift words with each lift L_i twice), built on first use
        self._packed: tuple[struct.Struct, tuple[int, ...]] | None = None

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
        """Reduce an arbitrary-degree coefficient vector modulo Phi_e."""
        rem = list(coeffs)
        if all(isinstance(c, int) for c in rem):
            return self._reduced(rem)
        rem = [Fraction(c) for c in rem]
        den = math.lcm(*(c.denominator for c in rem))
        return self._reduced([c.numerator * (den // c.denominator) for c in rem], den)

    def _reduce(self, rem: list[int]) -> list[int]:
        """rem modulo Phi_e, in place, for ints and packed column words alike."""
        deg, terms = self.degree, self._terms
        for top in range(len(rem) - 1, deg - 1, -1):
            c = rem[top]
            if c:
                base = top - deg
                for j, m in terms:
                    rem[base + j] -= c * m
        del rem[deg:]
        return rem

    def _reduced(self, rem: list[int], den: int = 1) -> "CycloElem":
        """The element rem(zeta) / den; reduces the int vector rem in place."""
        rem = self._reduce(rem)
        return _normalised(self, rem + [0] * (self.degree - len(rem)), den)

    @cached_property
    def _height(self) -> int:
        """H_e, by the recurrence x^(k+1) = x * x^k - top * Phi_e from x^(deg - 1)."""
        power, height = [0] * (self.degree - 1) + [1], 1
        for _ in range(self.e - self.degree):
            power = self._reduce([0] + power)
            height = max(height, *map(abs, power))
        return height

    def _reduce_rows(self, rows: Sequence[Sequence[int]]) -> tuple[Callable, list[int]]:
        """(unpack, words): int rows of length e reduced together (module docstring)."""
        if set(map(len, rows)) != {self.e}:
            raise InvalidArgumentError(f"rows must be a nonempty list of length-{self.e} rows")
        bits = (max(sum(map(abs, row)) for row in rows) * self._height).bit_length()
        if bits > 63:
            raise InternalInconsistencyError(f"rows of {bits}-bit values overflow 64-bit slots")
        slots = struct.Struct(f"<{len(rows)}{'hiq'[(bits > 15) + (bits > 31)]}")
        # bit w - 1 of every slot: a slot with it set stands for its value minus 2^w
        mask = int.from_bytes((bytes(slots.size // len(rows) - 1) + b"\x80") * len(rows), "little")
        words = [int.from_bytes(slots.pack(*column), "little") for column in zip(*rows)]

        def unpack(word: int) -> tuple[int, ...]:
            return slots.unpack(((word + mask) ^ mask).to_bytes(slots.size, "little"))

        return unpack, self._reduce([u - ((u & mask) << 1) for u in words])

    def constant_terms(self, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """The values of int rows of length e, reduced together; each must be rational."""
        unpack, words = self._reduce_rows(rows)
        if any(words[1:]):
            raise InternalInconsistencyError(f"a row is not rational in Q(zeta_{self.e})")
        return unpack(words[0])

    def zeta(self) -> "CycloElem":
        return self.zeta_pow(1)

    def zeta_pow(self, k: int) -> "CycloElem":
        """zeta^k for any integer k: the monomial x^(k mod e), reduced."""
        return self._reduced([0] * (k % self.e) + [1])

    def inv_omega_minus_one(self, i: int) -> "CycloElem":
        """(zeta^i - 1)^{-1}; i must not be divisible by e."""
        return self._reduced(list(self._inv_lift_scaled(i)), self.e)

    def _inv_lift_scaled(self, i: int) -> tuple[int, ...]:
        """e * (zeta^i - 1)^{-1} as a certified integer vector of length e.

        Scaled inverses are integral, which lets the identity sums below
        accumulate in plain int arithmetic.
        """
        if i % self.e == 0:
            raise InvalidArgumentError("zeta^i - 1 vanishes for i = 0 mod e")
        return self._lifts[i % self.e - 1]

    @cached_property
    def _lifts(self) -> tuple[tuple[int, ...], ...]:
        """The e - 1 lifts; each (x^i - 1) * lift must reduce to exactly e."""
        e = self.e
        lifts = tuple(_inv_lift_closed_form(e, i) for i in range(1, e))
        rows = [[a - b for a, b in zip(_cyclic_shift(v, i), v)] for i, v in enumerate(lifts, 1)]
        unpack, words = self._reduce_rows(rows)
        if any(words[1:]) or unpack(words[0]) != (e,) * (e - 1):
            i = next(i for i, row in enumerate(rows, 1) if self._reduced(row) != e * self.one())
            raise InternalInconsistencyError(
                f"closed-form (zeta^{i} - 1)^-1 is wrong in Q(zeta_{e})")
        return lifts

    @cached_property
    def _geometric(self) -> tuple[int, ...]:
        """Constant terms of the geometric sums, k = 0..e-1."""
        e = self.e
        rows = [[0] * e for _ in range(e)]
        for k, row in enumerate(rows):
            for i in range(1, e):
                row[i * k % e] += 1
        return self.constant_terms(rows)

    @cached_property
    def _shifted(self) -> tuple[int, ...]:
        """Values of e * shifted_sum, d = 0..e, then of e * ratio_sum (S_d - S_0), 0 < d < e."""
        rows = [_shifted_lifts(self, d) for d in range(self.e + 1)]
        rows += [[a - b for a, b in zip(row, rows[0])] for row in rows[1:-1]]
        return self.constant_terms(rows)


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


@dataclass(frozen=True)
class CycloElem:
    """An element of Q(zeta_e): (num[0] + num[1] zeta + ... ) / den.

    Always normalised (den > 0, gcd(den, *num) == 1), so dataclass equality
    is field equality.
    """

    field: CycloField
    num: tuple[int, ...]
    den: int = 1

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
        return [rational_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"CycloElem(e={self.field.e}, coeffs={self.coeff_strings()})"


def _cyclic_shift(vec: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply by x^k modulo x^e - 1: a cyclic index shift."""
    k %= len(vec)
    return vec[-k:] + vec[:-k] if k else vec


def _check_sum_domain(e: int) -> CycloField:
    if e < 2:
        raise InvalidArgumentError(f"root-of-unity sums require e >= 2, got {e}")
    return cyclo_field(e)


def _shifted_lifts(field: CycloField, d: int) -> list[int]:
    """Cover vector of e * sum over i = 1..e-1 of zeta^(i*d)/(zeta^i - 1).

    Exact on packed words: lift entries lie in [0, e), so each column sum is
    at most (e - 1)^2 < 2^w and no carry crosses a slot; the bits above e*w
    only ever carry upward, and the mask drops them.  The slots are
    little-endian, so the words do not depend on the host byte order.
    """
    e = field.e
    if field._packed is None:
        slots = struct.Struct(f"<{e}{'H' if e <= 256 else 'I' if e <= 65536 else 'Q'}")
        packed = [int.from_bytes(slots.pack(*field._inv_lift_scaled(i)), "little")
                  for i in range(1, e)]
        field._packed = (slots, tuple(p | p << (8 * slots.size) for p in packed))
    slots, words = field._packed
    bits = 8 * slots.size // e
    # x^(i*d) * L_i modulo x^e - 1 is the doubled word moved down (-i*d mod e) slots
    total = sum(word >> ((-i * d) % e * bits) for i, word in enumerate(words, 1))
    return list(slots.unpack((total & ((1 << e * bits) - 1)).to_bytes(slots.size, "little")))


def geometric_sum(e: int, k: int) -> Fraction:
    """Sum of zeta^(i*k) over i = 1..e-1, as an exact rational.

    Equals e - 1 when k == 0 and -1 for 0 < k < e.
    """
    field = _check_sum_domain(e)
    if not 0 <= k < e:
        raise InvalidArgumentError(f"geometric_sum requires 0 <= k < e, got k={k}")
    return Fraction(field._geometric[k])


def inverse_sum(e: int) -> Fraction:
    """Sum of 1/(zeta^i - 1) over i = 1..e-1; equals -(e-1)/2."""
    return Fraction(_check_sum_domain(e)._shifted[0], e)


def ratio_sum(e: int, d: int) -> Fraction:
    """Sum of (zeta^(i*d) - 1)/(zeta^i - 1) over i = 1..e-1; equals e - d."""
    field = _check_sum_domain(e)
    if not 0 < d < e:
        raise InvalidArgumentError(f"ratio_sum requires 0 < d < e, got d={d}")
    return Fraction(field._shifted[e + d], e)


def shifted_sum(e: int, d: int) -> Fraction:
    """Sum of zeta^(i*d)/(zeta^i - 1) over i = 1..e-1; equals (e - 2d + 1)/2."""
    field = _check_sum_domain(e)
    if not 0 < d <= e:
        raise InvalidArgumentError(f"shifted_sum requires 0 < d <= e, got d={d}")
    return Fraction(field._shifted[d], e)


def inertia_term(e: int, d: int, i: int) -> CycloElem:
    """The exact element (1/e) * zeta^(i*d) / (1 - zeta^(-i)) of Q(zeta_e).

    One inertia-component contribution; i = 0 mod e is rejected because the
    denominator vanishes there.
    """
    field = _check_sum_domain(e)
    if i % e == 0:
        raise InvalidArgumentError("inertia_term: 1 - zeta^(-i) vanishes for i = 0 mod e")
    if not 0 < i < e:
        raise InvalidArgumentError(f"inertia_term requires 0 < i < e, got i={i}")
    if not 0 <= d < e:
        raise InvalidArgumentError(f"inertia_term requires 0 <= d < e, got d={d}")
    # 1/(1 - zeta^(-i)) == -(zeta^(e-i) - 1)^(-1)
    scaled = field._inv_lift_scaled(e - i)
    return field._reduced(list(_cyclic_shift(scaled, i * d)), -e * e)


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
