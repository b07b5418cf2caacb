from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic.cyclotomic import (
    CycloField,
    cyclo_field,
    cyclotomic_poly,
    geometric_sum,
    inertia_term,
    inertia_total,
    inverse_sum,
    ratio_sum,
    shifted_sum,
)
from parabolic.errors import InternalInconsistencyError, InvalidArgumentError

KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_known_cyclotomic_polys():
    for e, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_poly(e) == coeffs


def test_phi_12_by_independent_division():
    # divide x^12 - 1 by the product of the hardcoded lower-order polynomials
    prod = [1]
    for d in (1, 2, 3, 4, 6):
        prod = _poly_mul_int(prod, KNOWN_POLYS[d])
    lhs = _poly_mul_int(prod, list(cyclotomic_poly(12)))
    assert lhs == [-1] + [0] * 11 + [1]


def test_cyclotomic_product_reconstructs_x_pow_e_minus_1():
    for e in range(1, 61):
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                prod = _poly_mul_int(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (e - 1) + [1]


def test_cyclotomic_poly_is_the_field_modulus():
    for e in range(1, 61):
        assert cyclotomic_poly(e) == cyclo_field(e).modulus
    with pytest.raises(InvalidArgumentError, match=r"^cyclotomic_poly requires e >= 1, got 0$"):
        cyclotomic_poly(0)
    with pytest.raises(InvalidArgumentError, match=r"^field order must be >= 1, got 0$"):
        CycloField(0)
    assert repr(cyclo_field(5)) == "CycloField(5)"


def test_cyclotomic_degree_is_totient():
    for e in range(1, 61):
        phi = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
        poly = cyclotomic_poly(e)
        assert len(poly) - 1 == phi
        assert poly[-1] == 1  # monic


def test_field_basics():
    f = cyclo_field(4)
    z = f.zeta_pow(1)
    assert (z * z).to_rational() == -1
    assert z * z * z * z == f.from_rational(1)
    assert f.zeta_pow(7) == f.zeta_pow(3) == z * z * z
    assert (z - z).to_rational() == 0
    inv = z.inverse()
    assert (z * inv) == f.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        f.from_rational(0).inverse()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(InvalidArgumentError):
        cyclo_field(3).zeta_pow(1) + cyclo_field(4).zeta_pow(1)


def test_scalar_arithmetic_and_rationality():
    f = cyclo_field(5)
    z = f.zeta_pow(1)
    x = z + Fraction(3, 2)
    assert (x - z).to_rational() == Fraction(3, 2)
    assert not x.is_rational()
    with pytest.raises(InternalInconsistencyError):
        z.to_rational()
    assert (2 * z) * f.from_rational(2).inverse() == z


@given(st.integers(min_value=1, max_value=20), st.data())
@settings(max_examples=100, deadline=None)
def test_field_arithmetic_properties(e, data):
    f = cyclo_field(e)
    coeffs = st.fractions(
        min_value=-5, max_value=5, max_denominator=12
    )
    a = f.from_cover([data.draw(coeffs) for _ in range(f.degree)])
    b = f.from_cover([data.draw(coeffs) for _ in range(f.degree)])
    assert (a + b) - b == a
    if any(b.coeffs):
        assert (a * b) * b.inverse() == a
    assert a * f.from_rational(1) == a


RATIONALS = st.one_of(st.integers(min_value=-20, max_value=20),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))


@given(st.integers(min_value=1, max_value=20), RATIONALS, st.data())
@settings(max_examples=100, deadline=None)
def test_rational_operands_act_as_field_elements(e, q, data):
    # an int or Fraction operand gives the same element as its from_rational image
    f = cyclo_field(e)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    a = f.from_cover([data.draw(coeffs) for _ in range(f.degree)])
    r = f.from_rational(q)
    pairs = [(a * q, a * r), (q * a, r * a), (a + q, a + r), (q + a, r + a), (a - q, a - r)]
    for got, want in pairs:
        assert got == want
        _assert_normalised(got)


def test_operators_refuse_other_operands():
    z = cyclo_field(5).zeta_pow(1)
    with pytest.raises(TypeError):
        z + "x"
    with pytest.raises(TypeError):
        z * "x"


def test_geometric_sum_examples():
    assert geometric_sum(4, 2) == -1
    assert geometric_sum(5, 0) == 4
    assert geometric_sum(3, 1) == -1
    with pytest.raises(InvalidArgumentError):
        geometric_sum(4, 4)
    with pytest.raises(InvalidArgumentError):
        geometric_sum(1, 0)


def test_inverse_sum_examples():
    assert inverse_sum(2) == Fraction(-1, 2)
    assert inverse_sum(3) == -1
    assert inverse_sum(7) == -3


def test_ratio_sum_examples():
    assert ratio_sum(4, 1) == 3
    assert ratio_sum(3, 2) == 1
    assert ratio_sum(6, 4) == 2
    with pytest.raises(InvalidArgumentError):
        ratio_sum(4, 0)
    with pytest.raises(InvalidArgumentError):
        ratio_sum(4, 4)


def test_shifted_sum_examples():
    assert shifted_sum(2, 1) == Fraction(1, 2)
    assert shifted_sum(3, 3) == -1
    assert shifted_sum(4, 2) == Fraction(1, 2)
    for e in (2, 5):
        for d in (0, e + 1):
            with pytest.raises(InvalidArgumentError,
                               match=rf"^shifted_sum requires 0 < d <= e, got d={d}$"):
                shifted_sum(e, d)


def test_shifted_sum_at_e_equals_inverse_sum():
    for e in range(2, 31):
        assert shifted_sum(e, e) == inverse_sum(e)


def test_inertia_term_examples():
    assert inertia_term(2, 0, 1).to_rational() == Fraction(1, 4)
    pair = inertia_term(3, 0, 1) + inertia_term(3, 0, 2)
    assert pair.to_rational() == Fraction(1, 3)
    # frozen from exact field arithmetic
    assert inertia_term(4, 1, 2).to_rational() == Fraction(-1, 8)
    t = inertia_term(4, 2, 1)
    assert t.coeffs == (Fraction(-1, 8), Fraction(1, 8))


def test_inertia_term_rejects_vanishing_denominator():
    with pytest.raises(InvalidArgumentError):
        inertia_term(4, 1, 0)
    with pytest.raises(InvalidArgumentError):
        inertia_term(4, 1, 4)


def test_inertia_term_rejects_i_and_d_out_of_range():
    for e in (2, 5):
        for i in (-1, e + 1):
            with pytest.raises(InvalidArgumentError,
                               match=rf"^inertia_term requires 0 < i < e, got i={i}$"):
                inertia_term(e, 0, i)
        with pytest.raises(InvalidArgumentError,
                           match=rf"^inertia_term requires 0 <= d < e, got d={e}$"):
            inertia_term(e, e, 1)
    # no 0 < i < e exists below e = 2, so the i check refuses e = 1 and e = 0
    for e in (0, 1):
        with pytest.raises(InvalidArgumentError,
                           match=r"^inertia_term requires 0 < i < e, got i=1$"):
            inertia_term(e, 0, 1)
    for family, args in [(geometric_sum, (0,)), (inverse_sum, ()), (ratio_sum, (1,)),
                         (shifted_sum, (1,))]:
        with pytest.raises(InvalidArgumentError,
                           match=r"^root-of-unity sums require e >= 2, got 1$"):
            family(1, *args)


def test_inertia_total_examples():
    assert inertia_total(2, 0) == Fraction(1, 4)
    assert inertia_total(3, 1) == 0
    assert inertia_total(1, 0) == 0
    with pytest.raises(InvalidArgumentError):
        inertia_total(3, 3)
    with pytest.raises(InvalidArgumentError, match=r"^inertia_total requires e >= 1, got 0$"):
        inertia_total(0, 0)


def test_inertia_terms_sum_to_total_small():
    # e = 101 runs the generic inverse at a large prime degree
    cases = [(e, d) for e in range(2, 13) for d in range(e)] + [(101, 0), (101, 50)]
    for e, d in cases:
        total = sum((inertia_term(e, d, i) for i in range(1, e)), cyclo_field(e).from_rational(0))
        assert total.is_rational()
        assert total.to_rational() == inertia_total(e, d), (e, d)


def test_coeff_strings_serialization():
    f = cyclo_field(4)
    x = f.zeta_pow(1) * Fraction(1, 4) - Fraction(1, 8)
    assert x.coeff_strings() == ["-1/8", "1/4"]


def test_inv_omega_minus_one_inverts():
    for e in range(1, 41):
        f = cyclo_field(e)
        for i in range(1, 2 * e):
            if i % e:
                assert f.inv_omega_minus_one(i) * (f.zeta_pow(i) - 1) == f.from_rational(1), (e, i)
        for i in (0, e, -e, 2 * e):
            with pytest.raises(InvalidArgumentError,
                               match=r"^zeta\^i - 1 vanishes for i = 0 mod e$"):
                f.inv_omega_minus_one(i)


def test_from_cover_rejects_inexact_coefficients():
    f = cyclo_field(5)
    want = 1 + Fraction(1, 2) * f.zeta_pow(1) + 3 * f.zeta_pow(5)
    assert f.from_cover([1, Fraction(1, 2), 0, 0, 0, 3]) == want
    for bad in (0.1, "1/3", True):
        with pytest.raises(InvalidArgumentError, match="coefficient 1 must be an int or Fraction"):
            f.from_cover([1, bad, 2])


def _assert_normalised(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)


def test_elements_stay_normalised():
    f = cyclo_field(12)
    a = f.from_cover([Fraction(1, 6), Fraction(-1, 4), 0, Fraction(2, 3)])
    b = f.from_cover([Fraction(1, 10), 0, Fraction(5, 6), 0, Fraction(3, 2)])
    assert (a.num, a.den) == ((2, -3, 0, 8), 12)
    total = a + b
    assert total.coeffs == (Fraction(1, 6) + Fraction(1, 10) - Fraction(3, 2),
                            Fraction(-1, 4), Fraction(5, 6) + Fraction(3, 2),
                            Fraction(2, 3))
    scaled = a * Fraction(-6, 5)
    assert scaled.coeffs == (Fraction(-1, 5), Fraction(3, 10), 0, Fraction(-4, 5))
    assert (a * f.from_rational(Fraction(1, 12)).inverse()).coeffs == (2, -3, 0, 8)
    assert (a - a) == f.from_rational(0) and (a - a).den == 1
    for x in (a, b, total, scaled, a * b, -a, b.inverse(), a * f.from_rational(3).inverse(),
              2 + -a, f.zeta_pow(5)):
        _assert_normalised(x)


def test_field_sums_match_closed_forms():
    # the reference route: every sum term by term in Q(zeta_e) arithmetic
    for e in range(2, 37):
        f = cyclo_field(e)
        zeta = [f.zeta_pow(k) for k in range(e)]
        inv = {i: f.inv_omega_minus_one(i) for i in range(1, e)}

        def total(term):
            return sum((term(i) for i in range(1, e)), f.from_rational(0))

        for k in range(e):
            assert total(lambda i: zeta[i * k % e]) == f.from_rational(geometric_sum(e, k))
        assert total(inv.get) == f.from_rational(inverse_sum(e))
        for d in range(1, e):
            ratio = total(lambda i: (zeta[i * d % e] - 1) * inv[i])
            assert ratio == f.from_rational(ratio_sum(e, d)), (e, d)
        for d in range(1, e + 1):
            shifted = total(lambda i: zeta[i * d % e] * inv[i])
            assert shifted == f.from_rational(shifted_sum(e, d)), (e, d)
