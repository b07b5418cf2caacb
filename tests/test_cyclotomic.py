from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic import cyclotomic
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


def test_cyclotomic_degree_is_totient():
    for e in range(1, 61):
        phi = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
        poly = cyclotomic_poly(e)
        assert len(poly) - 1 == phi
        assert poly[-1] == 1  # monic


def test_field_basics():
    f = cyclo_field(4)
    z = f.zeta()
    assert (z * z).to_rational() == -1
    assert z**4 == f.one()
    assert f.zeta_pow(7) == f.zeta_pow(3) == z**3
    assert (z - z).to_rational() == 0
    inv = z.inverse()
    assert (z * inv) == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inverse()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(InvalidArgumentError):
        cyclo_field(3).zeta() + cyclo_field(4).zeta()


def test_scalar_arithmetic_and_rationality():
    f = cyclo_field(5)
    z = f.zeta()
    x = z + Fraction(3, 2)
    assert (x - z).to_rational() == Fraction(3, 2)
    assert not x.is_rational()
    with pytest.raises(InternalInconsistencyError):
        z.to_rational()
    assert (2 * z) / 2 == z
    assert (1 / z) == z.inverse()


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
        assert (a * b) / b == a
    assert a * f.one() == a


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


def test_inertia_total_examples():
    assert inertia_total(2, 0) == Fraction(1, 4)
    assert inertia_total(3, 1) == 0
    assert inertia_total(1, 0) == 0
    with pytest.raises(InvalidArgumentError):
        inertia_total(3, 3)


def test_inertia_terms_sum_to_total_small():
    for e in range(2, 13):
        f = cyclo_field(e)
        for d in range(e):
            total = f.zero()
            for i in range(1, e):
                total = total + inertia_term(e, d, i)
            assert total.is_rational()
            assert total.to_rational() == inertia_total(e, d)


def test_coeff_strings_serialization():
    f = cyclo_field(4)
    x = f.zeta() * Fraction(1, 4) - Fraction(1, 8)
    assert x.coeff_strings() == ["-1/8", "1/4"]


def test_closed_form_inverses_match_euclid():
    for e in range(2, 61):
        f = cyclo_field(e)
        for i in range(1, e):
            assert f.inv_omega_minus_one(i) == (f.zeta_pow(i) - 1).inverse(), (e, i)


def test_corrupted_closed_form_is_rejected(monkeypatch):
    exact = cyclotomic._inv_lift_closed_form

    def off_by_one(e, i):
        lift = list(exact(e, i))
        lift[3] += 1
        return tuple(lift)

    monkeypatch.setattr(cyclotomic, "_inv_lift_closed_form", off_by_one)
    for e, i in ((7, 1), (12, 4), (30, 7)):
        # a fresh field, so the shared cached tables stay untouched
        with pytest.raises(InternalInconsistencyError):
            CycloField(e).inv_omega_minus_one(i)
    # one bad lift fails when it is used, is named, and is never cached;
    # its product e + x^6 - x^3 keeps the constant term e in Q(zeta_30)
    bad = 3
    monkeypatch.setattr(cyclotomic, "_inv_lift_closed_form",
                        lambda e, i: off_by_one(e, i) if i == bad else exact(e, i))
    field = CycloField(30)
    assert field.inv_omega_minus_one(1) == (field.zeta() - 1).inverse()
    for i in (bad, bad + 30, bad):
        with pytest.raises(InternalInconsistencyError, match=rf"\(zeta\^{bad} - 1\)\^-1 is wrong"):
            field.inv_omega_minus_one(i)
    assert list(field._lifts) == [1]


def test_a_cold_call_certifies_one_lift(monkeypatch):
    field = CycloField(401)
    built = []
    exact = cyclotomic._inv_lift_closed_form
    monkeypatch.setattr(cyclotomic, "_inv_lift_closed_form",
                        lambda e, i: built.append(i) or exact(e, i))
    monkeypatch.setattr(cyclotomic, "cyclo_field", lambda e: field)
    term = inertia_term(401, 0, 1)
    # 1/(1 - zeta^-1) is -(zeta^400 - 1)^-1: lift 400 alone is built and certified
    assert built == [400] and list(field._lifts) == [400]
    assert inertia_term(401, 0, 1) == term and built == [400]


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
    assert (a / Fraction(1, 12)).coeffs == (2, -3, 0, 8)
    assert (a - a) == f.zero() and (a - a).den == 1
    for x in (a, b, total, scaled, a * b, -a, b.inverse(), a / 3, 2 - a, f.zeta_pow(5)):
        _assert_normalised(x)


def test_field_sums_match_closed_forms():
    # the reference route: every sum term by term in Q(zeta_e) arithmetic
    for e in range(2, 37):
        f = cyclo_field(e)
        zeta = [f.zeta_pow(k) for k in range(e)]
        inv = {i: f.inv_omega_minus_one(i) for i in range(1, e)}

        def total(term):
            return sum((term(i) for i in range(1, e)), f.zero())

        for k in range(e):
            assert total(lambda i: zeta[i * k % e]) == f.from_rational(geometric_sum(e, k))
        assert total(inv.get) == f.from_rational(inverse_sum(e))
        for d in range(1, e):
            ratio = total(lambda i: (zeta[i * d % e] - 1) * inv[i])
            assert ratio == f.from_rational(ratio_sum(e, d)), (e, d)
        for d in range(1, e + 1):
            shifted = total(lambda i: zeta[i * d % e] * inv[i])
            assert shifted == f.from_rational(shifted_sum(e, d)), (e, d)
