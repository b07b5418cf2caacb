import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic import riemann_roch
from parabolic.core import (
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    bundle_on,
    jumps,
    root_line_datum,
    validate_weights,
)
from parabolic.errors import InternalInconsistencyError
from parabolic.oracle import Lcg64, _draw_weights
from parabolic.riemann_roch import (
    end_bundle,
    end_euler_char,
    euler_char,
    global_term,
    inertia_bundle_total,
    inertia_total,
    stacky_degree,
)


def _point(f, e, weights):
    return ParabolicPoint(f, e, validate_weights(weights))


def _correction(p):
    # the sum of d * (n_d - n_{d+1}) / e telescopes to (n_1 + ... + n_{e-1}) / e
    return Fraction(sum(p.weights.entries[1:-1]), p.ramification)


def test_correction_term_examples():
    for weights, correction in (([2, 1, 1, 0], Fraction(2, 3)), ([5, 0, 0, 0, 0], 0),
                                ([2, 1, 0], Fraction(1, 2))):
        b = bundle_on(0, weights[0], 0, [(1, len(weights) - 1, weights)])
        assert euler_char(b).corrections == ((0, correction),)


def test_stacky_degree_examples():
    assert stacky_degree(bundle_on(3, 2, 5)) == 5
    root = bundle_on(0, 1, 0, [(1, 2, root_line_datum(1, 2).entries)])
    assert stacky_degree(root) == Fraction(1, 2)
    b = bundle_on(2, 2, 1, [(1, 3, [2, 1, 1, 0])])
    assert stacky_degree(b) == Fraction(5, 3)


def test_euler_char_classical():
    rep = euler_char(bundle_on(2, 2, 3))
    assert rep.chi == 1
    assert rep.stacky_degree == 3
    assert rep.corrections == ()


def test_euler_char_worked_example():
    rep = euler_char(bundle_on(2, 2, 1, [(1, 3, [2, 1, 1, 0])]))
    assert rep.chi == -1
    assert rep.stacky_degree == Fraction(5, 3)
    assert rep.corrections == ((0, Fraction(2, 3)),)
    assert rep.classical_part == Fraction(-1, 3)
    # invariant: chi = stacky + (1-g) r - sum f_i corr_i
    assert rep.chi == rep.stacky_degree + (1 - 2) * 2 - Fraction(2, 3)


def test_euler_char_root_lines_give_one_minus_g():
    for g in range(0, 6):
        for e in range(1, 11):
            for i in range(e):
                b = bundle_on(g, 1, 0, [(1, e, root_line_datum(i, e).entries)])
                assert euler_char(b).chi == 1 - g


def test_global_term_examples():
    assert global_term(4, 1, 3, []) == 4 + (1 - 3)
    assert global_term(Fraction(5, 3), 2, 2, [(1, 3)]) == -1
    assert global_term(0, 3, 0, [(1, 2)]) == Fraction(9, 4)


def test_inertia_bundle_total_examples():
    assert inertia_bundle_total(_point(1, 3, [2, 1, 1, 0])) == 0
    for e in range(1, 8):
        r = 3
        trivial = _point(1, e, [r] + [0] * e)
        assert inertia_bundle_total(trivial) == Fraction(r * (e - 1), 2 * e)
    assert inertia_bundle_total(_point(2, 1, [4, 0])) == 0


def test_inertia_bundle_total_closed_form():
    p = _point(1, 5, [4, 3, 3, 1, 0, 0])
    r, e = 4, 5
    assert inertia_bundle_total(p) == Fraction(r * (e - 1), 2 * e) - _correction(p)
    zero_heavy = 0
    for seed in range(500):
        # e up to 40 against r up to 6: most draws have many zero jumps
        e, r = 1 + seed % 40, 1 + seed % 6
        p = ParabolicPoint(1, e, _draw_weights(Lcg64(seed), e, r))
        assert inertia_bundle_total(p) == Fraction(r * (e - 1), 2 * e) - _correction(p)
        zero_heavy += sum(1 for x in jumps(p.weights) if x == 0) > e // 2
    assert zero_heavy > 250


def test_inertia_bundle_total_skips_zero_jumps(monkeypatch):
    calls = []
    true_total = riemann_roch.inertia_total
    monkeypatch.setattr(riemann_roch, "inertia_total",
                        lambda e, d: calls.append((e, d)) or true_total(e, d))
    # jumps (0, 2, 0, 0, 1, 0, 0, 0, 3): three nonzero out of nine
    p = _point(1, 9, [6, 6, 4, 4, 4, 3, 3, 3, 3, 0])
    assert inertia_bundle_total(p) == Fraction(6 * 8, 18) - _correction(p)
    assert calls == [(9, 1), (9, 4), (9, 8)]
    calls.clear()
    # a root line: one nonzero jump out of e
    inertia_bundle_total(_point(1, 12, root_line_datum(5, 12).entries))
    assert calls == [(12, 5)]


def test_end_euler_char_examples():
    assert end_euler_char(bundle_on(2, 2, 0, [(1, 2, [2, 1, 0])])) == -5
    assert end_euler_char(bundle_on(4, 3, 7)) == (1 - 4) * 9
    two = bundle_on(2, 2, 0, [(1, 2, [2, 1, 0]), (1, 2, [2, 1, 0])])
    assert end_euler_char(two) == -6


def test_end_bundle_structure():
    b = bundle_on(2, 2, 1, [(1, 3, [2, 1, 1, 0])])
    endo = end_bundle(b)
    assert endo.rank == 4
    assert endo.curve.points[0].weights.entries == (4, 2, 1, 0)
    assert endo.degree == -1
    assert stacky_degree(endo) == 0
    assert euler_char(endo).chi == end_euler_char(b)


@st.composite
def bundles(draw, genus_range=(0, 5), max_points=3, max_ram=8, max_rank=6):
    g = draw(st.integers(*genus_range))
    rank = draw(st.integers(1, max_rank))
    degree = draw(st.integers(-10, 10))
    points = []
    for _ in range(draw(st.integers(0, max_points))):
        f = draw(st.integers(1, 3))
        e = draw(st.integers(1, max_ram))
        interior = sorted(
            draw(st.lists(st.integers(0, rank), min_size=e - 1, max_size=e - 1)),
            reverse=True,
        )
        points.append((f, e, [rank, *interior, 0]))
    return bundle_on(g, rank, degree, points)


@given(bundles())
@settings(max_examples=150, deadline=None)
def test_chi_assembly_and_pushforward(b):
    rep = euler_char(b)
    pts = [(p.degree, p.ramification) for p in b.curve.points]
    assembled = global_term(rep.stacky_degree, b.rank, b.curve.genus, pts) + sum(
        (p.degree * inertia_bundle_total(p) for p in b.curve.points), Fraction(0)
    )
    assert assembled == rep.chi
    assert rep.chi == b.degree + (1 - b.curve.genus) * b.rank


@given(bundles(max_points=2, max_ram=6))
@settings(max_examples=100, deadline=None)
def test_chi_additive_over_direct_sums(b):
    # direct sum with itself: ranks, degrees, and jumps (hence weights) add
    double_points = tuple(
        ParabolicPoint(
            p.degree,
            p.ramification,
            validate_weights([2 * n for n in p.weights.entries]),
        )
        for p in b.curve.points
    )
    double = ParabolicBundle(
        OrbifoldCurve(b.curve.genus, double_points), 2 * b.rank, 2 * b.degree
    )
    assert euler_char(double).chi == 2 * euler_char(b).chi


@given(bundles(max_points=2, max_ram=6))
@settings(max_examples=100, deadline=None)
def test_end_chi_two_routes(b):
    assert euler_char(end_bundle(b)).chi == end_euler_char(b)


def test_chi_report_serialization():
    rep = euler_char(bundle_on(2, 2, 1, [(1, 3, [2, 1, 1, 0])]))
    obj = rep.to_json_obj()
    assert obj == {
        "chi": "-1",
        "stacky_degree": "5/3",
        "classical_part": "-1/3",
        "corrections": [["0", "2/3"]],
    }


# The closed forms as plain Fraction sums, term by term: the reference for the
# integer-numerator assembly in riemann_roch.
def _reference_correction(p):
    n = p.weights.entries
    return sum((Fraction(d * (n[d] - n[d + 1]), p.ramification)
                for d in range(p.ramification)), Fraction(0))


def _reference_euler_char(b):
    corrections = tuple((i, _reference_correction(p)) for i, p in enumerate(b.curve.points))
    weighted = sum((p.degree * c for p, (_, c) in zip(b.curve.points, corrections)),
                   Fraction(0))
    stacky = b.degree + weighted
    classical = stacky + (1 - b.curve.genus) * b.rank
    return classical - weighted, stacky, classical, corrections


def _reference_global_term(deg, rank, genus, points):
    total = Fraction(deg) + rank * (1 - genus)
    for f, e in points:
        total += f * Fraction(rank * (1 - e), 2 * e)
    return total


def _reference_inertia_total(p):
    return sum((delta * inertia_total(p.ramification, d)
                for d, delta in enumerate(jumps(p.weights))), Fraction(0))


def _seeded_bundles():
    rng = random.Random(20)
    shapes = [
        [],  # no points
        [(1, 1)],  # e = 1 only
        [(1, 2), (1, 3), (1, 5), (1, 7)],  # coprime ramification indices
        [(2, 9), (3, 4), (1, 1), (2, 25)],  # f > 1, an e = 1 point
        [(3, 11), (2, 13)],
    ]
    for shape in shapes:
        for _ in range(8):
            rank = rng.randint(1, 7)
            points = [(f, e, _draw_weights(Lcg64(rng.randrange(10**6)), e, rank).entries)
                      for f, e in shape]
            yield bundle_on(rng.randint(0, 5), rank, rng.randint(-12, 12), points)


def test_integer_assembly_matches_fraction_reference():
    bundles_seen = list(_seeded_bundles())
    assert any(b.degree < 0 for b in bundles_seen)
    for b in bundles_seen:
        rep = euler_char(b)
        fields = (rep.chi, rep.stacky_degree, rep.classical_part)
        assert fields == _reference_euler_char(b)[:3]
        assert all(type(x) is Fraction for x in fields)
        assert rep.corrections == _reference_euler_char(b)[3]
        pts = [(p.degree, p.ramification) for p in b.curve.points]
        for deg in (b.degree, rep.stacky_degree):
            assert global_term(deg, b.rank, b.curve.genus, pts) == \
                _reference_global_term(deg, b.rank, b.curve.genus, pts)
        for p in b.curve.points:
            assert inertia_bundle_total(p) == _reference_inertia_total(p)
        endo = end_bundle(b)
        assert type(endo.degree) is int
        assert endo.degree == -sum((p.degree * _reference_correction(p)
                                    for p in endo.curve.points), Fraction(0))


def test_global_term_takes_any_rational_degree_and_iterable():
    # 1/11 and 1/13: denominators coprime to every 2e below
    pts = [(1, 2), (2, 3), (1, 5), (3, 1)]
    for deg in (Fraction(1, 11), Fraction(-7, 13)):
        expected = _reference_global_term(deg, 3, 2, pts)
        assert global_term(deg, 3, 2, iter(pts)) == expected
        assert global_term(deg, 3, 2, (p for p in pts)) == expected
    assert global_term(Fraction(1, 11), 2, 0, iter([])) == Fraction(1, 11) + 2


def test_end_bundle_refuses_a_non_integer_degree(monkeypatch):
    # the identity as its own hom datum: degree -2/3 at e = 3
    monkeypatch.setattr(riemann_roch, "hom_datum", lambda w: w)
    with pytest.raises(InternalInconsistencyError) as info:
        end_bundle(bundle_on(2, 2, 1, [(1, 3, [2, 1, 1, 0])]))
    assert str(info.value) == "endomorphism bundle degree -2/3 is not an integer"
