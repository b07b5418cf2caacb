from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic.core import (
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    Weights,
    bundle_on,
    flag_dim,
    hom_datum,
    jumps,
    root_line_datum,
    validate_weights,
)
from parabolic.errors import InvalidArgumentError, InvalidWeightsError
from parabolic.oracle import Lcg64, _draw_weights
from parabolic.riemann_roch import _correction_numerator


@st.composite
def weight_vectors(draw, max_ram=10, max_rank=9):
    e = draw(st.integers(min_value=1, max_value=max_ram))
    r = draw(st.integers(min_value=1, max_value=max_rank))
    interior = sorted(
        draw(st.lists(st.integers(0, r), min_size=e - 1, max_size=e - 1)),
        reverse=True,
    )
    return Weights((r, *interior, 0))


def test_validate_weights():
    assert validate_weights([2, 1, 0]).entries == (2, 1, 0)
    with pytest.raises(InvalidWeightsError):
        validate_weights([2, 3, 0])
    with pytest.raises(InvalidWeightsError):
        validate_weights([2, 1, 1])
    with pytest.raises(InvalidWeightsError):
        validate_weights([])
    with pytest.raises(InvalidWeightsError):
        validate_weights([0])
    # the zero datum is allowed
    assert validate_weights([0, 0]).rank == 0


@pytest.mark.parametrize("entries", [[2, 1.7, 0], [2.0, 1, 0], "210", [True, False]])
def test_validate_weights_refuses_non_integers(entries):
    # these used to be coerced by int(): [2, 1.7, 0] became (2, 1, 0)
    with pytest.raises(InvalidWeightsError):
        validate_weights(entries)
    with pytest.raises(InvalidWeightsError):
        bundle_on(2, 2, 1, [(1, len(entries) - 1, entries)])


def test_jumps_examples():
    assert jumps(validate_weights([2, 1, 0])) == (1, 1)
    assert jumps(validate_weights([3, 1, 0])) == (2, 1)
    assert jumps(validate_weights([5, 0])) == (5,)


@given(weight_vectors())
def test_jumps_nonnegative_and_sum_to_rank(w):
    d = jumps(w)
    assert all(x >= 0 for x in d)
    assert sum(d) == w.rank


def test_flag_dim_examples():
    assert flag_dim(validate_weights([2, 1, 0])) == 1
    assert flag_dim(validate_weights([7, 0])) == 0
    assert flag_dim(validate_weights([3, 2, 1, 0])) == 3
    assert flag_dim(validate_weights([4, 2, 1, 0])) == 5


@given(weight_vectors())
def test_flag_dim_three_routes_agree(w):
    d = jumps(w)
    cross = sum(
        d[i] * d[j] for i in range(len(d)) for j in range(i + 1, len(d))
    )
    halved = Fraction(w.rank**2 - sum(x**2 for x in d), 2)
    assert flag_dim(w) == cross
    assert Fraction(flag_dim(w)) == halved


def _all_weight_vectors(max_ram, max_rank):
    """Every weight vector with 1 <= e <= max_ram and 1 <= n_0 <= max_rank."""
    for e in range(1, max_ram + 1):
        for r in range(1, max_rank + 1):
            for interior in combinations_with_replacement(range(r, -1, -1), e - 1):
                yield (r, *interior, 0)


def test_weight_kernels_match_their_definitions():
    """The slice-and-map kernels against the sums they replace, on every
    weight vector with e <= 6 and r <= 6."""
    count = 0
    for n in _all_weight_vectors(6, 6):
        w = validate_weights(n)
        e = len(n) - 1
        delta = [n[d] - n[d + 1] for d in range(e)]
        assert jumps(w) == tuple(delta) and sum(jumps(w)) == n[0]
        cross = sum(delta[i] * delta[j] for i in range(e) for j in range(i + 1, e))
        assert flag_dim(w) == cross == (n[0] ** 2 - sum(x * x for x in delta)) // 2
        point = ParabolicPoint(1, e, w)
        assert _correction_numerator(point) == sum(d * delta[d] for d in range(e))
        count += 1
    assert count == 1709  # the sum over e and r of binomial(r + e - 1, e - 1)


def _refusal(build, entries) -> str:
    with pytest.raises(InvalidWeightsError) as exc:
        build(entries)
    return str(exc.value)


@pytest.mark.parametrize("n", [(2, 1, 0), (3, 3, 1, 0), (6, 0), (1, 1, 1, 1, 1, 1, 0)])
def test_weight_checks_keep_their_order_and_messages(n):
    with_bool = (*n[:-1], False)
    rising = n[::-1]  # also ends in n_0 != 0: the order check comes first
    tail = tuple(x + 1 for x in n)
    for build in (validate_weights, Weights):
        assert _refusal(build, with_bool) == f"weights must be integers, got {with_bool!r}"
        # the type check comes first: (2.5, True, 0) passes every other check, (1.5,) fails the length one
        for mixed in [(2.5, True, 0), (1.5,)]:
            assert _refusal(build, mixed) == f"weights must be integers, got {mixed!r}"
        assert _refusal(build, rising) == f"weights must be nonincreasing, got {rising!r}"
        assert _refusal(build, tail) == f"weights must end in 0, got {tail!r}"
        assert _refusal(build, n[:1]) == f"weights need length >= 2, got {n[:1]!r}"


def test_hom_datum_examples():
    assert hom_datum(validate_weights([2, 1, 0])).entries == (4, 2, 0)
    assert hom_datum(validate_weights([5, 0])).entries == (25, 0)
    assert hom_datum(validate_weights([3, 1, 0])).entries == (9, 4, 0)
    assert hom_datum(validate_weights([2, 1, 1, 0])).entries == (4, 2, 1, 0)


def _all_pairs_hom_datum(w):
    # the definition, over every pair of jumps (zero jumps included)
    e, d = w.ramification, jumps(w)
    cls = [sum(d[i] * d[j] for i in range(e) for j in range(e) if (i - j) % e == k)
           for k in range(e)]
    return tuple(sum(cls[k:]) for k in range(e)) + (0,)


def test_hom_datum_matches_all_pairs():
    # e > r leaves at least e - r zero jumps; the staircase has none
    for seed in range(300):
        r = 1 + seed % 6
        w = _draw_weights(Lcg64(seed), r + 1 + seed % 17, r)
        assert hom_datum(w).entries == _all_pairs_hom_datum(w)
    for e in range(1, 40):
        w = validate_weights(range(e, -1, -1))
        assert hom_datum(w).entries == _all_pairs_hom_datum(w)


@given(weight_vectors())
def test_hom_datum_invariants(w):
    m = hom_datum(w).entries
    e = w.ramification
    assert len(m) == e + 1
    assert m[0] == w.rank**2
    assert all(a >= b for a, b in zip(m, m[1:]))
    assert sum(m[d] - m[d + 1] for d in range(e)) == w.rank**2


@given(weight_vectors())
def test_hom_datum_correction_equals_flag_dim(w):
    m = hom_datum(w).entries
    e = w.ramification
    corr = Fraction(sum(d * (m[d] - m[d + 1]) for d in range(e)), e)
    assert corr == flag_dim(w)


def test_root_line_datum_examples():
    assert root_line_datum(0, 3).entries == (1, 0, 0, 0)
    assert root_line_datum(4, 3).entries == (1, 1, 0, 0)
    assert root_line_datum(2, 2).entries == (1, 0, 0)
    with pytest.raises(InvalidArgumentError):
        root_line_datum(-1, 3)
    with pytest.raises(InvalidArgumentError):
        root_line_datum(0, 0)


def test_point_validation():
    w = validate_weights([2, 1, 0])
    p = ParabolicPoint(1, 2, w)
    assert p.ramification == 2
    with pytest.raises(InvalidArgumentError):
        ParabolicPoint(0, 2, w)
    with pytest.raises(InvalidArgumentError):
        ParabolicPoint(1, 3, w)
    with pytest.raises(InvalidArgumentError):
        ParabolicPoint(1, 0, w)


def test_curve_and_bundle_validation():
    w = validate_weights([2, 1, 0])
    curve = OrbifoldCurve(2, (ParabolicPoint(1, 2, w),))
    b = ParabolicBundle(curve, 2, 5)
    assert b.degree == 5
    with pytest.raises(InvalidArgumentError):
        OrbifoldCurve(-1)
    with pytest.raises(InvalidArgumentError):
        ParabolicBundle(curve, 3, 5)  # weights start at 2, rank 3
    with pytest.raises(InvalidArgumentError):
        ParabolicBundle(OrbifoldCurve(0), 0, 0)


def test_bundle_on_helper():
    b = bundle_on(2, 2, 1, [(1, 3, [2, 1, 1, 0])])
    assert b.curve.genus == 2
    assert b.curve.points[0].weights.entries == (2, 1, 1, 0)


@given(weight_vectors(max_ram=6, max_rank=6))
@settings(max_examples=50)
def test_weights_are_immutable_and_hashable(w):
    assert hash(w) == hash(Weights(w.entries))
    with pytest.raises(AttributeError):
        w.entries = (1, 0)
