import copy
import math
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic import bounds, core
from parabolic.bounds import (
    GradedPiece,
    ed_p_value,
    ed_upper_bound,
    flag_total,
    gerbe_ed_p,
    gerbe_ed_upper,
    gerbe_index,
    nil_dimension,
    trdeg_bound_indecomposable,
    trdeg_bound_nonsimple,
)
from parabolic.core import bundle_on, validate_weights
from parabolic.errors import HypothesisViolationError, InvalidArgumentError
from parabolic.exact_arith import factorize
from parabolic.riemann_roch import end_euler_char


def test_gerbe_index_examples():
    assert gerbe_index(bundle_on(2, 6, 4, [(1, 2, [6, 2, 0])])) == 2
    assert gerbe_index(bundle_on(2, 2, 1, [(1, 2, [2, 1, 0])])) == 1
    assert gerbe_index(bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])])) == 12
    assert gerbe_index(bundle_on(2, 2, 2)) == 2
    assert gerbe_index(bundle_on(2, 4, -6)) == 2  # degree enters by absolute value
    assert gerbe_index(bundle_on(2, 3, 0)) == 3  # gcd with zero


def test_gerbe_index_divides_its_inputs():
    b = bundle_on(2, 12, 18, [(1, 3, [12, 6, 6, 0]), (2, 2, [12, 9, 0])])
    h = gerbe_index(b)
    assert b.rank % h == 0
    assert b.degree % h == 0
    for p in b.curve.points:
        for w in p.weights.entries[1 : p.ramification]:
            assert w % h == 0


def test_gerbe_ed_upper_examples():
    assert gerbe_ed_upper(12) == 5
    assert gerbe_ed_upper(1) == 0
    assert gerbe_ed_upper(8) == 7


def test_gerbe_ed_p_examples():
    assert gerbe_ed_p(12, 2) == 3
    assert gerbe_ed_p(12, 5) == 0
    assert gerbe_ed_p(27, 3) == 26
    with pytest.raises(InvalidArgumentError):
        gerbe_ed_p(12, 6)


@given(st.integers(min_value=1, max_value=10**5))
def test_gerbe_ed_upper_is_sum_of_p_parts(n):
    assert gerbe_ed_upper(n) == sum(gerbe_ed_p(n, p) for p, _ in factorize(n))


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
@settings(max_examples=100)
def test_gerbe_ed_upper_additive_on_coprimes(m, n):
    from math import gcd

    if gcd(m, n) == 1:
        assert gerbe_ed_upper(m * n) == gerbe_ed_upper(m) + gerbe_ed_upper(n)


def _piece(rank, *weights):
    return GradedPiece(rank, tuple(validate_weights(w) for w in weights))


def test_nil_dimension_examples():
    assert nil_dimension(2, [_piece(2, [2, 1, 0])], [1]) == 5
    assert nil_dimension(1, [_piece(2, [2, 1, 0]), _piece(1, [1, 0, 0])], [1]) == 1
    assert nil_dimension(2, [_piece(1, [1, 0]), _piece(1, [1, 0])], [1]) == 2


def test_nil_dimension_validation():
    with pytest.raises(InvalidArgumentError):
        nil_dimension(2, [], [1])
    with pytest.raises(InvalidArgumentError):
        GradedPiece(2, (validate_weights([3, 1, 0]),))
    with pytest.raises(InvalidArgumentError):
        GradedPiece(0, ())
    with pytest.raises(InvalidArgumentError):
        nil_dimension(2, [_piece(2, [2, 1, 0])], [1, 1])


def test_nil_dimension_weights_residue_degrees():
    # two points with different residue degrees weight the flag dimensions
    piece = _piece(2, [2, 1, 0], [2, 1, 0])
    assert nil_dimension(2, [piece], [1, 3]) == 4 + 1 + 3


def test_trdeg_bound_indecomposable_examples():
    assert trdeg_bound_indecomposable(2, [2], 1) == 6
    assert trdeg_bound_indecomposable(2, [1, 1], 1) == 4
    assert trdeg_bound_indecomposable(0, [1], 0) == 0
    with pytest.raises(InvalidArgumentError):
        trdeg_bound_indecomposable(2, [], 0)
    with pytest.raises(InvalidArgumentError):
        trdeg_bound_indecomposable(2, [2, 0], 1)


def test_trdeg_bound_nonsimple_examples():
    assert trdeg_bound_nonsimple(2, 2, 1) == 5
    assert trdeg_bound_nonsimple(2, 3, 0) == 8
    with pytest.raises(HypothesisViolationError):
        trdeg_bound_nonsimple(1, 2, 0)
    with pytest.raises(HypothesisViolationError):
        trdeg_bound_nonsimple(2, 1, 0)


def test_nil_dimension_plus_one_is_indecomposable_bound():
    b = bundle_on(3, 4, 5, [(2, 3, [4, 2, 1, 0])])
    pieces = [GradedPiece(b.rank, tuple(p.weights for p in b.curve.points))]
    fs = [p.degree for p in b.curve.points]
    nd = nil_dimension(b.curve.genus, pieces, fs)
    assert nd == (b.curve.genus - 1) * b.rank**2 + flag_total(b)
    assert trdeg_bound_indecomposable(b.curve.genus, [b.rank], flag_total(b)) == nd + 1


def test_ed_upper_bound_worked_examples():
    small = ed_upper_bound(bundle_on(2, 2, 0, [(1, 2, [2, 1, 0])]))
    assert (small.h, small.base, small.flag_total, small.gerbe_term, small.total) == (
        1, 5, 1, 0, 6,
    )
    assert small.conjectural is True

    big = ed_upper_bound(bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])]))
    assert (big.h, big.base, big.flag_total, big.gerbe_term, big.total) == (
        12, 145, 0, 5, 150,
    )

    nopoints = ed_upper_bound(bundle_on(2, 2, 2))
    assert (nopoints.h, nopoints.total) == (2, 6)


def test_ed_p_value_worked_examples():
    b = bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])])
    for p, expected in ((2, 148), (3, 147), (5, 145)):
        rep = ed_p_value(b, p)
        assert rep.total == expected
        assert rep.conjectural is False
        assert rep.prime == p
        assert rep.total == rep.base + rep.flag_total + rep.gerbe_term


def test_ed_guards():
    low_genus = bundle_on(1, 2, 0, [(1, 2, [2, 1, 0])])
    with pytest.raises(HypothesisViolationError):
        ed_upper_bound(low_genus)
    with pytest.raises(HypothesisViolationError):
        ed_p_value(low_genus, 2)
    # the prime is checked before the genus
    with pytest.raises(InvalidArgumentError):
        ed_p_value(low_genus, 4)
    b = bundle_on(2, 2, 0)
    with pytest.raises(InvalidArgumentError):
        ed_p_value(b, 4)


def test_ed_report_serialization():
    rep = ed_upper_bound(bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])]))
    assert rep.to_json_obj() == {
        "h": 12,
        "base": 145,
        "flag_total": 0,
        "gerbe_term": 5,
        "total": 150,
        "conjectural": True,
    }
    repp = ed_p_value(bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])]), 3)
    assert repp.to_json_obj()["prime"] == 3
    assert repp.to_json_obj()["conjectural"] is False
    # the keys are the report's fields in order, prime last and only when set
    fields = ["h", "base", "flag_total", "gerbe_term", "total", "conjectural", "prime"]
    assert list(rep.to_json_obj()) == fields[:-1]
    assert list(repp.to_json_obj()) == fields


def test_a_bundle_computes_its_flag_total_and_gerbe_index_once(monkeypatch):
    calls = {"flag_dim": 0, "gcd": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(core, "flag_dim", counted("flag_dim", core.flag_dim))
    # a namespace, not math.gcd itself, which every Fraction calls
    monkeypatch.setattr(bounds, "math", SimpleNamespace(gcd=counted("gcd", math.gcd)))
    data = (2, 12, 18, [(1, 3, [12, 6, 6, 0]), (2, 2, [12, 6, 0])])  # h = 6
    for b in (bundle_on(*data), bundle_on(*data)):  # the second, equal bundle counts again
        calls.update(flag_dim=0, gcd=0)
        end_euler_char(b)
        ed_upper_bound(b)
        for p in (2, 3):
            ed_p_value(b, p)
        assert calls == {"flag_dim": 2, "gcd": 1}
        fresh = bundle_on(*data)
        assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
        assert pickle.dumps(b) == pickle.dumps(fresh) and pickle.loads(pickle.dumps(b)) == fresh
        assert copy.copy(b) == fresh and copy.deepcopy(b) == fresh

@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-24, max_value=24),
)
@settings(max_examples=150)
def test_ed_p_below_ed_upper(genus, rank, degree):
    b = bundle_on(genus, rank, degree)
    upper = ed_upper_bound(b)
    for p, _ in factorize(upper.h):
        assert ed_p_value(b, p).total <= upper.total
