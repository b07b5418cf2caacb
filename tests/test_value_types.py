"""The contract of the eight immutable value types.

Equality and hash go by the tuple of fields, the repr names every field,
every field is read-only, the constructors take keywords and defaults, and
copy, deepcopy and pickle give back an equal value of the same type.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from parabolic.bounds import EdReport, GradedPiece
from parabolic.core import OrbifoldCurve, ParabolicBundle, ParabolicPoint, Weights
from parabolic.cyclotomic import CycloElem, cyclo_field
from parabolic.riemann_roch import ChiReport

W = Weights((2, 1, 0))
POINT = ParabolicPoint(1, 2, W)
CURVE = OrbifoldCurve(2, (POINT,))
BUNDLE = ParabolicBundle(CURVE, 2, 1)

# name -> (class, positional field values, a value with one field changed, repr)
VALUES = {
    "Weights": (Weights, ((2, 1, 0),), Weights((3, 1, 0)), "Weights(entries=(2, 1, 0))"),
    "ParabolicPoint": (
        ParabolicPoint, (1, 2, W), ParabolicPoint(2, 2, W),
        "ParabolicPoint(degree=1, ramification=2, weights=Weights(entries=(2, 1, 0)))"),
    "OrbifoldCurve": (
        OrbifoldCurve, (2, (POINT,)), OrbifoldCurve(2),
        "OrbifoldCurve(genus=2, points=(ParabolicPoint(degree=1, ramification=2, "
        "weights=Weights(entries=(2, 1, 0))),))"),
    "ParabolicBundle": (
        ParabolicBundle, (CURVE, 2, 1), ParabolicBundle(CURVE, 2, 0),
        "ParabolicBundle(curve=OrbifoldCurve(genus=2, points=(ParabolicPoint(degree=1, "
        "ramification=2, weights=Weights(entries=(2, 1, 0))),)), rank=2, degree=1)"),
    "GradedPiece": (
        GradedPiece, (2, (W,)), GradedPiece(2, ()),
        "GradedPiece(rank=2, weights=(Weights(entries=(2, 1, 0)),))"),
    "EdReport": (
        EdReport, (1, 5, 1, 0, 6, False, 2), EdReport(1, 5, 1, 0, 6, False),
        "EdReport(h=1, base=5, flag_total=1, gerbe_term=0, total=6, conjectural=False, "
        "prime=2)"),
    "ChiReport": (
        ChiReport,
        (Fraction(-1), Fraction(3, 2), Fraction(-1, 2), ((0, Fraction(1, 2)),)),
        ChiReport(Fraction(0), Fraction(3, 2), Fraction(-1, 2), ((0, Fraction(1, 2)),)),
        "ChiReport(chi=Fraction(-1, 1), stacky_degree=Fraction(3, 2), "
        "classical_part=Fraction(-1, 2), corrections=((0, Fraction(1, 2)),))"),
    "CycloElem": (
        CycloElem, (cyclo_field(3), (1, -2), 3), CycloElem(cyclo_field(3), (1, -2)),
        "CycloElem(e=3, coeffs=['1/3', '-2/3'])"),
}
FIELDS = {
    "Weights": ("entries",),
    "ParabolicPoint": ("degree", "ramification", "weights"),
    "OrbifoldCurve": ("genus", "points"),
    "ParabolicBundle": ("curve", "rank", "degree"),
    "GradedPiece": ("rank", "weights"),
    "EdReport": ("h", "base", "flag_total", "gerbe_term", "total", "conjectural", "prime"),
    "ChiReport": ("chi", "stacky_degree", "classical_part", "corrections"),
    "CycloElem": ("field", "num", "den"),
}


def _build(name):
    cls, values, _, _ = VALUES[name]
    return cls(*values)


@pytest.mark.parametrize("name", VALUES)
def test_fields_equality_and_hash(name):
    cls, values, other, _ = VALUES[name]
    a, b = cls(*values), cls(*values)
    assert tuple(getattr(a, f) for f in FIELDS[name]) == values
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != other and hash(other) == hash(tuple(getattr(other, f) for f in FIELDS[name]))
    assert a != values and a.__eq__(values) is NotImplemented
    for other_name in VALUES:
        if other_name != name:
            assert a != _build(other_name)


@pytest.mark.parametrize("name", VALUES)
def test_repr(name):
    assert repr(_build(name)) == VALUES[name][3]


@pytest.mark.parametrize("name", VALUES)
def test_fields_are_read_only(name):
    a = _build(name)
    for f in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == _build(name)


@pytest.mark.parametrize("name", VALUES)
def test_keyword_construction(name):
    cls, values, _, _ = VALUES[name]
    assert cls(**dict(zip(FIELDS[name], values))) == cls(*values)


def test_defaults():
    assert OrbifoldCurve(genus=1).points == ()
    assert EdReport(h=1, base=5, flag_total=1, gerbe_term=0, total=6,
                    conjectural=True).prime is None
    assert CycloElem(field=cyclo_field(5), num=(1, 0, 0, 0)).den == 1


@pytest.mark.parametrize("name", VALUES)
def test_copy_deepcopy_and_pickle(name):
    a = _build(name)
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for b in copies:
        assert type(b) is type(a) and b == a and hash(b) == hash(a)
        assert repr(b) == repr(a)
