"""Euler characteristics on an orbifold curve.

The Euler characteristic of a parabolic bundle splits as a classical part
(degree plus (1 - g) * rank, with the degree measured on the orbifold) minus
a weighted jump correction per marked point; equivalently as a global
integral plus a sum of inertia contributions.  Both assemblies are computed
here and cross-checked by the oracle module, as are the rational closed forms
of the inertia totals and the root-of-unity sums.  Each value is one ``Fraction``
built from integer numerators over a common denominator (a multiple of lcm(e_i)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .core import (
    FrozenValue,
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    _derived,
    flag_total,
    hom_datum,
    jumps,
)
from .errors import InternalInconsistencyError, InvalidArgumentError


class _ChiMemo(FrozenValue):
    """The slot where euler_char leaves the bundle's points for the first read
    of ChiReport.corrections.  Like core._BundleMemo, it is not a field."""

    __slots__ = ("_points",)


class ChiReport(_ChiMemo):
    """Euler characteristic of a bundle with its constituent terms.

    Invariant: chi == stacky_degree + (1 - g) * rank - sum of
    degree(p_i) * correction_i == classical_part - sum of weighted
    corrections.  A report from euler_char builds its corrections on their
    first read and keeps them.
    """

    __slots__ = ("chi", "stacky_degree", "classical_part", "corrections")

    def __init__(self, chi: Fraction, stacky_degree: Fraction, classical_part: Fraction,
                 corrections: tuple[tuple[int, Fraction], ...]):
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "stacky_degree", stacky_degree)
        object.__setattr__(self, "classical_part", classical_part)
        object.__setattr__(self, "corrections", corrections)

    def __getattr__(self, name: str) -> tuple[tuple[int, Fraction], ...]:
        # called only when the normal lookup fails: an unset slot or a missing name
        if name != "corrections":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        corrections = tuple([(i, Fraction(_correction_numerator(p), p.ramification))
                             for i, p in enumerate(self._points)])
        object.__setattr__(self, "corrections", corrections)
        return corrections

    def to_json_obj(self) -> dict:
        return {
            "chi": str(self.chi),
            "stacky_degree": str(self.stacky_degree),
            "classical_part": str(self.classical_part),
            "corrections": [[str(i), str(c)] for i, c in self.corrections],
        }


def _correction_numerator(point: ParabolicPoint) -> int:
    """e times the point's correction: the sum of d * (n_d - n_{d+1}) over d < e."""
    # the sum telescopes to n_1 + ... + n_{e-1} because n_e = 0, which Weights enforces
    return sum(point.weights.entries[1:-1])


def stacky_degree(bundle: ParabolicBundle) -> Fraction:
    """Degree measured on the orbifold: underlying degree plus corrections."""
    return euler_char(bundle).stacky_degree


def euler_char(bundle: ParabolicBundle) -> ChiReport:
    """Full Euler characteristic report for a parabolic bundle."""
    points = bundle.curve.points
    den = math.lcm(*(p.ramification for p in points))
    weighted = 0  # weighted and the sums below are numerators over den
    for p in points:
        c = _correction_numerator(p)
        weighted += p.degree * c * (den // p.ramification)
    stacky = bundle.degree * den + weighted
    classical = stacky + (1 - bundle.curve.genus) * bundle.rank * den
    chi = classical - weighted
    return _derived(ChiReport, chi=Fraction(chi, den), stacky_degree=Fraction(stacky, den),
                    classical_part=Fraction(classical, den), _points=points)


def global_term(
    deg: Fraction | int, rank: int, genus: int, points: Iterable[tuple[int, int]]
) -> Fraction:
    """The non-inertia part of the Euler characteristic integral.

    deg + rank * (1 - g) + sum over points of f * rank * (1 - e) / (2e).
    """
    points = list(points)
    den = 2 * deg.denominator * math.lcm(*[e for _, e in points])
    total = deg.numerator * (den // deg.denominator) + rank * (1 - genus) * den
    for f, e in points:
        total += f * rank * (1 - e) * (den // (2 * e))
    return Fraction(total, den)


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


def inertia_bundle_total(point: ParabolicPoint) -> Fraction:
    """Inertia contribution of one point: jump-weighted inertia totals.

    Equals rank * (e - 1) / (2e) minus the point's correction in ChiReport.corrections.
    """
    e = point.ramification
    total = 0  # over 2e, which every inertia_total(e, d) denominator divides
    for d, delta in enumerate(jumps(point.weights)):
        if delta:
            t = inertia_total(e, d)
            total += delta * t.numerator * (2 * e // t.denominator)
    return Fraction(total, 2 * e)


def end_bundle(bundle: ParabolicBundle) -> ParabolicBundle:
    """The endomorphism bundle: rank r^2, hom weights, stacky degree zero.

    The underlying degree is the integer forced by the vanishing of its
    stacky degree.
    """
    # degree and ramification come from a validated point, and hom_datum keeps length e + 1
    points = tuple(
        _derived(ParabolicPoint, degree=p.degree, ramification=p.ramification,
                 weights=hom_datum(p.weights))
        for p in bundle.curve.points
    )
    den = math.lcm(*(p.ramification for p in points))
    deg = -sum(p.degree * _correction_numerator(p) * (den // p.ramification) for p in points)
    if deg % den:
        raise InternalInconsistencyError(
            f"endomorphism bundle degree {Fraction(deg, den)} is not an integer"
        )
    curve = OrbifoldCurve(bundle.curve.genus, points)
    return ParabolicBundle(curve, bundle.rank**2, deg // den)


def end_euler_char(bundle: ParabolicBundle) -> Fraction:
    """Euler characteristic of the endomorphism bundle.

    (1 - g) * r^2 minus the residue-degree-weighted flag dimensions; agrees
    with euler_char(end_bundle(bundle)).chi.
    """
    return Fraction((1 - bundle.curve.genus) * bundle.rank**2 - flag_total(bundle))
