"""Euler characteristics on an orbifold curve.

The Euler characteristic of a parabolic bundle splits as a classical part
(degree plus (1 - g) * rank, with the degree measured on the orbifold) minus
a weighted jump correction per marked point; equivalently as a global
integral plus a sum of inertia contributions.  Both assemblies are computed
here and cross-checked by the oracle module.  Each value is one ``Fraction``
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
    flag_total,
    hom_datum,
    jumps,
)
from .cyclotomic import inertia_total
from .errors import InternalInconsistencyError


class ChiReport(FrozenValue):
    """Euler characteristic of a bundle with its constituent terms.

    Invariant: chi == stacky_degree + (1 - g) * rank - sum of
    degree(p_i) * correction_i == classical_part - sum of weighted
    corrections.
    """

    __slots__ = ("chi", "stacky_degree", "classical_part", "corrections")

    def __init__(self, chi: Fraction, stacky_degree: Fraction, classical_part: Fraction,
                 corrections: tuple[tuple[int, Fraction], ...]):
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "stacky_degree", stacky_degree)
        object.__setattr__(self, "classical_part", classical_part)
        object.__setattr__(self, "corrections", corrections)

    def to_json_obj(self) -> dict:
        return {
            "chi": str(self.chi),
            "stacky_degree": str(self.stacky_degree),
            "classical_part": str(self.classical_part),
            "corrections": [[str(i), str(c)] for i, c in self.corrections],
        }


def _correction_numerator(point: ParabolicPoint) -> int:
    """e * correction_term(point): the sum of d * (n_d - n_{d+1}) over d < e."""
    n = point.weights.entries
    return sum(d * (n[d] - n[d + 1]) for d in range(point.ramification))


def correction_term(point: ParabolicPoint) -> Fraction:
    """Sum of d * (n_d - n_{d+1}) / e over the jumps at one point.

    The residue-degree factor is applied by callers.
    """
    return Fraction(_correction_numerator(point), point.ramification)


def stacky_degree(bundle: ParabolicBundle) -> Fraction:
    """Degree measured on the orbifold: underlying degree plus corrections."""
    return euler_char(bundle).stacky_degree


def euler_char(bundle: ParabolicBundle) -> ChiReport:
    """Full Euler characteristic report for a parabolic bundle."""
    points = bundle.curve.points
    den = math.lcm(*(p.ramification for p in points))
    corrections, weighted = [], 0  # weighted and the sums below are numerators over den
    for i, p in enumerate(points):
        c = _correction_numerator(p)
        corrections.append((i, Fraction(c, p.ramification)))
        weighted += p.degree * c * (den // p.ramification)
    stacky = bundle.degree * den + weighted
    classical = stacky + (1 - bundle.curve.genus) * bundle.rank * den
    chi = classical - weighted
    return ChiReport(Fraction(chi, den), Fraction(stacky, den), Fraction(classical, den),
                     tuple(corrections))


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


def inertia_bundle_total(point: ParabolicPoint) -> Fraction:
    """Inertia contribution of one point: jump-weighted inertia totals.

    Equals rank * (e - 1) / (2e) - correction_term(point).
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
    points = tuple(
        ParabolicPoint(p.degree, p.ramification, hom_datum(p.weights))
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
