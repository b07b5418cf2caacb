"""Euler characteristics on an orbifold curve.

The Euler characteristic of a parabolic bundle splits as a classical part
(degree plus (1 - g) * rank, with the degree measured on the orbifold) minus
a weighted jump correction per marked point; equivalently as a global
integral plus a sum of inertia contributions.  Both assemblies are computed
here and cross-checked by the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    flag_total,
    hom_datum,
    jumps,
)
from .cyclotomic import inertia_total
from .errors import InternalInconsistencyError
from .exact_arith import rational_str


@dataclass(frozen=True)
class ChiReport:
    """Euler characteristic of a bundle with its constituent terms.

    Invariant: chi == stacky_degree + (1 - g) * rank - sum of
    degree(p_i) * correction_i == classical_part - sum of weighted
    corrections.
    """

    chi: Fraction
    stacky_degree: Fraction
    classical_part: Fraction
    corrections: tuple[tuple[int, Fraction], ...]

    def to_json_obj(self) -> dict:
        return {
            "chi": rational_str(self.chi),
            "stacky_degree": rational_str(self.stacky_degree),
            "classical_part": rational_str(self.classical_part),
            "corrections": [[str(i), rational_str(c)] for i, c in self.corrections],
        }


def correction_term(point: ParabolicPoint) -> Fraction:
    """Sum of d * (n_d - n_{d+1}) / e over the jumps at one point.

    The residue-degree factor is applied by callers.
    """
    n = point.weights.entries
    e = point.ramification
    return Fraction(sum(d * (n[d] - n[d + 1]) for d in range(e)), e)


def stacky_degree(bundle: ParabolicBundle) -> Fraction:
    """Degree measured on the orbifold: underlying degree plus corrections."""
    return euler_char(bundle).stacky_degree


def euler_char(bundle: ParabolicBundle) -> ChiReport:
    """Full Euler characteristic report for a parabolic bundle."""
    g = bundle.curve.genus
    corrections = tuple(
        (i, correction_term(p)) for i, p in enumerate(bundle.curve.points)
    )
    weighted = sum(
        (p.degree * c for p, (_, c) in zip(bundle.curve.points, corrections)),
        Fraction(0),
    )
    stacky = bundle.degree + weighted
    classical = stacky + (1 - g) * bundle.rank
    chi = classical - weighted
    return ChiReport(chi, stacky, classical, corrections)


def global_term(
    deg: Fraction | int, rank: int, genus: int, points: Iterable[tuple[int, int]]
) -> Fraction:
    """The non-inertia part of the Euler characteristic integral.

    deg + rank * (1 - g) + sum over points of f * rank * (1 - e) / (2e).
    """
    total = Fraction(deg) + rank * (1 - genus)
    for f, e in points:
        total += f * Fraction(rank * (1 - e), 2 * e)
    return total


def inertia_bundle_total(point: ParabolicPoint) -> Fraction:
    """Inertia contribution of one point: jump-weighted inertia totals.

    Equals rank * (e - 1) / (2e) - correction_term(point).
    """
    e = point.ramification
    return sum(
        (delta * inertia_total(e, d) for d, delta in enumerate(jumps(point.weights)) if delta),
        Fraction(0),
    )


def end_bundle(bundle: ParabolicBundle) -> ParabolicBundle:
    """The endomorphism bundle: rank r^2, hom weights, stacky degree zero.

    The underlying degree is the integer forced by the vanishing of its
    stacky degree.
    """
    points = tuple(
        ParabolicPoint(p.degree, p.ramification, hom_datum(p.weights))
        for p in bundle.curve.points
    )
    deg = -sum(
        (p.degree * correction_term(p) for p in points), Fraction(0)
    )
    if deg.denominator != 1:
        raise InternalInconsistencyError(
            f"endomorphism bundle degree {deg} is not an integer"
        )
    curve = OrbifoldCurve(bundle.curve.genus, points)
    return ParabolicBundle(curve, bundle.rank**2, int(deg))


def end_euler_char(bundle: ParabolicBundle) -> Fraction:
    """Euler characteristic of the endomorphism bundle.

    (1 - g) * r^2 minus the residue-degree-weighted flag dimensions; agrees
    with euler_char(end_bundle(bundle)).chi.
    """
    return Fraction((1 - bundle.curve.genus) * bundle.rank**2 - flag_total(bundle))
