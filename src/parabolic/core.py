"""Parabolic weight vectors, orbifold curve data, and their combinatorics.

A weight vector (n_0 >= n_1 >= ... >= n_e = 0) records the fiber flag of a
parabolic bundle at one marked point with ramification index e; its jumps
delta_i = n_i - n_{i+1} are the graded dimensions of the local cyclic-group
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidArgumentError, InvalidWeightsError


@dataclass(frozen=True)
class Weights:
    """Nonincreasing integers (n_0, ..., n_e) with n_e = 0, length e + 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        n = self.entries
        if len(n) < 2:
            raise InvalidWeightsError(f"weights need length >= 2, got {n!r}")
        if any(a < b for a, b in zip(n, n[1:])):
            raise InvalidWeightsError(f"weights must be nonincreasing, got {n!r}")
        if n[-1] != 0:
            raise InvalidWeightsError(f"weights must end in 0, got {n!r}")

    @property
    def ramification(self) -> int:
        return len(self.entries) - 1

    @property
    def rank(self) -> int:
        return self.entries[0]

    def to_json_obj(self) -> list[int]:
        """JSON form: the full integer array, trailing 0 included."""
        return list(self.entries)


def validate_weights(entries: Iterable[int]) -> Weights:
    """Build a Weights value from ints (a bool, float or str is refused, never
    coerced), rejecting anything non-monotone or unterminated."""
    n = tuple(entries)
    if not all(type(x) is int for x in n):
        raise InvalidWeightsError(f"weights must be integers, got {n!r}")
    return Weights(n)


def jumps(w: Weights) -> tuple[int, ...]:
    """The jump vector (delta_0, ..., delta_{e-1}); nonnegative, sums to n_0."""
    n = w.entries
    return tuple(n[d] - n[d + 1] for d in range(len(n) - 1))


def flag_dim(w: Weights) -> int:
    """Dimension of the flag variety of subspace chains with these dimensions.

    Computed as sum over i = 1..e-1 of n_i * (n_{i-1} - n_i); equal to the
    cross-jump sum over pairs i < j of delta_i * delta_j and to
    (n_0^2 - sum of delta_i^2) / 2.
    """
    n = w.entries
    return sum(n[i] * (n[i - 1] - n[i]) for i in range(1, len(n) - 1))


def flag_total(bundle: ParabolicBundle) -> int:
    """Residue-degree-weighted sum of the flag dimensions at all points."""
    return sum(p.degree * flag_dim(p.weights) for p in bundle.curve.points)


def hom_datum(w: Weights) -> Weights:
    """Weight vector of the endomorphism bundle of a bundle with datum w.

    m_d counts jump pairs (i, j) with (i - j) mod e >= d, weighted by
    delta_i * delta_j, so m_0 = n_0^2 and m_d - m_{d+1} is the dimension of
    the part where the local action has weight d.
    """
    e = w.ramification
    nonzero = [(i, x) for i, x in enumerate(jumps(w)) if x]
    cls = [0] * e
    for i, x in nonzero:
        for j, y in nonzero:
            cls[(i - j) % e] += x * y
    m = [0] * (e + 1)
    for d in range(e - 1, -1, -1):
        m[d] = m[d + 1] + cls[d]
    return Weights(tuple(m))


def root_line_datum(i: int, e: int) -> Weights:
    """Rank-one weights of the i-th power of the root line bundle.

    Writing i = a*e + l, the datum has its single jump at level l:
    n_0 = ... = n_l = 1 and n_{l+1} = ... = n_e = 0.
    """
    if e < 1:
        raise InvalidArgumentError(f"root_line_datum requires e >= 1, got {e}")
    if i < 0:
        raise InvalidArgumentError(f"root_line_datum requires i >= 0, got {i}")
    l = i % e
    return Weights(tuple([1] * (l + 1) + [0] * (e - l)))


@dataclass(frozen=True)
class ParabolicPoint:
    """One marked closed point: residue degree, ramification index, weights."""

    degree: int
    ramification: int
    weights: Weights

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidArgumentError(f"point degree must be >= 1, got {self.degree}")
        if self.ramification < 1:
            raise InvalidArgumentError(
                f"ramification index must be >= 1, got {self.ramification}"
            )
        if self.weights.ramification != self.ramification:
            raise InvalidArgumentError(
                f"weights length {len(self.weights.entries)} does not match "
                f"ramification index {self.ramification}"
            )


@dataclass(frozen=True)
class OrbifoldCurve:
    """A smooth projective curve of genus g with marked orbifold points."""

    genus: int
    points: tuple[ParabolicPoint, ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise InvalidArgumentError(f"genus must be >= 0, got {self.genus}")


@dataclass(frozen=True)
class ParabolicBundle:
    """A parabolic bundle: curve, rank, and degree of the underlying bundle."""

    curve: OrbifoldCurve
    rank: int
    degree: int

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidArgumentError(f"rank must be >= 1, got {self.rank}")
        for idx, p in enumerate(self.curve.points):
            if p.weights.rank != self.rank:
                raise InvalidArgumentError(
                    f"point {idx}: weights start at {p.weights.rank}, "
                    f"but the bundle has rank {self.rank}"
                )


def bundle_on(
    genus: int,
    rank: int,
    degree: int,
    points: Sequence[tuple[int, int, Sequence[int]]] = (),
) -> ParabolicBundle:
    """Convenience constructor from plain data.

    Each point is a (residue degree, ramification index, weights) triple.
    """
    pts = tuple(
        ParabolicPoint(f, e, validate_weights(w)) for f, e, w in points
    )
    return ParabolicBundle(OrbifoldCurve(genus, pts), rank, degree)
