"""Parabolic weight vectors, orbifold curve data, and their combinatorics.

A weight vector (n_0 >= n_1 >= ... >= n_e = 0) records the fiber flag of a
parabolic bundle at one marked point with ramification index e; its jumps
delta_i = n_i - n_{i+1} are the graded dimensions of the local cyclic-group
action.
"""

from __future__ import annotations

import operator
from itertools import accumulate

from .errors import InvalidArgumentError, InvalidWeightsError


class FrozenValue:
    """Base of the immutable value types.  Each subclass lists its fields in
    ``__slots__`` and sets them in ``__init__`` through object.__setattr__;
    equality, hash, repr and pickling go by the tuple of fields.  A slot whose
    name starts with ``_`` is not a field: it holds a value computed on first
    use, which an equal value, a copy or an unpickled value computes again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple([name for name in cls.__slots__ if name[0] != "_"])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _read_only(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def _derived(cls: type, **fields: object) -> FrozenValue:
    """A cls value with these slots set, built without running cls.__init__.

    Only for values the library computes itself, whose constructor checks
    hold by construction; every input keeps its checks.
    """
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


class Weights(FrozenValue):
    """Nonincreasing integers (n_0, ..., n_e) with n_e = 0, length e + 1; a bool,
    float or str entry is refused, never coerced."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        n = entries
        if not {*map(type, n)} <= {int}:
            raise InvalidWeightsError(f"weights must be integers, got {n!r}")
        if len(n) < 2:
            raise InvalidWeightsError(f"weights need length >= 2, got {n!r}")
        if not all(map(operator.ge, n, n[1:])):
            raise InvalidWeightsError(f"weights must be nonincreasing, got {n!r}")
        if n[-1] != 0:
            raise InvalidWeightsError(f"weights must end in 0, got {n!r}")
        object.__setattr__(self, "entries", entries)

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
    """Build a Weights value from any iterable of ints."""
    return Weights(tuple(entries))


def jumps(w: Weights) -> tuple[int, ...]:
    """The jump vector (delta_0, ..., delta_{e-1}); nonnegative, sums to n_0."""
    n = w.entries
    return tuple(map(operator.sub, n, n[1:]))


def flag_dim(w: Weights) -> int:
    """Dimension of the flag variety of subspace chains with these dimensions.

    Computed as sum over i = 1..e-1 of n_i * (n_{i-1} - n_i); equal to the
    cross-jump sum over pairs i < j of delta_i * delta_j and to
    (n_0^2 - sum of delta_i^2) / 2.
    """
    n = w.entries
    return sum(map(operator.mul, n[1:-1], map(operator.sub, n, n[1:])))


def flag_total(bundle: ParabolicBundle) -> int:
    """Residue-degree-weighted sum of the flag dimensions at all points.

    Computed on the first call for this bundle object and stored on it.
    """
    total = getattr(bundle, "_flag_total", None)
    if total is None:
        total = sum(p.degree * flag_dim(p.weights) for p in bundle.curve.points)
        object.__setattr__(bundle, "_flag_total", total)
    return total


def hom_datum(w: Weights) -> Weights:
    """Weight vector of the endomorphism bundle of a bundle with datum w.

    m_d counts jump pairs (i, j) with (i - j) mod e >= d, weighted by
    delta_i * delta_j, so m_0 = n_0^2 and m_d - m_{d+1} is the dimension of
    the part where the local action has weight d.  Each unordered pair j < i
    of nonzero jumps is visited once and counts at i - j and at e - (i - j).
    """
    e = w.ramification
    nonzero = [(i, x) for i, x in enumerate(jumps(w)) if x]
    cls = [0] * e
    for k, (i, x) in enumerate(nonzero):
        cls[0] += x * x
        for j, y in nonzero[:k]:
            p = x * y
            cls[i - j] += p
            cls[e - (i - j)] += p
    m = list(accumulate(reversed(cls), initial=0))  # m_e = 0, m_{e-1}, ..., m_0
    # suffix sums of nonnegative ints: nonincreasing, length e + 1, ending in 0
    return _derived(Weights, entries=tuple(reversed(m)))


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
    return _derived(Weights, entries=tuple([1] * (l + 1) + [0] * (e - l)))


class ParabolicPoint(FrozenValue):
    """One marked closed point: residue degree, ramification index, weights."""

    __slots__ = ("degree", "ramification", "weights")

    def __init__(self, degree: int, ramification: int, weights: Weights):
        if degree < 1:
            raise InvalidArgumentError(f"point degree must be >= 1, got {degree}")
        if ramification < 1:
            raise InvalidArgumentError(f"ramification index must be >= 1, got {ramification}")
        if weights.ramification != ramification:
            raise InvalidArgumentError(f"weights length {len(weights.entries)} does not "
                                       f"match ramification index {ramification}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "ramification", ramification)
        object.__setattr__(self, "weights", weights)


class OrbifoldCurve(FrozenValue):
    """A smooth projective curve of genus g with marked orbifold points."""

    __slots__ = ("genus", "points")

    def __init__(self, genus: int, points: tuple[ParabolicPoint, ...] = ()):
        if genus < 0:
            raise InvalidArgumentError(f"genus must be >= 0, got {genus}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "points", points)


class ParabolicBundle(FrozenValue):
    """A parabolic bundle: curve, rank, and degree of the underlying bundle."""

    __slots__ = ("curve", "rank", "degree", "_flag_total", "_gerbe_index")

    def __init__(self, curve: OrbifoldCurve, rank: int, degree: int):
        if rank < 1:
            raise InvalidArgumentError(f"rank must be >= 1, got {rank}")
        for idx, p in enumerate(curve.points):
            if p.weights.rank != rank:
                raise InvalidArgumentError(f"point {idx}: weights start at {p.weights.rank}, "
                                           f"but the bundle has rank {rank}")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)


def bundle_on(
    genus: int,
    rank: int,
    degree: int,
    points: Sequence[tuple[int, int, Sequence[int]]] = (),
) -> ParabolicBundle:
    """Convenience constructor from plain data.

    Each point is a (residue degree, ramification index, weights) triple.
    """
    pts = tuple(ParabolicPoint(f, e, validate_weights(w)) for f, e, w in points)
    return ParabolicBundle(OrbifoldCurve(genus, pts), rank, degree)
