"""Essential-dimension bounds, gerbe indices, and nil-stack dimensions.

Bounds for the moduli stack of parabolic bundles split into a dimension
part, a flag part, and a gerbe part controlled by the index
h = gcd(rank, degree, interior weights).
"""

from __future__ import annotations

import math

from .core import FrozenValue, ParabolicBundle, Weights, flag_dim, flag_total
from .errors import HypothesisViolationError, InvalidArgumentError
from .exact_arith import factorize, is_prime, v_p


class GradedPiece(FrozenValue):
    """One graded quotient of a nilpotent endomorphism: rank plus weights.

    Carries one weight vector per marked point, each starting at the
    piece's rank.
    """

    __slots__ = ("rank", "weights")

    def __init__(self, rank: int, weights: tuple[Weights, ...]):
        if rank < 1:
            raise InvalidArgumentError(f"piece rank must be >= 1, got {rank}")
        for j, w in enumerate(weights):
            if w.rank != rank:
                raise InvalidArgumentError(f"piece weights at point {j} start at {w.rank}, "
                                           f"but the piece has rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "weights", weights)


class EdReport(FrozenValue):
    """An essential-dimension bound split into its component terms.

    total == base + flag_total + gerbe_term.  ``conjectural`` is True when
    equality of the bound rests on an open conjecture, False when it is an
    unconditional equality.
    """

    __slots__ = ("h", "base", "flag_total", "gerbe_term", "total", "conjectural", "prime")

    def __init__(self, h: int, base: int, flag_total: int, gerbe_term: int, total: int,
                 conjectural: bool, prime: int | None = None):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "flag_total", flag_total)
        object.__setattr__(self, "gerbe_term", gerbe_term)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "conjectural", conjectural)
        object.__setattr__(self, "prime", prime)

    def to_json_obj(self) -> dict:
        """Every field in order; prime only when it is set."""
        obj = {name: getattr(self, name) for name in self._fields}
        if self.prime is None:
            del obj["prime"]
        return obj


def gerbe_index(bundle: ParabolicBundle) -> int:
    """h = gcd of rank, |degree|, and all interior weights n_{i,j}, 0 < j < e_i.

    Computed on the first call for this bundle object and stored on it.
    """
    h = getattr(bundle, "_gerbe_index", None)
    if h is None:
        values = [bundle.rank, abs(bundle.degree)]
        for p in bundle.curve.points:
            values.extend(p.weights.entries[1 : p.ramification])
        h = math.gcd(*values)
        object.__setattr__(bundle, "_gerbe_index", h)
    return h


def gerbe_ed_upper(n: int) -> int:
    """Upper bound for the essential dimension of a gerbe of index n.

    Sum of p^a - 1 over the prime powers in n; 0 for n = 1.
    """
    return sum(p**a - 1 for p, a in factorize(n))


def gerbe_ed_p(n: int, p: int) -> int:
    """Essential p-dimension contribution of a gerbe of index n: p^v_p(n) - 1.

    A variant convention in the literature reads this as v_p(n) - 1; the
    p-power form used here is the one whose values sum over p | n to
    gerbe_ed_upper(n).
    """
    return p ** v_p(n, p) - 1


def nil_dimension(
    genus: int,
    pieces: Sequence[GradedPiece],
    residue_degrees: Sequence[int],
) -> int:
    """Dimension of the stack of bundles with nilpotent endomorphism.

    (g - 1) * sum of r_i^2 plus the residue-degree-weighted flag dimensions
    of every graded piece at every point.
    """
    if not pieces:
        raise InvalidArgumentError("nil_dimension requires at least one graded piece")
    total = (genus - 1) * sum(piece.rank**2 for piece in pieces)
    for piece in pieces:
        if len(piece.weights) != len(residue_degrees):
            raise InvalidArgumentError(
                f"piece has {len(piece.weights)} weight vectors "
                f"but {len(residue_degrees)} residue degrees were given"
            )
        for f, w in zip(residue_degrees, piece.weights):
            total += f * flag_dim(w)
    return total


def trdeg_bound_indecomposable(
    genus: int, piece_ranks: Sequence[int], flag_total: int
) -> int:
    """Transcendence-degree bound for the field of moduli of an indecomposable
    bundle: 1 + (g - 1) * sum of r_i^2 + flag_total."""
    if not piece_ranks:
        raise InvalidArgumentError("at least one piece rank is required")
    if any(r < 1 for r in piece_ranks):
        raise InvalidArgumentError(f"piece ranks must be >= 1, got {piece_ranks!r}")
    return 1 + (genus - 1) * sum(r**2 for r in piece_ranks) + flag_total


def trdeg_bound_nonsimple(genus: int, rank: int, flag_total: int) -> int:
    """Transcendence-degree bound for a non-simple bundle:
    (g - 1)(r^2 - r) + 2 + flag_total.  Requires g >= 2 and r >= 2."""
    if genus < 2:
        raise HypothesisViolationError(f"the non-simple bound requires genus >= 2, got {genus}")
    if rank < 2:
        raise HypothesisViolationError(f"the non-simple bound requires rank >= 2, got {rank}")
    return (genus - 1) * (rank**2 - rank) + 2 + flag_total


def _ed_report(bundle: ParabolicBundle, prime: int | None = None) -> EdReport:
    """r^2 (g - 1) + 1 + flag_total + the gerbe term of h: the conjectural upper
    bound when prime is None, else ED_p.  Requires genus >= 2."""
    g = bundle.curve.genus
    if g < 2:
        raise HypothesisViolationError(f"ed bounds require genus >= 2, got {g}")
    h = gerbe_index(bundle)
    base = bundle.rank**2 * (g - 1) + 1
    flags = flag_total(bundle)
    term = gerbe_ed_upper(h) if prime is None else gerbe_ed_p(h, prime)
    return EdReport(h, base, flags, term, base + flags + term, prime is None, prime)


def ed_upper_bound(bundle: ParabolicBundle) -> EdReport:
    """Essential-dimension upper bound for the moduli stack of such bundles.

    r^2 (g - 1) + 1 + flag_total + sum over primes p | h of (p^v_p(h) - 1);
    an equality modulo an open conjecture, hence marked conjectural.
    Requires genus >= 2.
    """
    return _ed_report(bundle)


def ed_p_value(bundle: ParabolicBundle, p: int) -> EdReport:
    """Essential p-dimension of the moduli stack (an unconditional equality).

    r^2 (g - 1) + 1 + flag_total + p^v_p(h) - 1.  Requires genus >= 2 and
    p prime; the prime is checked first.
    """
    if not is_prime(p):
        raise InvalidArgumentError(f"ed_p_value requires a prime, got {p}")
    return _ed_report(bundle, p)
