"""Brute-force second routes and seeded generators for every closed form.

Each verifier recomputes a quantity along a structurally different path
(cross-product jump sums instead of telescoped ones, exact sums recovered at
a split prime instead of closed forms) and reports exact mismatches.  All
arithmetic is exact, so any failure is a defect, never a tolerance issue.

The root-of-unity sums and the inertia totals are checked with no
``cyclotomic`` arithmetic.  ``root_of_unity_suites`` computes, once per e,
E_d = sum_i e zeta^(id)/(zeta^i - 1) and G_d = sum_i zeta^(id), d = 0..e-1,
and compares every closed form of both reports with a rational multiple of one.
Both sums run over all 0 < i < e, so they are fixed by every automorphism
zeta -> zeta^k of Q(zeta_e), k prime to e, which only permutes the i; and
each of their terms is an algebraic integer, as zeta^j - 1 divides e.  So
E_d and G_d are rational integers, with |E_d| < e^3/4 because
|zeta^j - 1| >= 4/e for 0 < j < e, and |G_d| < e.  At a prime q = 1 mod e,
Phi_e splits and zeta -> omega, omega of exact order e, is a ring map
Z[zeta_e] -> F_q; for q > e^3 the image of E_d or G_d, read in (-q/2, q/2),
is its value exactly (Washington, *Introduction to Cyclotomic Fields*,
ch. 2).  With T(n) = n(n - 1)/2, i d = T(i + d) - T(i) - T(d), so
E_d = omega^(-T(d)) sum_i (s_i omega^(-T(i))) omega^T(i + d), s_i = e/(omega^i - 1):
the images for all d are one correlation against the chirp omega^T(n), the
chirp-z transform (Rabiner, Schafer and Rader, 1969; Bluestein, 1970)
without a square root of omega.

Sampling ranges are fixed; a random suite takes only a case count and a seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bounds import ed_p_value, ed_upper_bound, gerbe_ed_p, gerbe_ed_upper
from .core import (
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    Weights,
    bundle_on,
    flag_dim,
    hom_datum,
    jumps,
    root_line_datum,
)
from .errors import InvalidArgumentError
from .exact_arith import factorize, is_prime
from .riemann_roch import (
    ChiReport,
    end_bundle,
    end_euler_char,
    euler_char,
    geometric_sum,
    global_term,
    inertia_bundle_total,
    inertia_total,
    inverse_sum,
    ratio_sum,
    shifted_sum,
)


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    State transition: state <- (6364136223846793005 * state
    + 1442695040888963407) mod 2^64, with the new state returned as the
    draw.  ``below(n)`` maps draws into [0, n) by rejection sampling
    (draws at or above the largest multiple of n below 2^64 are discarded),
    so results are reproducible in any language with 64-bit integers.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MODULUS = 1 << 64

    def __init__(self, seed: int):
        self.state = seed % self.MODULUS

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) % self.MODULUS
        return self.state

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), for 1 <= n <= 2^64."""
        if not 1 <= n <= self.MODULUS:
            raise InvalidArgumentError(f"below requires 1 <= n <= 2^64, got {n}")
        limit = (self.MODULUS // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


class VerificationReport:
    """Outcome of one identity sweep: pass iff no failures were recorded."""

    def __init__(self, name: str, parameter_range: str):
        self.name = name
        self.parameter_range = parameter_range
        self.cases = 0
        self.failures: list[dict] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, label: str, expected: Fraction | int, got: Fraction | int,
              den: int = 1, expected_den: int = 1, args: tuple = ()) -> None:
        """check_all on the one case (label, args, expected, got, den)."""
        self.check_all([(label, args, expected, got, den)], expected_den)

    def check_all(self, cases: Iterable[tuple], expected_den: int = 1) -> None:
        """Record a failure for each (label, args, expected, got, den) of cases, in
        order, unless expected / expected_den == got / den, compared by cross-
        multiplication of ints, bools or Fractions; only a failure builds a
        Fraction and the text label.format(*args), or label itself without args."""
        for label, args, expected, got, den in cases:
            self.cases += 1
            if (expected.numerator * got.denominator * den
                    != got.numerator * expected.denominator * expected_den):
                if expected_den != 1:
                    expected = Fraction(expected, expected_den)
                if den != 1:
                    got = Fraction(got, den)
                self.failures.append({"params": label.format(*args) if args else label,
                                      "expected": str(expected), "got": str(got)})

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "range": self.parameter_range,
            "cases": self.cases,
            "failures": self.failures,
            "pass": self.passed,
        }


def _sweep(name: str, parameter_range: str, count: int, seed: int,
           draw: Callable[[Lcg64], Any],
           check: Callable[[VerificationReport, Any], None]) -> VerificationReport:
    """Check ``count`` draws from one seeded generator, recorded in one report."""
    rng = Lcg64(seed)
    report = VerificationReport(name, parameter_range)
    for _ in range(count):
        check(report, draw(rng))
    return report


def _draw_weights(rng: Lcg64, e: int, r: int) -> Weights:
    """Uniform valid weight vector with n_0 = r, n_e = 0.

    The e - 1 interior values are a uniform multiset from {0..r}, drawn via
    the standard bijection with (e-1)-element subsets of {0..r+e-2}: distinct
    values are collected by rejection, sorted decreasingly, and de-staircased.
    """
    m = e - 1
    universe = r + m
    chosen: set[int] = set()
    while len(chosen) < m:
        chosen.add(rng.below(universe))
    vals = sorted(chosen, reverse=True)
    interior = [vals[t] - (m - 1 - t) for t in range(m)]
    return Weights((r, *interior, 0))


def _draw_bundle(rng: Lcg64, min_genus: int = 0) -> ParabolicBundle:
    """One random bundle; draw order is part of the determinism contract:
    genus (min_genus..5), point count (0..3), rank (1..6), degree (-10..10),
    then per point residue degree (1..3), ramification (1..8) and weights."""
    g = min_genus + rng.below(6 - min_genus)
    npoints = rng.below(4)
    rank = 1 + rng.below(6)
    degree = rng.below(21) - 10
    points = []
    for _ in range(npoints):
        f = 1 + rng.below(3)
        e = 1 + rng.below(8)
        w = _draw_weights(rng, e, rank)
        points.append((f, e, w.entries))
    return bundle_on(g, rank, degree, points)


def brute_flag_dim(w: Weights) -> int:
    """Flag dimension by the cross-product jump sum over pairs i < j."""
    delta = jumps(w)
    return sum(delta[i] * delta[j] for i in range(len(delta)) for j in range(i + 1, len(delta)))


def _check_hom_identity(report: VerificationReport, w: Weights) -> None:
    """Check the endomorphism-datum identity on one weight vector.

    The jump-weighted correction of the hom datum, the flag dimension, and
    the brute-force cross sum must agree exactly, and the hom datum must
    start at n_0^2.
    """
    e = w.ramification
    m = hom_datum(w).entries
    fd = flag_dim(w)
    report.check("{} correction-vs-flag", sum(d * (m[d] - m[d + 1]) for d in range(e)), fd,
                 expected_den=e, args=(w.entries,))
    report.check("{} flag-vs-brute", fd, brute_flag_dim(w), args=(w.entries,))
    report.check("{} m0", w.rank**2, m[0], args=(w.entries,))
    report.check("{} jumps-sum", w.rank, sum(jumps(w)), args=(w.entries,))


def hom_identity_suite(count: int, seed: int) -> VerificationReport:
    """Hom-datum identity on seeded random weights (e <= 12, r <= 10)."""
    return _sweep(
        "hom-datum-identity",
        f"{count} random weights, e <= 12, r <= 10, seed {seed}",
        count, seed,
        # draw order: e, then r, then the weights
        lambda rng: _draw_weights(rng, 1 + rng.below(12), 1 + rng.below(10)),
        _check_hom_identity,
    )


# the inertia totals run for e <= 40 only: perfbench's verify_counts pins their case count
INERTIA_E_MAX = 40


def root_of_unity_suites(e_max: int) -> list[VerificationReport]:
    """The cyclotomic-identities and inertia-totals reports, one image pass per e.

    Every root-of-unity closed form for 2 <= e <= e_max is checked against
    E_d and G_k at the prime of ``_split_prime`` (module docstring), the ratio
    sums twice: as (E_d - E_0)/e, and as the telescoped sum of G_t over t < d,
    which uses no division.  For e <= INERTIA_E_MAX, inertia_total(e, d) must
    equal E_(d+1 mod e)/e^2, the sum over 0 < i < e of
    zeta^(id)/(e(1 - zeta^(-i))) = zeta^(i(d+1))/(e(zeta^i - 1)).  A failure
    records the exact sum as got.
    """
    if e_max < 2:
        raise InvalidArgumentError(f"root_of_unity_suites requires e_max >= 2, got {e_max}")
    report = VerificationReport("cyclotomic-identities", f"2 <= e <= {e_max}")
    inertia = VerificationReport("inertia-totals",
                                 f"2 <= e <= {min(e_max, INERTIA_E_MAX)}, 0 <= d < e")
    for e in range(2, e_max + 1):
        shifted, geometric = _sum_images(e, *_split_prime(e))
        cases = [("geometric e={} k={}", (e, k), geometric_sum(e, k), geometric[k], 1)
                 for k in range(e)]
        cases.append(("inverse e={}", (e,), inverse_sum(e), shifted[0], e))
        telescoped = 0
        for d in range(1, e):
            telescoped += geometric[d - 1]
            ratio = ratio_sum(e, d)
            cases += (("ratio e={} d={}", (e, d), ratio, shifted[d] - shifted[0], e),
                      ("telescoped e={} d={}", (e, d), ratio, telescoped, 1))
        cases += [("shifted e={} d={}", (e, d), shifted_sum(e, d), shifted[d % e], e)
                  for d in range(1, e + 1)]
        report.check_all(cases)
        if e <= INERTIA_E_MAX:
            inertia.check_all([("e={} d={}", (e, d), inertia_total(e, d), shifted[(d + 1) % e],
                                e * e) for d in range(e)])
    return [report, inertia]


def _split_prime(e: int) -> tuple[int, int]:
    """(q, omega): the least prime q = 1 mod e above e^3, and an omega of
    exact order e in F_q."""
    q = e**3 + 1
    while not is_prime(q):
        q += e
    return q, _root_of_unity(e, q)


def _root_of_unity(m: int, q: int) -> int:
    """An element of exact order m in F_q, for m | q - 1.

    The product over p^a || m of t^((q - 1)/p^a) for the first t = 2, 3, ...
    with t^((q - 1)/p) != 1, which makes that factor of exact order p^a.
    """
    w = 1
    for p, a in factorize(m):
        t = 2
        while pow(t, (q - 1) // p, q) == 1:
            t += 1
        w = w * pow(t, (q - 1) // p**a, q) % q
    return w


def _sum_images(e: int, q: int, omega: int) -> tuple[list[int], list[int]]:
    """(E, G): the images of E_d = sum_i e zeta^(id)/(zeta^i - 1) and of
    G_d = sum_i zeta^(id), d = 0..e-1, under zeta -> omega in F_q, each read
    in (-q/2, q/2).  Each row is one chirp correlation (module docstring), a
    product of byte-packed rows whose slots hold e q^2, so none carries."""
    powers = [1] * e
    for j in range(1, e):
        powers[j] = powers[j - 1] * omega % q
    width = ((e * q * q).bit_length() + 7) // 8
    def pack(row):
        return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in row]), "little")
    chirp = pack(powers[n * (n - 1) // 2 % e] for n in range(2 * e - 1))
    unchirp = [powers[-(n * (n - 1) // 2) % e] for n in range(e)]  # omega^(-T(n))
    images = []
    for s in ([e * pow(powers[i] - 1, -1, q) for i in range(1, e)], [1] * (e - 1)):
        # coefficient e - 1 + d of the product is sum_i s_i omega^(-T(i)) omega^T(i + d)
        packed = pack(s[i - 1] * unchirp[i] % q for i in range(e - 1, 0, -1)) * chirp
        buf = packed.to_bytes((3 * e - 2) * width, "little")
        images.append([int.from_bytes(buf[(e - 1 + d) * width:(e + d) * width], "little")
                       * unchirp[d] % q for d in range(e)])
    return tuple([x - q if 2 * x > q else x for x in row] for row in images)


def _check_chi(report: VerificationReport, b: ParabolicBundle,
               rep: ChiReport | None = None, inertia: list | None = None) -> None:
    """Check both Euler characteristic assemblies on one bundle.

    Global term plus inertia contributions must equal chi, and the sum of
    f * c over rep.corrections must equal that of f * (r(e - 1)/(2e) - t),
    t = inertia_bundle_total(p), which reaches c through the jump vector and
    inertia_total.  rep and inertia, when given, are euler_char(b) and the
    (f, inertia_bundle_total(p)) of its points.
    """
    rep = euler_char(b) if rep is None else rep
    if inertia is None:
        inertia = [(p.degree, inertia_bundle_total(p)) for p in b.curve.points]
    pts = [(p.degree, p.ramification) for p in b.curve.points]
    terms = [(1, global_term(rep.stacky_degree, b.rank, b.curve.genus, pts)), *inertia]
    den = math.lcm(*[t.denominator for _, t in terms])
    assembled = sum([f * t.numerator * (den // t.denominator) for f, t in terms])
    args = (b.curve.genus, b.rank, b.degree, pts)
    report.check("g={} r={} d={} pts={} global+inertia", rep.chi, assembled, den, args=args)
    den = 2 * math.lcm(*[e for _, e in pts])  # a multiple of every denominator below
    got = sum([f * c.numerator * (den // c.denominator)
               for (f, _), (_, c) in zip(pts, rep.corrections)])
    want = sum([f * (b.rank * (e - 1) * (den // (2 * e)) - t.numerator * (den // t.denominator))
                for (f, e), (_, t) in zip(pts, inertia)])
    report.check("g={} r={} d={} pts={} corrections", want, got, den, den, args=args)


def chi_suite(count: int, seed: int) -> VerificationReport:
    """Two-route Euler characteristic check over seeded random bundles."""
    return _sweep("chi-two-routes", f"{count} random bundles, seed {seed}", count, seed,
                  _draw_bundle, _check_chi)


def root_line_suite() -> VerificationReport:
    """Root-line powers have chi = floor(i/e) * f + 1 - g; in particular
    chi = 1 - g for 0 <= i < e.  Validates the stacky/underlying degree
    bookkeeping on the one family where both are known independently.
    Fixed sizes: e <= 10, g in (0, 1, 2, 5), f in (1, 2)."""
    report = VerificationReport("root-line-chi", "0 <= i < 2e, e <= 10, g in (0, 1, 2, 5)")
    # each (f, e, i) point and its inertia term serve all four genera
    points = [(f, e, i, ParabolicPoint(f, e, root_line_datum(i, e)))
              for f in (1, 2) for e in range(1, 11) for i in range(2 * e)]
    inertia = [[(f, inertia_bundle_total(point))] for f, _e, _i, point in points]
    for g in (0, 1, 2, 5):
        for (f, e, i, point), terms in zip(points, inertia):
            b = ParabolicBundle(OrbifoldCurve(g, (point,)), 1, (i // e) * f)
            rep = euler_char(b)
            args = (g, f, e, i)
            report.check("g={} f={} e={} i={} chi", (i // e) * f + 1 - g, rep.chi, args=args)
            report.check("g={} f={} e={} i={} stacky", i * f, rep.stacky_degree,
                         expected_den=e, args=args)
            _check_chi(report, b, rep, terms)
    return report


def _check_end_chi(report: VerificationReport, b: ParabolicBundle) -> None:
    """Endomorphism Euler characteristic along two routes.

    The flag-dimension formula must match euler_char of the hom-datum
    bundle whose stacky degree is zero.
    """
    args = (b.curve.genus, b.rank, b.degree)
    endo = euler_char(end_bundle(b))
    report.check("g={} r={} d={} end-stacky-zero", 0, endo.stacky_degree, args=args)
    report.check("g={} r={} d={} end-chi", end_euler_char(b), endo.chi, args=args)


def end_chi_suite(count: int, seed: int) -> VerificationReport:
    """Two-route endomorphism chi check over seeded random bundles."""
    return _sweep("end-chi-two-routes", f"{count} random bundles, seed {seed}", count, seed,
                  _draw_bundle, _check_end_chi)


def _check_ed_consistency(report: VerificationReport, b: ParabolicBundle) -> None:
    """ed_p <= ed upper bound for every p | h, ed_p's gerbe term is the p-part
    of h less one, the gerbe terms sum up, and base + flag_total is the moduli
    dimension 1 - chi(End), whose Riemann-Roch route goes through hom_datum and
    the corrections, not flag_dim.

    The essential-dimension formulas need genus >= 2.
    """
    upper = ed_upper_bound(b)
    h = upper.h
    args = (b.curve.genus, b.rank, b.degree, h)
    # the primes of h by plain trial division, not by factorize as in the bounds
    primes = [p for p in range(2, h + 1) if h % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        edp = ed_p_value(b, p)
        report.check("g={} r={} d={} h={} p={} ed_p<=ed", True, edp.total <= upper.total,
                     args=(*args, p))
        # the p-part of h: p^bits(h) > h is a multiple of it
        report.check("g={} r={} d={} h={} p={} gerbe-term",
                     math.gcd(h, p ** h.bit_length()) - 1, edp.gerbe_term, args=(*args, p))
    report.check("g={} r={} d={} h={} gerbe-sum", gerbe_ed_upper(h),
                 sum(gerbe_ed_p(h, p) for p in primes), args=args)
    report.check("g={} r={} d={} h={} moduli-dim", upper.base + upper.flag_total,
                 1 - euler_char(end_bundle(b)).chi, args=args)


def ed_consistency_suite(count: int, seed: int) -> VerificationReport:
    """_check_ed_consistency over seeded random bundles of genus 2..5."""
    return _sweep("ed-consistency", f"{count} random bundles, seed {seed}, genus >= 2",
                  count, seed, lambda rng: _draw_bundle(rng, min_genus=2), _check_ed_consistency)


def run_all(e_max: int, random_count: int, seed: int) -> list[VerificationReport]:
    """Every verification suite, in a fixed order with derived seeds."""
    return [
        *root_of_unity_suites(e_max),
        hom_identity_suite(random_count, seed),
        chi_suite(random_count, seed + 1),
        root_line_suite(),
        end_chi_suite(random_count, seed + 2),
        ed_consistency_suite(random_count, seed + 3),
    ]
