import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from parabolic import bounds, cyclotomic, exact_arith, oracle
from parabolic.core import Weights, bundle_on, validate_weights
from parabolic.errors import InvalidArgumentError
from parabolic.oracle import (
    Lcg64,
    VerificationReport,
    _check_chi,
    _check_ed_consistency,
    _check_end_chi,
    _check_hom_identity,
    _sweep,
    brute_flag_dim,
    chi_suite,
    ed_consistency_suite,
    end_chi_suite,
    hom_identity_suite,
    random_bundle,
    random_weights,
    root_line_bundle,
    root_line_suite,
    root_of_unity_suites,
    run_all,
)
from parabolic.riemann_roch import ChiReport


def _checked(check, x):
    """A fresh report holding one per-draw check of x."""
    report = VerificationReport("single", "one draw")
    check(report, x)
    return report


def test_lcg_is_deterministic():
    a, b = Lcg64(1234), Lcg64(1234)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert Lcg64(1).next_u64() != Lcg64(2).next_u64()


def test_lcg_below_range():
    rng = Lcg64(99)
    draws = [rng.below(7) for _ in range(500)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7
    with pytest.raises(InvalidArgumentError):
        rng.below(0)


def test_lcg_below_refuses_ranges_past_2_64_at_once():
    # past 2^64 no draw is below the largest multiple of n, so rejection would
    # never end: a child process with a timeout turns such a hang into a failure
    probe = """if True:
        from parabolic.errors import InvalidArgumentError
        from parabolic.oracle import Lcg64, random_weights
        assert 0 <= Lcg64(5).below(2**64) < 2**64
        # random_weights(2, r, seed) draws below r + 1
        assert random_weights(2, 2**64 - 1, 1).rank == 2**64 - 1
        for call in (lambda: Lcg64(5).below(2**64 + 1), lambda: random_weights(2, 2**64, 1)):
            try:
                call()
            except InvalidArgumentError:
                continue
            raise AssertionError("accepted a range past 2^64")
    """
    src = str(Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                   check=True, timeout=10)


def test_random_weights_examples():
    assert random_weights(1, 4, 7).entries == (4, 0)
    for seed in range(20):
        w = random_weights(2, 1, seed)
        assert w.entries in {(1, 0, 0), (1, 1, 0)}
    # pinned reproducible draw
    assert random_weights(3, 2, 42).entries == (2, 0, 0, 0)


def test_random_weights_always_valid():
    for seed in range(200):
        rng = Lcg64(seed)
        e = 1 + rng.below(12)
        r = 1 + rng.below(10)
        w = random_weights(e, r, seed)
        validate_weights(w.entries)
        assert w.rank == r
        assert w.ramification == e
    with pytest.raises(InvalidArgumentError):
        random_weights(0, 1, 1)


def test_random_weights_deterministic():
    assert random_weights(6, 5, 31).entries == random_weights(6, 5, 31).entries


def test_random_bundle_deterministic_and_valid():
    for seed in (0, 1, 17, 31337):
        a = random_bundle(seed)
        b = random_bundle(seed)
        assert a == b
        assert 1 <= a.rank <= 6
        assert 0 <= a.curve.genus <= 5
        assert len(a.curve.points) <= 3


def _as_tuple(b):
    return (b.curve.genus, b.rank, b.degree,
            tuple((p.degree, p.ramification, p.weights.entries) for p in b.curve.points))


def test_bundle_draws_are_pinned(monkeypatch):
    # exact draws recorded before the sampling ranges became constants
    assert [_as_tuple(random_bundle(seed)) for seed in (0, 1, 17, 31337)] == [
        (1, 2, -1, ((2, 7, (2, 2, 1, 1, 0, 0, 0, 0)), (1, 7, (2, 2, 1, 1, 0, 0, 0, 0)))),
        (4, 3, -2, ((3, 8, (3, 3, 3, 3, 2, 2, 2, 1, 0)), (3, 4, (3, 3, 3, 3, 0)),
                    (2, 6, (3, 3, 1, 0, 0, 0, 0)))),
        (2, 3, 3, ((3, 8, (3, 3, 2, 2, 1, 1, 1, 1, 0)), (2, 2, (3, 0, 0)),
                   (1, 7, (3, 3, 3, 2, 2, 2, 0, 0)))),
        (2, 5, -4, ((2, 8, (5, 4, 2, 2, 2, 2, 0, 0, 0)), (3, 3, (5, 2, 0, 0)),
                    (1, 7, (5, 5, 5, 5, 3, 3, 2, 0)))),
    ]
    seen = []
    monkeypatch.setattr(oracle, "_check_ed_consistency",
                        lambda report, b: seen.append(_as_tuple(b)))
    ed_consistency_suite(1, seed=3)
    # the same draws as random_bundle(3) = (0, 5, -4, ...), but genus from 2..5
    assert seen == [(4, 5, -4, ((1, 2, (5, 0, 0)),))]


def test_brute_flag_dim_examples():
    assert brute_flag_dim(validate_weights([2, 1, 0])) == 1
    assert brute_flag_dim(validate_weights([9, 0])) == 0
    assert brute_flag_dim(validate_weights([4, 2, 1, 0])) == 5


def test_verify_hom_identity():
    assert _checked(_check_hom_identity, validate_weights([2, 1, 0])).passed
    assert _checked(_check_hom_identity, validate_weights([6, 0])).passed
    report = hom_identity_suite(50, seed=7)
    assert report.passed
    assert report.cases >= 200


def test_verify_cyclotomic_suite_small():
    report = root_of_unity_suites(2)[0]
    assert report.passed
    assert report.cases >= 3
    report = root_of_unity_suites(12)[0]
    assert report.passed
    with pytest.raises(InvalidArgumentError):
        root_of_unity_suites(1)


def test_verify_inertia_totals_small():
    assert root_of_unity_suites(10)[1].passed


def test_run_all_reads_each_split_prime_once(monkeypatch):
    calls = []
    true_images = oracle._sum_images
    monkeypatch.setattr(oracle, "_sum_images",
                        lambda *args: calls.append(args) or true_images(*args))
    reports = run_all(60, 0)
    # one image pass per e serves both reports
    assert [args[0] for args in calls] == list(range(2, 61))
    assert [(r.parameter_range, r.cases) for r in reports[:2]] == [
        ("2 <= e <= 60", 7257), ("2 <= e <= 40, 0 <= d < e", 819)]


def test_inertia_totals_use_no_field_arithmetic(monkeypatch):
    # every suite of verify, the root-of-unity sums included
    def refuse(*args):
        raise AssertionError("Q(zeta_e) arithmetic in verify")

    monkeypatch.setattr(cyclotomic, "cyclo_field", refuse)
    monkeypatch.setattr(cyclotomic.CycloField, "_reduced", refuse)
    reports = run_all(60, 20)
    assert all(r.passed for r in reports)
    assert [r.cases for r in reports[:2]] == [7257, 819]


@pytest.mark.parametrize("where, wrong", [
    # the classic slip: 1/(2e) off; e^2 c is then a half-integer at odd e
    ((37, 5), lambda e, c: c + Fraction(1, 2 * e)),
    # a value whose e^2 multiple is not an integer
    ((12, 7), lambda e, c: c + Fraction(1, 3 * e * e)),
    # far off: |e^2 c| is about 1.6e9, far past the prime
    ((40, 39), lambda e, c: c + 10**6),
    # off by q/e^2 for the split prime q: the same residue mod q
    ((2, 0), lambda e, c: c + Fraction(oracle._split_prime(e)[0], e * e)),
    # off by more than any bound on the sum
    ((40, 0), lambda e, c: c + 10**40),
])
def test_broken_inertia_closed_form_is_one_failure(monkeypatch, where, wrong):
    true_total = oracle.inertia_total

    def broken(e, d):
        c = true_total(e, d)
        return wrong(e, c) if (e, d) == where else c

    monkeypatch.setattr(oracle, "inertia_total", broken)
    report = root_of_unity_suites(40)[1]
    assert report.cases == 819
    e, d = where
    assert [f["params"] for f in report.failures] == [f"e={e} d={d}"]
    assert report.failures[0]["expected"] == str(broken(e, d))
    assert report.failures[0]["got"] == str(true_total(e, d))


@pytest.mark.parametrize("name, where, wrong, failed", [
    ("geometric_sum", (17, 0), lambda e, c: c + 1, ["geometric e=17 k=0"]),
    ("geometric_sum", (60, 59), lambda e, c: -c, ["geometric e=60 k=59"]),
    # off by q/e for the split prime q: e times it has the same residue mod q
    ("inverse_sum", (41,), lambda e, c: c + Fraction(oracle._split_prime(e)[0], e),
     ["inverse e=41"]),
    ("shifted_sum", (2, 2), lambda e, c: c + Fraction(1, 2), ["shifted e=2 d=2"]),
    # a value whose e multiple is not an integer
    ("shifted_sum", (30, 7), lambda e, c: c + Fraction(1, 3 * e), ["shifted e=30 d=7"]),
    # both routes of a ratio sum see the break
    ("ratio_sum", (31, 30), lambda e, c: c + 10**40, ["ratio e=31 d=30", "telescoped e=31 d=30"]),
])
def test_broken_sum_closed_form_fails_once_per_route(monkeypatch, name, where, wrong, failed):
    true_form = getattr(oracle, name)

    def broken(*args):
        c = true_form(*args)
        return wrong(args[0], c) if args == where else c

    monkeypatch.setattr(oracle, name, broken)
    report = root_of_unity_suites(60)[0]
    assert report.cases == 7257
    assert [f["params"] for f in report.failures] == failed
    for f in report.failures:
        assert (f["expected"], f["got"]) == (str(broken(*where)), str(true_form(*where)))


def _trial_division_prime(q):
    # plain trial division, independent of exact_arith and Miller-Rabin
    return q > 1 and all(q % p for p in range(2, math.isqrt(q) + 1))


def test_split_prime_for_every_e_up_to_150():
    # verify's own e cap, which the cyclotomic suite runs to
    for e in range(2, 151):
        q, omega = oracle._split_prime(e)
        assert q > e**3 and q % e == 1 and _trial_division_prime(q), (e, q)
        assert pow(omega, e, q) == 1
        assert all(pow(omega, k, q) != 1 for k in range(1, e))
        # each sum of e zeta^(id)/(zeta^i - 1) is below e^3/4 < q/2
        conj = sum(e / abs(1 - cmath.exp(2j * math.pi * i / e)) for i in range(1, e))
        assert conj < e**3 / 4


def test_inertia_images_are_fixed_by_galois():
    # zeta -> zeta^k, k prime to e, permutes the terms: every primitive root
    # of unity gives the same images, so the sums are rational
    for e in range(2, 41):
        q, omega = oracle._split_prime(e)
        images = oracle._sum_images(e, q, omega)
        for k in range(2, e):
            if math.gcd(k, e) == 1:
                assert oracle._sum_images(e, q, pow(omega, k, q)) == images, (e, k)


def _direct_sum_images(e, q, omega):
    # the O(e^2) reference: each of the e images summed term by term
    powers = [1] * e
    for j in range(1, e):
        powers[j] = powers[j - 1] * omega % q
    scaled = [e * pow(powers[i] - 1, -1, q) for i in range(1, e)]  # e/(omega^i - 1)
    images = ([sum(s * powers[i * d % e] for i, s in enumerate(scaled, 1)) % q for d in range(e)],
              [sum(powers[i * d % e] for i in range(1, e)) % q for d in range(e)])
    return tuple([x - q if 2 * x > q else x for x in row] for row in images)


def test_chirp_images_match_the_direct_sums():
    # verify's whole e range, then two orders past its cap (211 is prime, 401 too)
    for e in [*range(2, 151), 211, 401]:
        q, omega = oracle._split_prime(e)
        k = next(k for k in range(2, 2 * e) if math.gcd(k, e) == 1)
        for w in (omega, pow(omega, k, q)):
            assert oracle._sum_images(e, q, w) == _direct_sum_images(e, q, w), (e, w)


def test_verify_chi_two_routes():
    assert _checked(_check_chi, bundle_on(3, 2, 0)).passed
    for e in range(1, 6):
        for i in range(e):
            assert _checked(_check_chi, root_line_bundle(2, e, i)).passed
    assert chi_suite(50, seed=11).passed


def test_root_line_suite(monkeypatch):
    calls = []
    true_euler_char = oracle.euler_char
    monkeypatch.setattr(oracle, "euler_char", lambda b: calls.append(b) or true_euler_char(b))
    report = root_line_suite()
    assert report.passed
    assert report.parameter_range == "0 <= i < 2e, e <= 10, g in (0, 1, 2, 5)"
    # 4 genera x 2 residue degrees x sum over e <= 10 of 2e powers, 4 checks each
    assert report.cases == 4 * 2 * 110 * 4
    # one Euler characteristic per bundle serves all four checks
    assert len(calls) == 4 * 2 * 110


def test_verify_end_chi():
    assert _checked(_check_end_chi, bundle_on(2, 2, 0, [(1, 2, [2, 1, 0])])).passed
    assert end_chi_suite(50, seed=13).passed


def test_ed_consistency_suite():
    report = ed_consistency_suite(50, seed=17)
    assert report.passed
    assert report.cases >= 100
    # h = 12: one ed_p<=ed and one gerbe-term check for p = 2 and p = 3, then gerbe-sum
    # and moduli-dim
    single = _checked(_check_ed_consistency, bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])]))
    assert single.passed and single.cases == 6


def test_ed_consistency_does_not_share_factorize_with_the_bounds(monkeypatch):
    def drop_largest_prime(n):
        return exact_arith.factorize(n)[:-1]

    monkeypatch.setattr(bounds, "factorize", drop_largest_prime)
    monkeypatch.setattr(oracle, "factorize", drop_largest_prime)
    report = ed_consistency_suite(50, seed=17)
    assert not report.passed
    assert any("gerbe-sum" in f["params"] for f in report.failures)


def _offset(name, off):
    # the oracle's own binding of a closed form, off by a constant everywhere
    true_form = getattr(oracle, name)
    return name, lambda *args: true_form(*args) + off


def _off_field(field, off):
    true_euler_char = oracle.euler_char

    def broken(b):
        rep = true_euler_char(b)
        values = {"chi": rep.chi, "stacky_degree": rep.stacky_degree,
                  "classical_part": rep.classical_part, "corrections": rep.corrections}
        values[field] += off
        return ChiReport(**values)
    return "euler_char", broken


def _suite_records(reports):
    return [[r.name, r.cases, r.failures] for r in reports]


def _root_line_records():
    report = root_line_suite()
    return [report.cases, len(report.failures), report.failures[:6] + report.failures[6::149]]


def _chi_records():
    return [(r := chi_suite(6, 11)).cases, r.failures]


def _end_chi_records():
    return [(r := end_chi_suite(3, 3)).cases, r.failures]


def _ed_records():
    return [(r := ed_consistency_suite(8, 4)).cases, r.failures]


def _larger_ed_p_total():
    true_ed_p_value = oracle.ed_p_value

    def broken(b, p):
        rep = true_ed_p_value(b, p)
        return bounds.EdReport(rep.h, rep.base, rep.flag_total, rep.gerbe_term, rep.total + 1,
                               rep.conjectural, rep.prime)
    return "ed_p_value", broken


# (break, records): tests/data/failure_records.json pins each record list, with
# the params, expected and got of every failure in that order
BREAKS = {
    # a Fraction closed form against an integer image
    "geometric_sum": (lambda: _offset("geometric_sum", Fraction(1, 2)),
                      lambda: _suite_records(root_of_unity_suites(4))),
    "inverse_sum": (lambda: _offset("inverse_sum", Fraction(1, 3)),
                    lambda: _suite_records(root_of_unity_suites(4))),
    "shifted_sum": (lambda: _offset("shifted_sum", 1),
                    lambda: _suite_records(root_of_unity_suites(4))),
    "ratio_sum": (lambda: _offset("ratio_sum", Fraction(-1, 2)),
                  lambda: _suite_records(root_of_unity_suites(4))),
    "inertia_total": (lambda: _offset("inertia_total", Fraction(1, 7)),
                      lambda: _suite_records(root_of_unity_suites(4))),
    "flag_dim": (lambda: _offset("flag_dim", 1),
                 lambda: [_checked(_check_hom_identity, Weights(w)).failures
                          for w in [(2, 1, 0), (3, 3, 1, 0), (1, 0)]]),
    "root_line.stacky_degree": (lambda: _off_field("stacky_degree", Fraction(1, 2)),
                                _root_line_records),
    "chi_suite.stacky_degree": (lambda: _off_field("stacky_degree", Fraction(1, 2)),
                                _chi_records),
    "end_chi_suite.stacky_degree": (lambda: _off_field("stacky_degree", Fraction(1, 2)),
                                    _end_chi_records),
    "root_line.chi": (lambda: _off_field("chi", 1), _root_line_records),
    "chi_suite.chi": (lambda: _off_field("chi", 1), _chi_records),
    "end_chi_suite.chi": (lambda: _off_field("chi", 1), _end_chi_records),
    "end_euler_char": (lambda: _offset("end_euler_char", Fraction(1, 2)), _end_chi_records),
    # bool records: "True" expected, "False" got
    "ed_p_value.total": (_larger_ed_p_total, _ed_records),
    # int records: the gerbe-term and gerbe-sum checks
    "gerbe_ed_p": (lambda: _offset("gerbe_ed_p", 1), _ed_records),
    # the moduli-dim check: chi of the endomorphism bundle
    "ed_consistency.chi": (lambda: _off_field("chi", 1), _ed_records),
}
PINNED_RECORDS = Path(__file__).parent / "data" / "failure_records.json"


@pytest.mark.parametrize("key", BREAKS)
def test_failure_records_are_pinned(monkeypatch, key):
    brk, records = BREAKS[key]
    monkeypatch.setattr(oracle, *brk())
    pinned = json.loads(PINNED_RECORDS.read_text())[key]
    # json.dumps keeps each record's key order, so a swapped pair shows too
    assert json.dumps(records()) == json.dumps(pinned)


def test_sweep_merges_one_failing_draw():
    seen = []

    def draw(rng):
        seen.append(rng.next_u64())
        return len(seen)

    def check(report, index):
        report.check(f"draw={index} first", 0, 0)
        report.check(f"draw={index} second", 0, 1 if index == 3 else 0)

    merged = _sweep("demo", "5 draws", 5, 42, draw, check)
    assert (merged.name, merged.parameter_range, merged.cases) == ("demo", "5 draws", 10)
    assert merged.failures == [{"params": "draw=3 second", "expected": "0", "got": "1"}]
    rng = Lcg64(42)  # every draw comes from one generator, seeded once
    assert seen == [rng.next_u64() for _ in range(5)]


def test_report_records_failures():
    report = VerificationReport("demo", "n/a")
    report.check("ok", 1, 1)
    report.check("bad", 1, 2)
    assert not report.passed
    assert report.cases == 2
    assert report.failures == [{"params": "bad", "expected": "1", "got": "2"}]


def test_report_json_roundtrips():
    report = root_of_unity_suites(3)[0]
    obj = report.to_json_obj()
    assert obj["pass"] is True
    assert obj["name"] == "cyclotomic-identities"
    json.loads(json.dumps(obj))


def test_run_all_passes():
    reports = run_all(e_max=6, random_count=20, seed=3)
    assert [r.name for r in reports] == [
        "cyclotomic-identities",
        "inertia-totals",
        "hom-datum-identity",
        "chi-two-routes",
        "root-line-chi",
        "end-chi-two-routes",
        "ed-consistency",
    ]
    assert all(r.passed for r in reports)
