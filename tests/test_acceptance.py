"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact; there are no tolerances anywhere.
"""

import json
import time

from parabolic.bounds import ed_p_value, ed_upper_bound
from parabolic.core import bundle_on, root_line_datum
from parabolic.oracle import (
    chi_suite,
    ed_consistency_suite,
    end_chi_suite,
    hom_identity_suite,
    root_of_unity_suites,
)
from parabolic.riemann_roch import euler_char

import corpus

SEED = 20260808


def _line(number, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {description}: {status}{extra}")


def test_criterion_1_cyclotomic_identity_suite():
    start = time.monotonic()
    report = root_of_unity_suites(60)[0]
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed < 30.0
    _line(1, "cyclotomic identities, 2 <= e <= 60",
          ok, f" ({report.cases} cases, {elapsed:.1f}s)")
    assert report.passed, report.failures[:5]
    assert report.cases >= 7000
    assert elapsed < 30.0


def test_criterion_2_inertia_totals():
    report = root_of_unity_suites(40)[1]
    _line(2, "inertia totals, 2 <= e <= 40, 0 <= d < e",
          report.passed, f" ({report.cases} cases)")
    assert report.passed, report.failures[:5]
    assert report.cases == sum(e for e in range(2, 41))


def test_criterion_3_hom_datum_identity():
    report = hom_identity_suite(500, seed=SEED)
    assert report.parameter_range == f"500 random weights, e <= 12, r <= 10, seed {SEED}"
    _line(3, "hom-datum identity, 500 random weights",
          report.passed, f" ({report.cases} checks)")
    assert report.passed, report.failures[:5]
    assert report.cases == 500 * 4


def test_criterion_4_chi_two_routes():
    report = chi_suite(200, seed=SEED + 1)
    root_ok = True
    for g in range(0, 6):
        for e in range(1, 11):
            for i in range(e):
                b = bundle_on(g, 1, 0, [(1, e, root_line_datum(i, e).entries)])
                root_ok = root_ok and euler_char(b).chi == 1 - g
    ok = report.passed and root_ok
    _line(4, "Riemann-Roch two routes, 200 random bundles + root lines e <= 10",
          ok, f" ({report.cases} checks)")
    assert report.passed, report.failures[:5]
    assert root_ok


def test_criterion_5_end_chi_two_routes():
    report = end_chi_suite(100, seed=SEED + 2)
    _line(5, "endomorphism chi two routes, 100 random bundles",
          report.passed, f" ({report.cases} checks)")
    assert report.passed, report.failures[:5]
    assert report.cases == 100 * 2


def test_criterion_6_main_theorem_worked_values():
    small = ed_upper_bound(bundle_on(2, 2, 0, [(1, 2, [2, 1, 0])]))
    big = ed_upper_bound(bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])]))
    nopoints = ed_upper_bound(bundle_on(2, 2, 2))
    triple = tuple(
        ed_p_value(bundle_on(2, 12, 24, [(1, 2, [12, 12, 0])]), p).total
        for p in (2, 3, 5)
    )
    ok = (
        small.total == 6
        and small.h == 1
        and big.total == 150
        and big.h == 12
        and nopoints.total == 6
        and nopoints.h == 2
        and triple == (148, 147, 145)
    )
    _line(6, "main-theorem worked values 6 / 150 / (148, 147, 145)", ok)
    assert small.total == 6 and small.h == 1 and small.gerbe_term == 0
    assert big.total == 150 and big.h == 12 and big.gerbe_term == 5
    assert nopoints.total == 6 and nopoints.h == 2 and nopoints.gerbe_term == 1
    assert triple == (148, 147, 145)


def test_criterion_7_ed_consistency_sweep():
    report = ed_consistency_suite(1000, seed=SEED + 3)
    _line(7, "ed_p <= ed and gerbe-term sums, 1000 random bundles",
          report.passed, f" ({report.cases} checks)")
    assert report.passed, report.failures[:5]


def test_criterion_8_cli_contract(tmp_path):
    chi_path = corpus.write(tmp_path, "readme")
    ed_path = corpus.write(tmp_path, "h12")

    def invoke(argv):
        return corpus.invoke(argv)[:2]

    ok = True

    # documented invocations, twice each: identical bytes, documented fields
    for argv, checks in (
        (["chi", "-i", chi_path], {"chi": "-1", "stacky_degree": "5/3"}),
        (["ed-bound", "-i", ed_path], {"total": 150, "h": 12}),
        (["verify", "--e-max", "12", "--random", "50"], {"pass": True}),
    ):
        code1, out1 = invoke(argv)
        code2, out2 = invoke(argv)
        payload = json.loads(out1)
        ok = ok and code1 == 0 and code2 == 0 and out1 == out2
        for key, expected in checks.items():
            ok = ok and payload[key] == expected
        assert code1 == 0 and code2 == 0
        assert out1 == out2, f"output of {argv} is not byte-stable"
        for key, expected in checks.items():
            assert payload[key] == expected, (argv, key)

    # the full-depth verification run documented for the CLI
    code, out = invoke(["verify", "--e-max", "60", "--random", "50"])
    ok = ok and code == 0 and json.loads(out)["pass"] is True
    assert code == 0
    assert json.loads(out)["pass"] is True

    # exit codes: input error and hypothesis violation
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{not json")
    code, _ = invoke(["chi", "-i", str(bad_path)])
    ok = ok and code == 2
    assert code == 2

    code, _ = invoke(["ed-bound", "-i", corpus.write(tmp_path, "genus-1")])
    ok = ok and code == 1
    assert code == 1

    _line(8, "CLI contract: documented fields, exit codes, byte-stable output", ok)
    assert ok
