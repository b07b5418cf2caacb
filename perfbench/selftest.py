"""Self-test of the output checkers: corrupted outputs must count as failures.

Runs before every benchmark run, in microseconds.  A checker that accepts a
wrong output would let a broken program report a speed-up, so the benchmark
refuses to run when any corrupted case below is accepted or any correct one
is rejected.
"""

from __future__ import annotations

import json

import checks
import gen


def _verify_stdout(e_max: int, n: int, drop_case: str | None = None) -> str:
    reports = []
    for name, count in checks.verify_counts(e_max, n).items():
        cases = 2 * n if count is None else count  # 2n: the floor for ed-consistency
        if name == drop_case:
            cases -= 1
        reports.append({"name": name, "range": "", "cases": cases, "failures": [], "pass": True})
    return json.dumps({"pass": True, "reports": reports}, indent=2)


def problems() -> list[str]:
    out = []
    call = next(c for c in gen.doc_calls(1) if c["command"] == "chi")
    right = checks.doc_expected(call)
    if checks.check_doc(call, 0, json.dumps(right), ""):
        out.append("a correct chi output was rejected")
    wrong = dict(right, chi=checks.rstr(int(right["chi"]) + 1))
    if not checks.check_doc(call, 0, json.dumps(wrong), ""):
        out.append("a chi output off by one was accepted")

    e_max, n = 60, 100
    if checks.check_verify(0, _verify_stdout(e_max, n), e_max, n)[0]:
        out.append("a correct verify report was rejected")
    for name in checks.verify_counts(e_max, n):
        if not checks.check_verify(0, _verify_stdout(e_max, n, name), e_max, n)[0]:
            out.append(f"a verify report missing one {name} case was accepted")

    phi = checks.cyclotomic_poly(5)
    if checks.field_product(phi, [1, 1, 0, 0], [0, 1, 0, 0]) != ["0", "1", "1", "0"]:
        out.append("the reference product in Q(zeta_5) is wrong")
    return out
