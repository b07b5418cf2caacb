"""Mutation harness: how often ``parabolic verify`` catches a broken closed form.

Each mutant is one or more (file, old text, new text) replacements in a copy
of ``src/parabolic``, and each old text occurs exactly once in its file.  The
copy runs ``parabolic verify`` at its default size in a subprocess, two at a
time.  An outcome is, from best to worst: a failure record (exit 3) with the
names of the failing reports, an internal error (exit 4), or a pass (exit 0).
The test fails when a mutant's outcome is worse than its ``MUTANTS`` entry, or
a record names fewer reports; it prints the kill counts.  A change that
improves an outcome updates its entry.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parabolic"
RECORD, INTERNAL, PASS = 3, 4, 0
RANK = {RECORD: 2, INTERNAL: 1}  # any other exit code ranks with a pass: 0

# name -> (replacements, expected exit code, reports that fail on a record)
MUTANTS = {
    "flag_dim n[i-1] factor": (
        [("core.py", "map(operator.mul, n[1:-1]", "map(operator.mul, n[:-2]")],
        RECORD, ("hom-datum-identity", "end-chi-two-routes")),
    "flag_total without f": (
        [("core.py", "sum(p.degree * flag_dim(p.weights)", "sum(flag_dim(p.weights)")],
        RECORD, ("end-chi-two-routes",)),
    "stacky degree without f": (
        [("riemann_roch.py", "weighted += p.degree * c * (den // p.ramification)",
          "weighted += c * (den // p.ramification)")],
        RECORD, ("root-line-chi", "end-chi-two-routes")),
    "global_term point-term sign": (
        [("riemann_roch.py", "total += f * rank * (1 - e)", "total -= f * rank * (1 - e)")],
        RECORD, ("root-line-chi",)),
    "end_euler_char flag-term sign": (
        [("riemann_roch.py", "bundle.rank**2 - flag_total(bundle)",
          "bundle.rank**2 + flag_total(bundle)")],
        RECORD, ("end-chi-two-routes",)),
    "end_euler_char (2 - g)": (
        [("riemann_roch.py", "Fraction((1 - bundle.curve.genus)", "Fraction((2 - bundle.curve.genus)")],
        RECORD, ("end-chi-two-routes",)),
    "end_bundle degree sign": (
        [("riemann_roch.py", "deg = -sum(", "deg = sum(")],
        RECORD, ("end-chi-two-routes",)),
    "euler_char chi = classical": (
        [("riemann_roch.py", "chi = classical - weighted", "chi = classical")],
        RECORD, ("root-line-chi", "end-chi-two-routes")),
    "inertia_total d for 2d": (
        [("riemann_roch.py", "Fraction(e - 1 - 2 * d, 2 * e)", "Fraction(e - 1 - d, 2 * e)")],
        RECORD, ("inertia-totals", "root-line-chi")),
    "shifted_sum + 1": (
        [("riemann_roch.py", "Fraction(e - 2 * d + 1, 2)", "Fraction(e - 2 * d + 3, 2)")],
        RECORD, ("cyclotomic-identities",)),
    "ratio_sum + 1": (
        [("riemann_roch.py", "return Fraction(e - d)", "return Fraction(e - d + 1)")],
        RECORD, ("cyclotomic-identities",)),
    "inverse_sum + 1": (
        [("riemann_roch.py", "return Fraction(1 - e, 2)", "return Fraction(3 - e, 2)")],
        RECORD, ("cyclotomic-identities",)),
    "geometric_sum e at k = 0": (
        [("riemann_roch.py", "Fraction(e - 1 if k == 0 else -1)", "Fraction(e if k == 0 else -1)")],
        RECORD, ("cyclotomic-identities",)),
    "gerbe_ed_upper v_p - 1": (
        [("bounds.py", "sum(p**a - 1 for p, a", "sum(a - 1 for p, a")],
        RECORD, ("ed-consistency",)),
    "gerbe_ed_p without - 1": (
        [("bounds.py", "return p ** v_p(n, p) - 1", "return p ** v_p(n, p)")],
        RECORD, ("ed-consistency",)),
    "ed base without + 1": (
        [("bounds.py", "base = bundle.rank**2 * (g - 1) + 1", "base = bundle.rank**2 * (g - 1)")],
        RECORD, ("ed-consistency",)),
    "v_p + 1 with another prime": (
        [("exact_arith.py", "        a += 1\n    return a", "        a += 1\n    return a + (n > 1)")],
        RECORD, ("ed-consistency",)),
    "both gerbe terms v_p - 1": (
        [("bounds.py", "sum(p**a - 1 for p, a", "sum(a - 1 for p, a"),
         ("bounds.py", "return p ** v_p(n, p) - 1", "return v_p(n, p) - 1")],
        RECORD, ("ed-consistency",)),
    "_sum_images chirp at T(n + 1)": (
        [("oracle.py", "pack(powers[n * (n - 1) // 2 % e]", "pack(powers[(n + 1) * n // 2 % e]")],
        RECORD, ("cyclotomic-identities", "inertia-totals")),
    "root_line_datum level i + 1": (
        [("core.py", "l = i % e", "l = (i + 1) % e")],
        RECORD, ("root-line-chi",)),
    "hom_datum (i + j)": (
        [("core.py", "cls[i - j] += p", "cls[(i + j) % e] += p")],
        INTERNAL, ()),
    "hom_datum cls[d + 1]": (
        [("core.py", "cls[e - (i - j)] += p", "cls[(e - (i - j) + 1) % e] += p")],
        INTERNAL, ()),
    "hom_datum drops the diagonal": (
        [("core.py", "        cls[0] += x * x\n", "")],
        INTERNAL, ()),
    "correction d + 1": (
        # sum(n_0..n_{e-1}) is the sum of (d + 1) * (n_d - n_{d+1}) over d < e
        [("riemann_roch.py", "return sum(point.weights.entries[1:-1])",
          "return sum(point.weights.entries[:-1])")],
        INTERNAL, ()),
    "factorize drops a cofactor 2 or 3": (
        [("exact_arith.py", "if n > 1:\n        out.append((n, 1))",
          "if n > 3:\n        out.append((n, 1))")],
        INTERNAL, ()),
    "gerbe_index without the degree": (
        [("bounds.py", "values = [bundle.rank, abs(bundle.degree)]", "values = [bundle.rank]")],
        PASS, ()),
    "gerbe_index f * n_j": (
        [("bounds.py", "values.extend(p.weights.entries[1 : p.ramification])",
          "values.extend(p.degree * x for x in p.weights.entries[1 : p.ramification])")],
        PASS, ()),
    "nil_dimension genus for genus - 1": (
        [("bounds.py", "total = (genus - 1) * sum(piece.rank**2", "total = genus * sum(piece.rank**2")],
        PASS, ()),
    "trdeg_bound_nonsimple + 1 for + 2": (
        [("bounds.py", "(rank**2 - rank) + 2 + flag_total", "(rank**2 - rank) + 1 + flag_total")],
        PASS, ()),
    "trdeg_bound_indecomposable without 1 +": (
        [("bounds.py", "return 1 + (genus - 1) * sum(r**2", "return (genus - 1) * sum(r**2")],
        PASS, ()),
    "is_prime calls prime squares prime": (
        [("exact_arith.py", "while f * f <= n and f < TRIAL_LIMIT", "while f * f < n and f < TRIAL_LIMIT"),
         ("exact_arith.py", "if f * f > n:\n        return True", "if f * f >= n:\n        return True")],
        INTERNAL, ()),  # e = 2 takes q = 9, where omega - 1 has no inverse
    "ed_p_value conjectural": (
        [("bounds.py", "prime is None, prime)", "True, prime)")],
        PASS, ()),
}


def _apply(root: Path, replacements) -> None:
    for name, old, new in replacements:
        path = root / name
        text = path.read_text()
        assert text.count(old) == 1, (name, old)
        path.write_text(text.replace(old, new))


def _outcome(root: Path) -> tuple[int, tuple[str, ...]]:
    """(exit code, names of the failing reports) of ``parabolic verify`` run on root."""
    env = {**os.environ, "PYTHONPATH": str(root.parent)}
    result = subprocess.run([sys.executable, "-m", "parabolic.cli", "verify"],
                            env=env, capture_output=True, text=True, timeout=120)
    if result.returncode != RECORD:
        return result.returncode, ()
    reports = json.loads(result.stdout)["reports"]
    return RECORD, tuple(r["name"] for r in reports if not r["pass"])


def _worse(got, expected) -> bool:
    (code, failing), (want, want_failing) = got, expected
    if RANK.get(code, 0) != RANK.get(want, 0):
        return RANK.get(code, 0) < RANK.get(want, 0)
    return code == RECORD and not set(want_failing) <= set(failing)


def test_every_old_text_occurs_once():
    for replacements, _code, _failing in MUTANTS.values():
        for name, old, _new in replacements:
            assert (PACKAGE / name).read_text().count(old) == 1, (name, old)


def test_no_mutant_outcome_gets_worse(tmp_path):
    def run(item):
        index, (name, (replacements, _code, _failing)) = item
        root = tmp_path / str(index) / "parabolic"
        shutil.copytree(PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__"))
        _apply(root, replacements)
        return name, _outcome(root)

    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = dict(pool.map(run, enumerate(MUTANTS.items())))
    kills = Counter(code for code, _failing in outcomes.values())
    print(f"mutants: {kills[RECORD]} records (exit 3), {kills[INTERNAL]} internal errors "
          f"(exit 4), {len(outcomes) - kills[RECORD] - kills[INTERNAL]} not caught")
    worse = {name: got for name, got in outcomes.items()
             if _worse(got, MUTANTS[name][1:])}
    assert not worse, worse
