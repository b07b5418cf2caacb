"""Reference values the benchmark computes itself, and the output checkers.

Nothing here imports the program: every expected value comes from the
input data through formulas written out below, so a defect in the program
cannot also hide in its reference.  Each checker returns ``None`` when the
output is right and a one-line description of the first problem otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# -- exact arithmetic -------------------------------------------------------


def rstr(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    return math.prod((p - 1) * p ** (a - 1) for p, a in factorize(n))


def v_p(n: int, p: int) -> int:
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


# -- bundle invariants --------------------------------------------------------


def jumps(w) -> list[int]:
    return [w[k] - w[k + 1] for k in range(len(w) - 1)]


def flag_dim(w) -> int:
    """(n_0^2 - sum of squared jumps) / 2."""
    return (w[0] ** 2 - sum(d * d for d in jumps(w))) // 2


def correction(w) -> Fraction:
    return Fraction(sum(k * d for k, d in enumerate(jumps(w))), len(w) - 1)


def hom_weights(w) -> tuple[int, ...]:
    """m_d = sum of delta_i * delta_j over pairs with (i - j) mod e >= d."""
    e, delta = len(w) - 1, jumps(w)
    return tuple(
        sum(delta[i] * delta[j] for i in range(e) for j in range(e) if (i - j) % e >= d)
        for d in range(e + 1)
    )


def gerbe_index(b) -> int:
    _g, r, deg, points = b
    return math.gcd(r, abs(deg), *(x for _f, e, w in points for x in w[1:e]))


def gerbe_upper(n: int) -> int:
    return sum(p**a - 1 for p, a in factorize(n))


def flag_total(b) -> int:
    return sum(f * flag_dim(w) for f, _e, w in b[3])


def stacky(b) -> Fraction:
    return b[2] + sum((f * correction(w) for f, _e, w in b[3]), Fraction(0))


def chi(b) -> int:
    g, r, d, _points = b
    return d + (1 - g) * r


def end_chi(b) -> int:
    g, r, _d, _points = b
    return (1 - g) * r * r - flag_total(b)


def ed_report(b, gerbe_term: int, prime: int | None = None) -> dict:
    g, r, _d, _points = b
    base = r * r * (g - 1) + 1
    out = {"h": gerbe_index(b), "base": base, "flag_total": flag_total(b),
           "gerbe_term": gerbe_term, "total": base + flag_total(b) + gerbe_term,
           "conjectural": prime is None}
    if prime is not None:
        out["prime"] = prime
    return out


# -- cli-docs -------------------------------------------------------------------

HYPOTHESIS = "exit 1"


def doc_argv(call: dict, path: str) -> list[str]:
    cmd = call["command"]
    if cmd == "gerbe-ed":
        return [cmd, str(call["gerbe_n"])]
    if cmd == "gerbe-ed-p":
        return [cmd, str(call["gerbe_n"]), "--prime", str(call["gerbe_prime"])]
    argv = [cmd, "-i", path]
    if cmd == "ed-p":
        argv += ["--prime", str(call["prime"])]
    return argv


def doc_expected(call: dict):
    """The JSON payload a document command must print, or HYPOTHESIS."""
    cmd, b, pieces = call["command"], call["bundle"], call["pieces"]
    g, r, d, points = b
    if cmd == "gerbe-ed":
        return {"n": call["gerbe_n"], "ed_upper": gerbe_upper(call["gerbe_n"])}
    if cmd == "gerbe-ed-p":
        n, p = call["gerbe_n"], call["gerbe_prime"]
        return {"n": n, "prime": p, "ed_p": p ** v_p(n, p) - 1}
    if cmd in ("ed-bound", "ed-p") and g < 2:
        return HYPOTHESIS
    if cmd == "chi":
        s = stacky(b)
        return {"chi": rstr(chi(b)), "stacky_degree": rstr(s),
                "classical_part": rstr(s + (1 - g) * r),
                "corrections": [[str(i), rstr(correction(w))]
                                for i, (_f, _e, w) in enumerate(points)]}
    if cmd == "end-chi":
        return {"end_chi": rstr(end_chi(b))}
    if cmd == "flag-dim":
        return {"per_point": [flag_dim(w) for _f, _e, w in points], "flag_total": flag_total(b)}
    if cmd == "hom-datum":
        homs = [(f, e, hom_weights(w)) for f, e, w in points]
        deg = -sum((f * correction(m) for f, _e, m in homs), Fraction(0))
        return {"curve": {"genus": g, "points": [
                    {"degree": f, "ramification": e, "weights": list(m)} for f, e, m in homs]},
                "bundle": {"rank": r * r, "degree": int(deg)}}
    if cmd == "stacky-degree":
        return {"stacky_degree": rstr(stacky(b))}
    if cmd == "index":
        return {"h": gerbe_index(b)}
    if cmd == "ed-bound":
        return ed_report(b, gerbe_upper(gerbe_index(b)))
    if cmd == "ed-p":
        p = call["prime"]
        return ed_report(b, p ** v_p(gerbe_index(b), p) - 1, prime=p)
    if cmd == "nil-dim":
        if pieces is None:
            return {"nil_dimension": (g - 1) * r * r + flag_total(b)}
        value = (g - 1) * sum(pr * pr for pr, _pw in pieces) + sum(
            f * flag_dim(w) for _pr, pw in pieces for (f, _e, _w), w in zip(points, pw))
        return {"nil_dimension": value}
    if cmd == "trdeg-bound":
        ranks = [pr for pr, _pw in pieces] if pieces else [r]
        return {"trdeg_bound": 1 + (g - 1) * sum(x * x for x in ranks) + flag_total(b),
                "mode": "indecomposable"}
    raise ValueError(f"no reference for command {cmd!r}")


def check_doc(call: dict, code: int, stdout: str, stderr: str) -> str | None:
    expected = doc_expected(call)
    what = f"{call['command']} on {json.dumps(call['doc'])}"
    if expected == HYPOTHESIS:
        if code != 1 or stdout or not stderr.startswith("error:"):
            return f"{what}: expected exit 1 with one error line, got exit {code}"
        return None
    if code != 0:
        return f"{what}: exit {code}: {stderr.strip()[:200]}"
    try:
        got = json.loads(stdout)
    except ValueError:
        return f"{what}: stdout is not JSON"
    if got != expected:
        return f"{what}: got {json.dumps(got)}, expected {json.dumps(expected)}"
    return None


# -- verify-deep ---------------------------------------------------------------


def verify_counts(e_max: int, n: int) -> dict[str, int | None]:
    """Case count of each suite; None where the count is not closed-form.

    Root-line: genera (0, 1, 2, 5) x residue degrees (1, 2) x 0 <= i < 2e for
    e <= 10, with four checks each: 8 * 110 * 4 = 3520.
    """
    return {
        "cyclotomic-identities": sum(4 * e - 1 for e in range(2, e_max + 1)),
        "inertia-totals": sum(range(2, min(e_max, 40) + 1)),
        "hom-datum-identity": 4 * n,
        "chi-two-routes": 2 * n,
        "root-line-chi": 3520,
        "end-chi-two-routes": 2 * n,
        "ed-consistency": None,
    }


def check_verify(code: int, stdout: str, e_max: int, n: int) -> tuple[str | None, int]:
    """Check a ``verify`` run; returns (problem, total cases run)."""
    if code != 0:
        return f"verify exited {code}", 0
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "verify stdout is not JSON", 0
    if payload.get("pass") is not True:
        return "verify did not report pass", 0
    reports = {rep.get("name"): rep for rep in payload.get("reports", [])}
    total = sum(rep.get("cases", 0) for rep in reports.values())
    for name, count in verify_counts(e_max, n).items():
        rep = reports.get(name)
        if rep is None:
            return f"verify report {name} is missing", total
        if rep.get("pass") is not True or rep.get("failures"):
            return f"verify report {name} did not pass", total
        cases = rep.get("cases")
        if count is None:
            # ed-consistency checks at least gerbe-sum and h for every bundle
            if not isinstance(cases, int) or cases < 2 * n:
                return f"verify report {name} ran {cases} cases, expected >= {2 * n}", total
        elif cases != count:
            return f"verify report {name} ran {cases} cases, expected {count}", total
    return None, total


# -- lib-batch -----------------------------------------------------------------


def bundle_refs(b) -> dict:
    g, r, d, points = b
    h = gerbe_index(b)
    primes = [p for p, _a in factorize(h)]
    return {
        "chi": chi(b),
        "end_chi": end_chi(b),
        "h": h,
        "ed_total": ed_report(b, gerbe_upper(h))["total"],
        "ed_p_totals": {p: ed_report(b, p ** v_p(h, p) - 1, p)["total"] for p in primes},
    }


def cyclotomic_poly(e: int) -> list[int]:
    """Phi_e as the Moebius product of (x^d - 1) over d | e, for e >= 2."""
    num, den = [1], [1]
    for d in range(1, e + 1):
        if e % d:
            continue
        mu = _moebius(e // d)
        if mu:
            factor = [-1] + [0] * (d - 1) + [1]
            if mu > 0:
                num = _mul(num, factor)
            else:
                den = _mul(den, factor)
    quot, rem = [0] * (len(num) - len(den) + 1), list(num)
    lead = den[-1]
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[top] // lead
        quot[top - len(den) + 1] = c
        for j, dj in enumerate(den):
            rem[top - len(den) + 1 + j] -= c * dj
    return quot


def _moebius(n: int) -> int:
    fs = factorize(n)
    return 0 if any(a > 1 for _p, a in fs) else (-1) ** len(fs)


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def field_product(phi: list[int], a: list[int], b: list[int]) -> list[str]:
    """a * b reduced modulo the monic phi, as coefficient strings."""
    rem, deg = _mul(a, b), len(phi) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        for j, pj in enumerate(phi):
            rem[top - deg + j] -= c * pj
    rem = (rem[:deg] + [0] * deg)[:deg]
    return [str(c) for c in rem]
