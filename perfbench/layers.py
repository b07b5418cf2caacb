"""The traced run: per-layer metrics from spans around calls into each layer.

Every traced run, whatever its workload, runs the same in-process profile so
that it reports every per-layer metric:

1. line counts of ``src/parabolic``;
2. interpreter start-up and CLI import, as child processes;
3. the ``verify-deep`` pass: a cold import, the Phi_e, power and
   (zeta^i - 1)^-1 tables for e <= 60 under their own ``cyclotomic.*`` spans,
   then ``oracle.run_all`` (the suites in their CLI order) on warm tables;
4. the ``lib-batch`` pass on part of the batch;
5. the ``cli-docs`` pass: ``cli.run`` in-process on every document command;
6. the growth-in-e sweep, untraced, cold and warm;
7. for the selected workload only, the same requests untraced, which gives
   ``trace.overhead_ratio``.  For ``cli-docs`` these are real child processes,
   traced through ``child_trace.py``, so ``trace.span_coverage`` is the share
   of the process latency that interpreter start-up, import and the layer
   calls explain.

``<layer>.self_s`` is the self time of each layer's spans in the selected
workload's pass.  Per-call metrics (``_us``) are medians of inclusive span
durations.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import sys
import time
from fractions import Fraction

import checks
import gen
import spans
import workloads as wl
from workloads import OUT, PACKAGE, SRC, Result

SUITES = (  # metric stem, oracle function, report name
    ("cyclotomic", "verify_cyclotomic_suite", "cyclotomic-identities"),
    ("inertia", "verify_inertia_totals", "inertia-totals"),
    ("hom", "hom_identity_suite", "hom-datum-identity"),
    ("chi", "chi_suite", "chi-two-routes"),
    ("root_line", "root_line_suite", "root-line-chi"),
    ("end_chi", "end_chi_suite", "end-chi-two-routes"),
    ("ed", "ed_consistency_suite", "ed-consistency"),
)
TABLES = ("phi", "pow_table", "inv_table")
FAMILIES = ("geometric_sum", "inverse_sum", "ratio_sum", "shifted_sum", "inertia_term")
SWEEP_FAMILIES = ("inv_table",) + FAMILIES
SWEEP_E = (20, 40, 60, 80)
CALLS = {  # per-call metric -> span name
    "cli.parse_document_us": "cli.parse_document",
    "cli.run_us": "cli.run",
    "cyclotomic.mul_us": "cyclotomic.CycloElem.__mul__",
    "cyclotomic.inverse_us": "cyclotomic.CycloElem.inverse",
    "cyclotomic.from_cover_us": "cyclotomic.CycloField.from_cover",
    "core.bundle_on_us": "core.bundle_on",
    "core.hom_datum_us": "core.hom_datum",
    "core.flag_dim_us": "core.flag_dim",
    "riemann_roch.euler_char_us": "riemann_roch.euler_char",
    "riemann_roch.end_bundle_us": "riemann_roch.end_bundle",
    "riemann_roch.end_euler_char_us": "riemann_roch.end_euler_char",
    "bounds.gerbe_index_us": "bounds.gerbe_index",
    "bounds.ed_upper_bound_us": "bounds.ed_upper_bound",
    "bounds.ed_p_value_us": "bounds.ed_p_value",
    "exact_arith.factorize_us": "exact_arith.factorize",
    "exact_arith.is_prime_us": "exact_arith.is_prime",
}
MODULE_FILES = ("__init__", "bounds", "cli", "core", "cyclotomic", "errors",
                "exact_arith", "oracle", "riemann_roch")
START_SAMPLES = 15
LIB_BUNDLES = 300
CHILD_CALLS = 24


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [("cli.interp_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    for stem, _fn, _name in SUITES:
        out += [(f"oracle.{stem}_s", "s", "lower"), (f"oracle.{stem}.cases", "count", "higher")]
    out += [(f"cyclotomic.{t}_ms", "ms", "lower") for t in TABLES]
    out += [(f"cyclotomic.{f}_ms", "ms", "lower") for f in FAMILIES]
    out += [("cyclotomic.field_cache.hits", "count", "higher"),
            ("cyclotomic.field_cache.misses", "count", "lower")]
    out += [(name, "us", "lower") for name in CALLS]
    out += [(f"{layer}.self_s", "s", "lower") for layer in spans.LAYERS]
    for fam in SWEEP_FAMILIES:
        for e in SWEEP_E:
            out += [(f"cyclotomic.{fam}.e{e}.cold_ms", "ms", "lower"),
                    (f"cyclotomic.{fam}.e{e}_ms", "ms", "lower")]
        out += [(f"cyclotomic.{fam}.cold.growth_exp", "exponent", "lower"),
                (f"cyclotomic.{fam}.growth_exp", "exponent", "lower")]
    out += [("init.lines" if m == "__init__" else f"{m}.lines", "lines", "lower")
            for m in MODULE_FILES]
    out += [("src.lines", "lines", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.span_coverage", "ratio", "higher")]
    return out


def line_counts(m: dict) -> None:
    pkg = SRC / PACKAGE
    for mod in MODULE_FILES:
        path = pkg / f"{mod}.py"
        name = "init.lines" if mod == "__init__" else f"{mod}.lines"
        m[name] = len(path.read_text().splitlines()) if path.is_file() else 0
    m["src.lines"] = sum(len(p.read_text().splitlines()) for p in pkg.rglob("*.py"))


def start_costs(m: dict) -> None:
    env = wl.child_env()
    bare, imported = [], []
    for _ in range(START_SAMPLES):
        bare.append(wl.run_child([sys.executable, "-c", "pass"], env)[3])
        imported.append(wl.preflight(env))
    m["cli.interp_start_ms"] = statistics.median(bare) * 1e3
    m["cli.import_ms"] = (statistics.median(imported) - statistics.median(bare)) * 1e3


# -- verify-deep --------------------------------------------------------------------


def verify_pass(tracer: spans.Tracer | None, seed: int):
    """Cold import, table fill, then run_all; returns (wall s, reports, cache stats)."""
    wl.fresh_import(f"{PACKAGE}.cli")
    cyc = sys.modules[f"{PACKAGE}.cyclotomic"]
    oracle = sys.modules[f"{PACKAGE}.oracle"]
    cache_info = getattr(cyc.cyclo_field, "cache_info", None)
    undo = spans.install(tracer, PACKAGE, spans.LAYERS) if tracer is not None else []
    span = tracer.span if tracer is not None else (lambda _name: contextlib.nullcontext())
    es = range(2, wl.VERIFY_E_MAX + 1)
    try:
        t0 = time.perf_counter()
        with span("cyclotomic.phi"):
            for e in es:
                cyc.cyclotomic_poly(e)
        with span("cyclotomic.pow_table"):
            for e in es:
                cyc.cyclo_field(e).zeta_pow(1)
        with span("cyclotomic.inv_table"):
            for e in es:
                field = cyc.cyclo_field(e)
                for i in range(1, e):
                    field.inv_omega_minus_one(i)
        reports = oracle.run_all(e_max=wl.VERIFY_E_MAX, random_count=wl.VERIFY_RANDOM,
                                 seed=seed)
        wall = time.perf_counter() - t0
    finally:
        spans.uninstall(undo)
    return wall, reports, cache_info() if cache_info else None


def check_reports(reports, res: Result) -> None:
    payload = {"pass": all(r.passed for r in reports),
               "reports": [r.to_json_obj() for r in reports]}
    res.attempted += 1
    problem, _cases = checks.check_verify(0, json.dumps(payload), wl.VERIFY_E_MAX,
                                          wl.VERIFY_RANDOM)
    if problem:
        res.miss(f"traced verify: {problem}")


def verify_metrics(tracer: spans.Tracer, seed: int, res: Result) -> tuple[set[int], float]:
    m = res.metrics
    tracer.current_request = 1
    wall, reports, info = verify_pass(tracer, seed)
    check_reports(reports, res)
    summary = tracer.summary({1})

    def total(name: str) -> float:
        return sum(summary.durations.get(name, ()))

    cases = {r.name: r.cases for r in reports}
    for stem, fn, name in SUITES:
        m[f"oracle.{stem}_s"] = total(f"oracle.{fn}")
        m[f"oracle.{stem}.cases"] = cases.get(name, 0)
    for t in TABLES:
        m[f"cyclotomic.{t}_ms"] = total(f"cyclotomic.{t}") * 1e3
    for f in FAMILIES:
        m[f"cyclotomic.{f}_ms"] = total(f"cyclotomic.{f}") * 1e3
    m["cyclotomic.field_cache.hits"] = info.hits if info else 0
    m["cyclotomic.field_cache.misses"] = info.misses if info else 0
    return {1}, wall


# -- lib-batch ------------------------------------------------------------------------


def lib_pass(tracer: spans.Tracer | None, bundles, elems, res: Result, first_request: int):
    """One request per bundle and per field pair; returns (requests, summed op time s)."""
    lib = sys.modules[PACKAGE]
    steps = [(functools.partial(wl.bundle_step, lib), item) for item in bundles]
    steps += [(wl.field_step, item) for item in elems]
    undo = spans.install(tracer, PACKAGE, spans.LAYERS) if tracer is not None else []
    rid, wall = first_request, 0.0
    try:
        for step, item in steps:
            if tracer is not None:
                tracer.current_request = rid
            rid += 1
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                times, problem = step(item)
                wall += sum(times)
            except Exception as exc:  # a raising call is a failed operation, not a crash
                wall += time.perf_counter() - t0
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                res.miss(f"traced {problem}")
    finally:
        spans.uninstall(undo)
    return set(range(first_request, rid)), wall


def lib_inputs(seed: int):
    bundles, elems = wl.lib_inputs(seed, sys.modules[PACKAGE])
    return bundles[:LIB_BUNDLES], elems


# -- cli-docs ---------------------------------------------------------------------------


def cli_pass(tracer: spans.Tracer, calls, paths, res: Result, first_request: int) -> set[int]:
    cli = sys.modules[f"{PACKAGE}.cli"]
    undo = spans.install(tracer, PACKAGE, spans.LAYERS)
    rid = first_request
    try:
        for call, path in zip(calls, paths):
            tracer.current_request = rid
            rid += 1
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(checks.doc_argv(call, path), out, err)
            res.attempted += 1
            problem = checks.check_doc(call, code, out.getvalue(), err.getvalue())
            if problem:
                res.miss(f"in-process {problem}")
    finally:
        spans.uninstall(undo)
    return set(range(first_request, rid))


def cli_children(tracer: spans.Tracer, calls, paths, res: Result, first_request: int):
    """Plain and traced document-command processes, interleaved.

    Returns (traced requests, traced walls, plain walls).
    """
    env = wl.child_env()
    tool = str(wl.ROOT / "perfbench" / "child_trace.py")
    span_file = OUT / "child-spans.json"
    plain, traced, rid = [], [], first_request
    for k in range(CHILD_CALLS):
        call, path = calls[k % len(calls)], paths[k % len(calls)]
        argv = checks.doc_argv(call, path)
        code, out, err, wall, _rss = wl.run_child(
            [sys.executable, "-m", f"{PACKAGE}.cli", *argv], env)
        plain.append(wall)
        problems = [checks.check_doc(call, code, out, err)]
        spawn = time.perf_counter()
        code, out, err, wall, _rss = wl.run_child(
            [sys.executable, tool, str(span_file), repr(spawn), "--", *argv], env)
        traced.append(wall)
        problems.append(checks.check_doc(call, code, out, err))
        res.attempted += 2
        for problem in filter(None, problems):
            res.miss(f"child {problem}")
        tracer.current_request = rid
        rid += 1
        data = json.loads(span_file.read_text())
        base = tracer.count()
        for name, parent, start, end in zip(data["names"], data["parent"], data["start"],
                                            data["end"]):
            tracer.add(name, start, end, base + parent if parent >= 0 else -1)
    return set(range(first_request, rid)), traced, plain


# -- growth-in-e sweep ------------------------------------------------------------------


def family_values(cyc, family: str, e: int) -> list[tuple[object, object]]:
    """Run one identity family at one e; returns (got, expected) pairs."""
    if family == "inv_table":
        field = cyc.cyclo_field(e)
        invs = [field.inv_omega_minus_one(i) for i in range(1, e)]
        return [((cyc.cyclo_field(e).zeta_pow(1) - 1) * invs[0], 1)]
    if family == "geometric_sum":
        return [(cyc.geometric_sum(e, k), e - 1 if k == 0 else -1) for k in range(e)]
    if family == "inverse_sum":
        return [(cyc.inverse_sum(e), Fraction(-(e - 1), 2))]
    if family == "ratio_sum":
        return [(cyc.ratio_sum(e, d), e - d) for d in range(1, e)]
    if family == "shifted_sum":
        return [(cyc.shifted_sum(e, d), Fraction(e - 2 * d + 1, 2)) for d in range(1, e + 1)]
    out = []
    for d in range(e):
        total = cyc.inertia_term(e, d, 1)
        for i in range(2, e):
            total = total + cyc.inertia_term(e, d, i)
        out.append((total, Fraction(e - 1 - 2 * d, 2 * e)))
    return out


def as_rational(value):
    if hasattr(value, "is_rational"):
        return value.to_rational() if value.is_rational() else None
    return value


def sweep(res: Result) -> None:
    m = res.metrics
    for family in SWEEP_FAMILIES:
        for e in SWEEP_E:
            wl.fresh_import()
            cyc = sys.modules[f"{PACKAGE}.cyclotomic"]
            for key in (f"cyclotomic.{family}.e{e}.cold_ms", f"cyclotomic.{family}.e{e}_ms"):
                t0 = time.perf_counter()
                values = family_values(cyc, family, e)
                m[key] = (time.perf_counter() - t0) * 1e3
                res.attempted += 1
                bad = [(g, w) for g, w in values if as_rational(g) != w]
                if bad:
                    res.miss(f"{family} at e={e}: got {bad[0][0]!r}, expected {bad[0][1]}")
        for suffix in (".cold", ""):
            ts = [m[f"cyclotomic.{family}.e{e}{suffix}_ms"] for e in SWEEP_E]
            m[f"cyclotomic.{family}{suffix}.growth_exp"] = loglog_slope(SWEEP_E, ts)


def loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


# -- the traced run -----------------------------------------------------------------------


def run_traced(workload: str, seed: int, seconds: float) -> Result:
    res = Result()
    m = res.metrics
    line_counts(m)
    start_costs(m)
    tracer = spans.Tracer()
    verify_requests, verify_wall = verify_metrics(tracer, seed, res)

    bundles, elems = lib_inputs(seed)
    lib_requests, _wall = lib_pass(tracer, bundles, elems, res, 1000)
    lib_summary = tracer.summary(lib_requests)

    calls = gen.doc_calls(seed)
    paths = wl.write_docs(calls)
    cli_requests = cli_pass(tracer, calls, paths, res, 100_000)
    cli_summary = tracer.summary(cli_requests)
    for name, span_name in CALLS.items():
        source = cli_summary if name.startswith("cli.") else lib_summary
        durations = source.durations.get(span_name)
        m[name] = statistics.median(durations) * 1e6 if durations else 0.0

    if workload == "verify-deep":
        requests, traced_s = verify_requests, verify_wall
        plain_s, reports, _info = verify_pass(None, seed)
        check_reports(reports, res)
        walls = [verify_wall]
    elif workload == "lib-batch":
        lib_pass(None, bundles, elems, res, 0)  # warm-up
        plain_s = lib_pass(None, bundles, elems, res, 0)[1]
        requests, traced_s = lib_pass(tracer, bundles, elems, res, 200_000)
        walls = [traced_s]
    else:
        requests, walls, plain = cli_children(tracer, calls, paths, res, 300_000)
        traced_s, plain_s = statistics.median(walls), statistics.median(plain)
    summary = tracer.summary(requests)
    m["trace.overhead_ratio"] = traced_s / plain_s
    m["trace.span_coverage"] = summary.covered_s / sum(walls)
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = summary.self_s.get(layer, 0.0)

    sweep(res)
    tracer.write(OUT / f"spans-{workload}.tsv.gz")
    res.report = [f"spans               {tracer.count()} written to "
                  f"{OUT.name}/spans-{workload}.tsv.gz"]
    return res
