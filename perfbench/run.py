"""Seeded benchmark of the parabolic package: three workloads and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli-docs --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test        # the checkers must catch corrupted outputs
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json from the tables below

The report goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The benchmark imports the package from ``src/`` of the checkout it runs in and
writes only under ``.perfbench-out/`` there.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers
import selftest
import workloads as wl

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 30
WORKLOADS = {
    "verify-deep": "a cold `verify --e-max 60` process: the cyclotomic tables and oracle "
                   "suites, over 95% of the time; the workload where field arithmetic shows",
    "cli-docs": "document commands as processes, one closed-loop client: start-up and "
                "import dominate, math takes microseconds; never touches cyclotomic tables",
    "lib-batch": "in-process, warm: large bundles through the closed forms, then generic "
                 "Q(zeta_e) products and inverses that verify-deep never uses",
}
# name, unit, better, bound; each workload measures its own unit of work.
# Times are scaled to a reference host speed (see workloads.py).  The bounds
# are wide because on a shared 2-vCPU host the verify time still spreads by
# about 8% between runs after scaling.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in layers.per_layer()],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    problems = selftest.problems()
    if problems:
        print("error: checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    if args.self_test:
        print("checker self-test passed")
        return 0
    if args.write_manifest:
        path = wl.ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {path.name}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (wl.SRC / wl.PACKAGE / "__init__.py").is_file():
        print(f"error: no {wl.PACKAGE} package under {wl.SRC}", file=sys.stderr)
        return 2

    wl.OUT.mkdir(exist_ok=True)
    if args.trace:
        res = layers.run_traced(args.workload, args.seed, args.seconds)
        wanted = [(n, u) for n, u, _b in layers.per_layer()]
    else:
        res = wl.WORKLOADS[args.workload](args.seed, args.seconds)
        wanted = [(n, u) for n, u, _b, _bound in END_TO_END]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in res.report:
        print(line)
    print(f"fail_ratio          {res.failed / max(res.attempted, 1):.4f}  "
          f"({res.failed} of {res.attempted} operations)")
    for name, unit in wanted:
        print(f"  {name:40s} {res.metrics[name]:.6g} {unit}")
    for problem in res.problems[:5]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": res.metrics[n], "unit": u} for n, u in wanted},
    }))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
