"""The three workloads, measured with tracing off.

Each ``run_<workload>(seed, seconds)`` returns a ``Result`` holding the
end-to-end metrics, the operation counts and the lines of its human report.
The unit of work differs per workload:

* ``verify-deep``: one ``parabolic verify --e-max 60`` child process;
* ``cli-docs``: one document-command child process;
* ``lib-batch``: one bundle through the library calls (phase one) and one
  generic Q(zeta_e) ``*`` or ``inverse()`` (phase two).

Measuring on a shared host
--------------------------
The hosts this benchmark runs on are shared, and their speed drifts in two
ways.  For one to three seconds at a time a CPU runs up to 1.9x slower, and
the two CPUs drift independently.  For minutes at a time the whole host can
run 1.7x slower.  Two devices handle these:

* **Best of repetitions.**  A run repeats a fixed set of seeded items for the
  whole ``--seconds`` and keeps each item's fastest repetition, which
  removes the short bursts.  Every repetition is still checked.
* **Host-speed scaling.**  Throughout the run, about a tenth of the time
  goes to a fixed pure-Python kernel (``host_kernel``).  Every reported time
  is scaled by the kernel's fastest time on a quiet host over its fastest
  time in this run, so a value is what the run would have measured on the
  quiet host; a slow phase slows the kernel as much as the program, so it
  cancels.  The fastest time, like the program's best-of times, comes from
  the host's quietest moments; the kernel's lower quartile or median
  over-corrected in heavy phases (perfbench/README.md has the spreads).
  ``setup_s`` is a median of single set-ups, so it is scaled through the
  kernel's median instead.  The report prints the unscaled wall times and
  the scale beside them.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PACKAGE = "parabolic"
SETUP_REPEATS = 9
VERIFY_TIMEOUT_S = 100
CALL_TIMEOUT_S = 20
MAX_RUN_S = 120  # with the timeouts above, a run ends within 180 s even if calls hang
VERIFY_E_MAX = 60
VERIFY_RANDOM = 100  # the CLI's default --random
MIN_DOC_CALLS = 100
HOST_SHARE = 0.1
# The kernel's fastest and median times on a quiet 2-vCPU host, Python 3.11.
QUIET_KERNEL_S = 0.0015
QUIET_KERNEL_MEDIAN_S = 0.00165


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def miss(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def host_kernel() -> int:
    """Fixed pure-Python work: Fraction arithmetic and dict updates, like the program's."""
    acc = Fraction(0)
    for k in range(1, 320):
        acc += Fraction(k, k + 2) * Fraction(3, k + 1)
    table: dict[int, int] = {}
    for i in range(2400):
        table[i % 37] = table.get(i % 37, 0) + i * i
    return acc.numerator + sum(table.values())


class Runner:
    """One measured run: best-of timing, spread set-ups and host-speed samples."""

    def __init__(self, setup=None):
        self.res = Result()
        self.setup = setup
        self.setups: list[float] = []
        self.kernel: list[float] = []
        self._kernel_s = 0.0
        self._start = time.perf_counter()

    def sample_host(self) -> None:
        """Run the host kernel until it has had HOST_SHARE of the run so far."""
        while not self.kernel or self._kernel_s < HOST_SHARE * (time.perf_counter() - self._start):
            t0 = time.perf_counter()
            host_kernel()
            dt = time.perf_counter() - t0
            self.kernel.append(dt)
            self._kernel_s += dt

    def scale(self) -> float:
        """Factor that turns a wall time in this run into one on the quiet host."""
        return QUIET_KERNEL_S / min(self.kernel)

    def best_of(self, items: list, seconds: float, step, min_steps: int = 1,
                setup_reps: int = SETUP_REPEATS) -> list[list[float]]:
        """Cycle through the items for ``seconds``; keep each item's fastest op times.

        ``step(item)`` returns (op times, problem or None).  ``self.setup()``,
        when set, is timed ``setup_reps`` times at even intervals across the
        run, the first before any step, so that the median set-up time
        samples the drift too instead of one moment.
        """
        best: list[list[float] | None] = [None] * len(items)
        start, k, done = time.perf_counter(), 0, 0
        while True:
            self.sample_host()
            elapsed = time.perf_counter() - start
            while self.setup is not None and done < setup_reps and (
                    elapsed >= done * seconds / setup_reps or elapsed >= seconds):
                self.setups.append(self.setup())
                done += 1
            if elapsed >= seconds and (k >= min_steps or elapsed >= MAX_RUN_S):
                break
            i = k % len(items)
            k += 1
            self.res.attempted += 1
            try:
                times, problem = step(items[i])
            except Exception as exc:  # a raising call is a failed operation, not a crash
                self.res.miss(f"item {i}: {type(exc).__name__}: {exc}")
                continue
            if problem:
                self.res.miss(f"item {i}: {problem}")
            best[i] = times if best[i] is None else [min(a, b) for a, b in zip(best[i], times)]
        return [b for b in best if b is not None]

    def finish(self, walls_s: list[float], ops: int, ops_time_s: float,
               peak_rss_mb: float) -> Result:
        """Set every end-to-end metric, scaled to the reference host."""
        raw = {
            "setup_s": statistics.median(self.setups) if self.setups else 0.0,
            "p50_ms": statistics.median(walls_s) * 1e3 if walls_s else 0.0,
            "p90_ms": p90(walls_s) * 1e3 if walls_s else 0.0,
            "ops_per_s": ops / ops_time_s if ops_time_s else 0.0,
        }
        s = self.scale()
        m = self.res.metrics
        for name, value in raw.items():
            m[name] = value / s if name == "ops_per_s" else value * s
        # a median of single set-ups is scaled through the kernel's median
        m["setup_s"] = raw["setup_s"] * QUIET_KERNEL_MEDIAN_S / statistics.median(self.kernel)
        m["peak_rss_mb"] = peak_rss_mb
        kq = statistics.quantiles(self.kernel, n=4) if len(self.kernel) > 1 else self.kernel * 3
        self.res.report += [
            "unscaled            " + "  ".join(f"{k}={v:.6g}" for k, v in raw.items()),
            f"host scale          {s:.4f}  (kernel ms: best {min(self.kernel) * 1e3:.4f}, "
            f"quartiles {', '.join(f'{q * 1e3:.4f}' for q in kq)}; n={len(self.kernel)})",
        ]
        return self.res


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PARAB_FORMAT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict[str, str],
              timeout: float = CALL_TIMEOUT_S) -> tuple[int, str, str, float, float]:
    """Run one child to completion: (exit code, stdout, stderr, wall s, peak RSS MB).

    A child still running after ``timeout`` seconds is killed.
    """
    err_path = OUT / "child.stderr"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return (proc.returncode, out.decode("utf-8", "replace"), stderr.decode("utf-8", "replace"),
            wall, usage.ru_maxrss / 1024)


def preflight(env: dict[str, str]) -> float:
    """One child import of the CLI from this checkout; returns its wall time."""
    code, out, err, wall, _rss = run_child(
        [sys.executable, "-c", f"import {PACKAGE}.cli as m; print(m.__file__)"], env)
    if code != 0 or not out.strip().startswith(str(SRC)):
        raise SystemExit(f"error: cannot import {PACKAGE}.cli from {SRC}: {err.strip()[-300:]}")
    return wall


def fresh_import(name: str = PACKAGE):
    """Import the package again from scratch, so every cache in it starts cold."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for mod in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[mod]
    module = importlib.import_module(name)
    if not str(module.__file__).startswith(str(SRC)):
        raise SystemExit(f"error: {name} was imported from {module.__file__}, not from {SRC}")
    return module


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


# -- verify-deep ----------------------------------------------------------------


def verify_argv(seed: int) -> list[str]:
    return [sys.executable, "-m", f"{PACKAGE}.cli", "verify",
            "--e-max", str(VERIFY_E_MAX), "--seed", str(seed)]


def run_verify_deep(seed: int, seconds: float) -> Result:
    env = child_env()
    run = Runner(setup=lambda: preflight(env))
    walls, rss, cases = [], [], 0

    def step(s):
        nonlocal cases
        code, out, err, wall, peak = run_child(verify_argv(s), env, VERIFY_TIMEOUT_S)
        walls.append(wall)
        rss.append(peak)
        problem, cases = checks.check_verify(code, out, VERIFY_E_MAX, VERIFY_RANDOM)
        return [wall], problem and f"verify --seed {s}: {problem} {err.strip()[-200:]}"

    best = [t for (t,) in run.best_of([gen.verify_seed(seed)], seconds, step)]
    if best:
        run.res.report = [
            f"verify_s            {best[0]:.3f} s  (best of {len(walls)} processes: "
            f"{', '.join(f'{w:.3f}' for w in walls)})",
            f"verify_peak_rss_mb  {max(rss):.1f} MB",
            f"verify cases/s      {cases / best[0]:.0f} 1/s  ({cases} cases per run)",
        ]
    return run.finish(best, cases, sum(best), max(rss, default=0.0))


# -- cli-docs ---------------------------------------------------------------------


def write_docs(calls: list[dict]) -> list[str]:
    """Write each distinct document once; returns the path for each call."""
    paths, written = [], {}
    for call in calls:
        text = json.dumps(call["doc"])
        path = written.get(text)
        if path is None:
            path = written[text] = str(OUT / f"doc-{len(written)}.json")
            Path(path).write_text(text)
        paths.append(path)
    return paths


def run_cli_docs(seed: int, seconds: float) -> Result:
    env = child_env()
    calls = gen.doc_calls(seed)
    items = list(zip(calls, write_docs(calls)))
    run = Runner(setup=lambda: preflight(env))
    rss = []

    def step(item):
        call, path = item
        argv = [sys.executable, "-m", f"{PACKAGE}.cli", *checks.doc_argv(call, path)]
        code, out, err, wall, peak = run_child(argv, env)
        rss.append(peak)
        return [wall], checks.check_doc(call, code, out, err)

    walls = [t for (t,) in run.best_of(items, seconds, step, MIN_DOC_CALLS)]
    if walls:
        run.res.report = [
            f"doc_p50_ms          {statistics.median(walls) * 1e3:.2f} ms  (n={len(walls)} "
            f"calls, each the best of its repetitions; {run.res.attempted} processes)",
            f"doc_p90_ms          {p90(walls) * 1e3:.2f} ms  (n={len(walls)} calls)",
        ]
    return run.finish(walls, len(walls), sum(walls), max(rss, default=0.0))


# -- lib-batch --------------------------------------------------------------------


def lib_setup(field_es: set[int]):
    """Import the library and fill the field caches the batch uses; returns (module, s)."""
    t0 = time.perf_counter()
    lib = fresh_import()
    for e in sorted(field_es):
        lib.cyclo_field(e)
    return lib, time.perf_counter() - t0


def bundle_step(lib, item) -> tuple[list[float], str | None]:
    """Phase one on one bundle: every library call, timed, then checked."""
    (g, r, d, points), refs = item
    t0 = time.perf_counter()
    bun = lib.bundle_on(g, r, d, points)
    chi = lib.euler_char(bun).chi
    endo_chi = lib.euler_char(lib.end_bundle(bun)).chi
    end_chi = lib.end_euler_char(bun)
    upper = lib.ed_upper_bound(bun)
    ed_p = {p: lib.ed_p_value(bun, p).total for p in refs["ed_p_totals"]}
    wall = time.perf_counter() - t0
    got = (chi, endo_chi, end_chi, upper.h, upper.total, ed_p)
    want = (refs["chi"], refs["end_chi"], refs["end_chi"], refs["h"], refs["ed_total"],
            refs["ed_p_totals"])
    return [wall], None if got == want else f"bundle {item[0]}: got {got}, expected {want}"


def field_step(item) -> tuple[list[float], str | None]:
    """Phase two on one pair: a * b, a^-1 and a * a^-1, each timed, then checked."""
    A, B, want = item
    t0 = time.perf_counter()
    prod = A * B
    t1 = time.perf_counter()
    inv = A.inverse()
    t2 = time.perf_counter()
    one = A * inv
    t3 = time.perf_counter()
    where = f"Q(zeta_{A.field.e})"
    if prod.coeff_strings() != want:
        problem = f"{where}: a * b = {prod.coeff_strings()}, expected {want}"
    elif not one.is_rational() or one.to_rational() != 1:
        problem = f"{where}: a * a^-1 = {one.coeff_strings()}, expected 1"
    else:
        problem = None
    return [t1 - t0, t2 - t1, t3 - t2], problem


def lib_inputs(seed: int, lib) -> tuple[list, list]:
    """The seeded bundles with their references, and field pairs built in ``lib``."""
    bundles = [(b, checks.bundle_refs(b)) for b in gen.lib_bundles(seed)]
    elems = []
    for e, a, b in gen.field_items(seed):
        field_e = lib.cyclo_field(e)
        want = checks.field_product(checks.cyclotomic_poly(e), a, b)
        elems.append((field_e.from_cover(a), field_e.from_cover(b), want))
    return bundles, elems


def run_lib_batch(seed: int, seconds: float) -> Result:
    field_es = {e for e, _a, _b in gen.field_items(seed)}
    lib, spent = lib_setup(field_es)
    bundles, elems = lib_inputs(seed, lib)
    # the batch keeps using the first import; later set-ups are only timed
    run = Runner(setup=lambda: lib_setup(field_es)[1])
    run.setups.append(spent)
    reps = (SETUP_REPEATS - 1) // 2
    walls = [t for (t,) in run.best_of(bundles, seconds / 2,
                                       lambda item: bundle_step(lib, item), setup_reps=reps)]
    ops = [t for times in run.best_of(elems, seconds / 2, field_step, setup_reps=reps)
           for t in times]
    if walls and ops:
        run.res.report = [
            f"lib_bundles_per_s   {len(walls) / sum(walls):.1f} 1/s  ({len(walls)} bundles, "
            f"each the best of its passes)",
            f"field_ops_per_s     {len(ops) / sum(ops):.1f} 1/s  ({len(ops)} ops)",
        ]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run.finish(walls, len(ops), sum(ops), peak)


WORKLOADS = {
    "verify-deep": run_verify_deep,
    "cli-docs": run_cli_docs,
    "lib-batch": run_lib_batch,
}
