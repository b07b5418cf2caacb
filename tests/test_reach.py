"""Every function in ``src/parabolic`` is reached by what the library is for.

A fresh interpreter runs, under ``sys.settrace``, every run of the command
corpus (``tests/corpus.py``) in both formats, each with its golden exit code,
and the library and ``Q(zeta_e)`` field calls that the benchmark makes
(``perfbench/workloads.py``: ``lib_inputs``, ``bundle_step``, ``field_step``;
``perfbench/layers.py``: ``verify_pass``, ``family_values``).  The trace
records each code object it enters by file, first line and name, and ``ast``
maps those keys to qualified names (``co_qualname`` is new in Python 3.11).
A function that no run enters must be on ``ALLOWED`` with a reason; anything
else that only tests call is not part of the library, so delete it.

The same run, the walk, is the one home of the process-state contract: after
each stage it records which lazy modules have executed and which other modules
of interest are loaded, and ``STATES`` pins that table.  It runs once per
session, under ``python -S``: a ``site`` ``.pth`` file could preload a module
such as ``typing`` and hide what the package itself imports.
"""

import ast
import functools
import json
from pathlib import Path

from parabolic import cli

import corpus

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "parabolic"

_VALUE_TYPES = "README: equality, hash, repr, read-only fields and pickling of the value types"
_FIELD_EQ = ("a pickled CycloElem holds a new CycloField object, so it equals and hashes like "
             "the original only through the field's e")
_FIELD_REPR = ("repr in error text: to_rational's error prints the element, and a field shows as "
               "CycloField(e), not an address")
ALLOWED = {
    **dict.fromkeys([
        "parabolic.core.FrozenValue._values",
        "parabolic.core.FrozenValue.__eq__",
        "parabolic.core.FrozenValue.__hash__",
        "parabolic.core.FrozenValue.__repr__",
        "parabolic.core.FrozenValue._read_only",
        "parabolic.core.FrozenValue.__reduce__",
    ], _VALUE_TYPES),
    "parabolic.cyclotomic.CycloField.__eq__": _FIELD_EQ,
    "parabolic.cyclotomic.CycloField.__hash__": _FIELD_EQ,
    "parabolic.cyclotomic.CycloField.__repr__": _FIELD_REPR,
    "parabolic.cyclotomic.CycloElem.__repr__": _FIELD_REPR,
    "parabolic.riemann_roch.ChiReport.__init__": (
        "euler_char builds its report without it; unpickling and copy rebuild a report through "
        "it"),
    "parabolic.cli.main": "the console script, run by CI's console-script step and as "
                          "python -m parabolic.cli; it exits the process, so the run calls "
                          "cli.run",
}

# argv: root, package directory, documents, runs; prints the entered keys and the state
# after each stage as JSON
TRACED_RUN = r"""
import io, json, os, sys, tempfile, types

root, package = sys.argv[1], sys.argv[2] + os.sep
documents, runs = json.loads(sys.argv[3]), json.loads(sys.argv[4])
entered, states = set(), []


def enter(frame, event, arg):
    # a global trace function sees every call; returning None skips line events
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


def stage(name):
    # a lazy module has executed once its type is ModuleType; type() reads no attribute, so
    # this check executes nothing.  Any other module counts once it is in sys.modules
    executed = [m for m in ("cyclotomic", "oracle")
                if type(sys.modules.get("parabolic." + m)) is types.ModuleType]
    loaded = [m for m in ("parabolic.cli", "parabolic.bigprime", "typing", "dataclasses",
                          "inspect") if m in sys.modules]
    states.append((name, executed + [m.removeprefix("parabolic.") for m in loaded]))


def run(argv, code):
    for fmt in ("json", "text"):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run([*argv, "--format", fmt], out, err) == code, (argv, err.getvalue())


sys.settrace(enter)
stage("start")
import parabolic
assert parabolic.cyclotomic is sys.modules["parabolic.cyclotomic"]
assert parabolic.oracle is sys.modules["parabolic.oracle"]
# README: dir() lists the field's names, without executing the field
assert set(parabolic.__all__) <= set(dir(parabolic))
stage("import parabolic, then dir()")
from parabolic import cli
# the oracle bound before the CLI: a second module would leave a patch of the first unseen by
# verify.  (import parabolic.oracle would execute it, since the import reads its __spec__)
assert cli.oracle is parabolic.oracle
stage("from parabolic import cli")

with tempfile.TemporaryDirectory() as tmp:
    for name, document in documents.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(document)
    for name, argv, code in runs:
        if argv[0] != "verify":
            run([os.path.join(tmp, name) if a == "{doc}" else a for a in argv], code)
stage("every run of a document command")

# gerbe-ed 1065023 loaded bigprime for Pollard rho; verify must load it only from e = 102 on:
# every split prime for e <= 101 is below 1024^2, so trial division decides it, and from
# e = 102 on q > e^3 passes 2^20 and Miller-Rabin runs.  These three run untraced, since
# the trace would triple their time; the corpus's small verify is traced
sys.modules.pop("parabolic.bigprime", None)
sys.settrace(None)
for argv in (["verify"], ["verify", "--e-max", "101", "--random", "0"],
             ["verify", "--e-max", "150", "--random", "0"]):
    assert cli.run(argv, io.StringIO(), io.StringIO()) == 0, argv
    stage(" ".join(argv))
sys.settrace(enter)

for name, argv, code in runs:
    if argv[0] == "verify":
        run(argv, code)
sys.path.insert(0, os.path.join(root, "perfbench"))
import checks, gen, layers, workloads

# workloads.lib_inputs, bundle_step and field_step on the first inputs of seed 1
for b in gen.lib_bundles(1, count=14):
    assert workloads.bundle_step(parabolic, (b, checks.bundle_refs(b)))[1] is None
for e, a, b in gen.field_items(1, copies=1)[:3]:
    field = parabolic.cyclo_field(e)
    want = checks.field_product(checks.cyclotomic_poly(e), a, b)
    assert workloads.field_step((field.from_cover(a), field.from_cover(b), want))[1] is None
for family in layers.SWEEP_FAMILIES:
    values = layers.family_values(parabolic.cyclotomic, family, 6)
    assert all(layers.as_rational(got) == want for got, want in values), family
# verify_pass: the same table fills and suites as at e <= 60, on fewer cases
workloads.VERIFY_E_MAX, workloads.VERIFY_RANDOM = 12, 20
assert all(r.passed for r in layers.verify_pass(None, 1)[1])
stage("the corpus's verify, then the benchmark's calls")

# perfbench's span installer reads vars() of each layer module right after a fresh import of
# the CLI, and its layer probes read the field's names on parabolic.cyclotomic
workloads.fresh_import("parabolic.cli")
assert "run_all" in vars(sys.modules["parabolic.oracle"])
assert {"cyclo_field", "cyclotomic_poly", "inertia_term", "geometric_sum", "inverse_sum",
        "ratio_sum", "shifted_sum"} <= set(vars(sys.modules["parabolic.cyclotomic"]))
stage("a fresh import of the CLI, then vars() of both lazy modules")

sys.settrace(None)
print(json.dumps({"entered": sorted(entered), "states": states}))
"""

# the state after each stage of TRACED_RUN: the lazy modules (cyclotomic, oracle) that have
# executed, then the other modules of interest in sys.modules.  The twelve document commands
# execute neither lazy module, verify only the oracle, and nothing loads typing; only the
# benchmark's own imports load dataclasses and inspect.  Its verify_pass imports the package
# afresh, which drops bigprime from sys.modules
STATES = [
    ("start", []),
    ("import parabolic, then dir()", []),
    ("from parabolic import cli", ["cli"]),
    ("every run of a document command", ["cli", "bigprime"]),
    ("verify", ["oracle", "cli"]),
    ("verify --e-max 101 --random 0", ["oracle", "cli"]),
    ("verify --e-max 150 --random 0", ["oracle", "cli", "bigprime"]),
    ("the corpus's verify, then the benchmark's calls",
     ["cyclotomic", "oracle", "cli", "dataclasses", "inspect"]),
    ("a fresh import of the CLI, then vars() of both lazy modules",
     ["cyclotomic", "oracle", "cli", "dataclasses", "inspect"]),
]


def _functions() -> dict[tuple[str, int, str], str]:
    """{(file name, first line, name): qualified name} for each def in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's co_firstlineno is its first decorator's line
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[(path.name, line, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        module = "parabolic" if path.stem == "__init__" else f"parabolic.{path.stem}"
        visit(ast.parse(path.read_text(encoding="utf-8")), path, module + ".")
    return found


@functools.cache
def _walk() -> tuple[set[tuple[str, int, str]], list[tuple[str, list[str]]]]:
    """TRACED_RUN's entered keys and stage states, from one run per session."""
    documents = {name: json.dumps(doc) for name, (_reason, doc) in corpus.DOCUMENTS.items()}
    runs = [(name, argv, entry["code"]) for name, argv, entry in corpus.runs()]
    result = corpus.fresh("-c", TRACED_RUN, str(ROOT), str(PACKAGE), json.dumps(documents),
                          json.dumps(runs), timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    walk = json.loads(result.stdout.splitlines()[-1])
    return {tuple(key) for key in walk["entered"]}, [tuple(row) for row in walk["states"]]


def test_every_function_is_reached_or_allowed():
    assert {argv[0] for _name, argv, _entry in corpus.runs()} == set(cli.COMMANDS)
    functions = _functions()
    stale = sorted(set(ALLOWED) - set(functions.values()))
    assert not stale, f"allowlist entries that name no function: {stale}"
    entered = _walk()[0]
    reached = [name for key, name in functions.items() if key in entered]
    unreached = sorted(name for key, name in functions.items()
                       if key not in entered and name not in ALLOWED)
    print(f"reach: {len(reached)} of {len(functions)} functions entered, "
          f"{len(functions) - len(reached) - len(unreached)} allowlisted, "
          f"{len(unreached)} unreached")
    assert not unreached, (
        f"functions that no command, verify or benchmark call enters: {unreached}; "
        "delete them, or add each to ALLOWED with its reason")


def test_each_stage_leaves_the_expected_modules():
    assert _walk()[1] == STATES
