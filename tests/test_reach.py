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
"""

import ast
import json
import os
import subprocess
import sys
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
    "parabolic.__dir__": "README: dir(parabolic) lists the lazy field names",
    "parabolic.cli.main": "the console script, run by CI's console-script step; it exits the "
                          "process, so the run calls cli.run",
}

# argv: root, package directory, documents, runs; prints the entered keys as JSON
TRACED_RUN = r"""
import io, json, os, sys, tempfile

root, package = sys.argv[1], sys.argv[2] + os.sep
documents, runs = json.loads(sys.argv[3]), json.loads(sys.argv[4])
entered = set()


def enter(frame, event, arg):
    # a global trace function sees every call; returning None skips line events
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


sys.settrace(enter)
import parabolic
from parabolic import cli

with tempfile.TemporaryDirectory() as tmp:
    for name, document in documents.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(document)
    for name, argv, code in runs:
        argv = [os.path.join(tmp, name) if a == "{doc}" else a for a in argv]
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            assert cli.run([*argv, "--format", fmt], out, err) == code, (argv, err.getvalue())

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

sys.settrace(None)
print(json.dumps(sorted(entered)))
"""


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


def _entered() -> set[tuple[str, int, str]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    documents = {name: json.dumps(doc) for name, (_reason, doc) in corpus.DOCUMENTS.items()}
    runs = [(name, argv, entry["code"]) for name, argv, entry in corpus.runs()]
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), str(PACKAGE), json.dumps(documents),
         json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return {tuple(key) for key in json.loads(result.stdout.splitlines()[-1])}


def test_every_function_is_reached_or_allowed():
    assert {argv[0] for _name, argv, _entry in corpus.runs()} == set(cli.COMMANDS)
    functions = _functions()
    stale = sorted(set(ALLOWED) - set(functions.values()))
    assert not stale, f"allowlist entries that name no function: {stale}"
    entered = _entered()
    reached = [name for key, name in functions.items() if key in entered]
    unreached = sorted(name for key, name in functions.items()
                       if key not in entered and name not in ALLOWED)
    print(f"reach: {len(reached)} of {len(functions)} functions entered, "
          f"{len(functions) - len(reached) - len(unreached)} allowlisted, "
          f"{len(unreached)} unreached")
    assert not unreached, (
        f"functions that no command, verify or benchmark call enters: {unreached}; "
        "delete them, or add each to ALLOWED with its reason")
