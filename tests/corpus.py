"""The command corpus: the documents and runs that every command check reads.

``DOCUMENTS`` names each document with a one-line reason.  Every argv of
``DOCUMENT_ARGVS`` runs on every document, ``{doc}`` standing for its path;
the argvs of ``OTHER_ARGVS`` read no document.  Together they reach every
mode of every command.  The golden (``tests/data/corpus_outputs.json``) holds
each command's usage line (its ``--help`` up to the first blank line) and, for
each run, its exit code, stdout in both formats and stderr.

``invoke`` runs one argv in-process; ``fresh`` starts a new interpreter on
this checkout's package, for the checks that need a whole process.

``PYTHONPATH=src python tests/corpus.py`` prints the golden as this checkout
computes it.
"""

import errno
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from parabolic.cli import COMMANDS, run

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parents[1] / "src"
NO_DOCUMENT = "no document"


def _readme_document() -> dict:
    text = (DATA.parents[1] / "README.md").read_text()
    start = text.index("```json\n") + len("```json\n")
    return json.loads(text[start:text.index("```", start)])


readme = _readme_document()
DOCUMENTS = {
    "readme": ("README's example, so it cannot drift: one point, e = 3, h = 1, its default "
               "piece", readme),
    "h12": ("composite gerbe index h = 12, where ED and each ED_p differ", {
        "curve": {"genus": 2,
                  "points": [{"degree": 1, "ramification": 2, "weights": [12, 12, 0]}]},
        "bundle": {"rank": 12, "degree": 24}}),
    "two-pieces": ("two graded pieces of rank 1 for nil-dim and trdeg-bound", dict(readme, pieces=[
        {"rank": 1, "weights_per_point": [[1, 1, 0, 0]]},
        {"rank": 1, "weights_per_point": [[1, 0, 0, 0]]}])),
    "large": ("points with f = 2 and 3, one with e = 1, a negative degree, 24 x 24 hom-datum",
              json.loads((DATA / "hom_datum_large.json").read_text())),
    "no-points": ("no marked point: every per-point list is empty, and h = 2",
                  {"curve": {"genus": 2}, "bundle": {"rank": 2, "degree": 2}}),
    "genus-1": ("below the ED bounds' genus: their commands and --nonsimple exit 1",
                {**readme, "curve": {**readme["curve"], "genus": 1}}),
    "rank-1": ("a line bundle, which --nonsimple refuses with exit 1", {
        "curve": {"genus": 2,
                  "points": [{"degree": 1, "ramification": 2, "weights": [1, 0, 0]}]},
        "bundle": {"rank": 1, "degree": 0}}),
}
DOCUMENT_ARGVS = [
    *([name, "-i", "{doc}"] for name in ("chi", "end-chi", "flag-dim", "hom-datum",
                                         "stacky-degree", "index", "ed-bound")),
    *(["ed-p", "-i", "{doc}", "--prime", p] for p in ("2", "3", "5")),
    ["nil-dim", "-i", "{doc}"],
    ["trdeg-bound", "-i", "{doc}"],
    ["trdeg-bound", "-i", "{doc}", "--nonsimple"],
]
OTHER_ARGVS = [
    ["gerbe-ed", "12"],
    ["gerbe-ed-p", "12", "--prime", "2"],
    # 1031 * 1033 is above 1024^2, so trial division leaves it to Pollard rho
    ["gerbe-ed", "1065023"],
    ["gerbe-ed-p", "1065023", "--prime", "1031"],
    ["verify", "--e-max", "3", "--random", "2"],
]


def invoke(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fresh(*args: str, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
          timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python -S`` with args on this checkout's package; each stream not given
    is captured.

    Without ``site`` no ``.pth`` file preloads a module, so the child's
    ``sys.modules`` holds only what the interpreter and its run import."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-S", *args], env={**os.environ, "PYTHONPATH": path},
                          stdout=stdout, stderr=stderr, text=True, timeout=timeout)


class FullDevice(io.StringIO):
    """A text stream whose every write fails, as on a full device."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def write(directory: Path, name: str) -> str:
    """The path of document name, written into directory."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(DOCUMENTS[name][1]))
    return str(path)


def usage(command: str) -> str:
    out = invoke([command, "--help"])[1]
    return out[:out.index("\n\n") + 1]


def observe(argv: list[str], path: str | None = None) -> dict:
    """The golden entry of one run.  Each format runs twice and must print the
    same bytes; both formats must exit alike and write the same stderr."""
    concrete = [path if arg == "{doc}" else arg for arg in argv]
    seen = {}
    for fmt in ("json", "text"):
        seen[fmt] = invoke([*concrete, "--format", fmt])
        assert invoke([*concrete, "--format", fmt]) == seen[fmt], (argv, fmt)
    (code, json_out, err), (text_code, text_out, text_err) = seen["json"], seen["text"]
    assert (code, err) == (text_code, text_err), argv
    return {"argv": argv, "code": code, "json": json_out, "text": text_out, "stderr": err}


@functools.cache
def golden() -> dict:
    return json.loads((DATA / "corpus_outputs.json").read_text())


def _groups():
    return [*((name, DOCUMENT_ARGVS) for name in DOCUMENTS), (NO_DOCUMENT, OTHER_ARGVS)]


def runs() -> list[tuple[str | None, list[str], dict]]:
    """(document name or None, argv, golden entry) of every run."""
    assert list(golden()) == ["usage", *(name for name, _argvs in _groups())]
    assert list(golden()["usage"]) == list(COMMANDS)
    found = []
    for group, argvs in _groups():
        assert [entry["argv"] for entry in golden()[group]] == argvs, group
        found.extend((None if group == NO_DOCUMENT else group, entry["argv"], entry)
                     for entry in golden()[group])
    return found


def record(directory: Path) -> str:
    """The golden as this checkout prints it, one run a line."""
    usages = ",\n".join(f"  {json.dumps(command)}: {json.dumps(usage(command))}"
                         for command in COMMANDS)
    blocks = [f' "usage": {{\n{usages}\n }}']
    for group, argvs in _groups():
        path = None if group == NO_DOCUMENT else write(directory, group)
        rows = ",\n".join(f"  {json.dumps(observe(argv, path))}" for argv in argvs)
        blocks.append(f" {json.dumps(group)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines at this width
    with tempfile.TemporaryDirectory() as tmp:
        print(record(Path(tmp)), end="")
