import io
import json
import os
import pickle
import sys
import time
from pathlib import Path

import pytest

import parabolic
from parabolic import cli, oracle
from parabolic.cli import parse_document
from parabolic.errors import (
    HypothesisViolationError,
    InternalInconsistencyError,
    InvalidArgumentError,
)
from parabolic.oracle import VerificationReport

import corpus
from corpus import fresh, invoke


def test_end_chi_and_hom_datum_agree(tmp_path):
    # round-trip on every corpus document: the emitted document re-parses under the
    # input schema, and chi of the endomorphism document equals end-chi of the original
    for name in corpus.DOCUMENTS:
        path = corpus.write(tmp_path, name)
        code, out, _ = invoke(["hom-datum", "-i", path])
        assert code == 0
        end_doc = json.loads(out)
        assert parse_document(end_doc)[1] is None
        end_path = tmp_path / "end.json"
        end_path.write_text(out)
        code, out, _ = invoke(["chi", "-i", str(end_path)])
        assert code == 0
        assert json.loads(out)["chi"] == json.loads(invoke(["end-chi", "-i", path])[1])["end_chi"]


def test_non_prime_prime_exits_2():
    assert invoke(["gerbe-ed-p", "12", "--prime", "6"]) == (
        2, "", "error: --prime must be a prime number, got 6\n")


def test_verify_failure_exits_3(monkeypatch):
    broken = VerificationReport("demo", "n/a")
    broken.check("bad", 1, 2)
    monkeypatch.setattr(oracle, "run_all", lambda **kw: [broken])
    code, out, _ = invoke(["verify"])
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_text_format_flag_and_env(tmp_path, monkeypatch):
    # --format is the one setting: the environment does not override it
    argvs = [["chi", "-i", corpus.write(tmp_path, "readme")],
             ["verify", "--e-max", "2", "--random", "0"]]
    json_outs = [invoke(argv) for argv in argvs]
    monkeypatch.setenv("PARAB_FORMAT", "text")
    assert [invoke(argv) for argv in argvs] == json_outs


def test_input_error_paths(tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad json")
    code, _, err = invoke(["chi", "-i", str(bad)])
    assert code == 2
    assert "line 1" in err and "column" in err

    code, _, _ = invoke(["chi", "-i", str(tmp_path / "missing.json")])
    assert code == 2

    code, _, _ = invoke(["not-a-command"])
    assert code == 2

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"curve": {"genus": 2}}))
    code, _, err = invoke(["chi", "-i", str(schema)])
    assert code == 2 and "bundle" in err

    weights = tmp_path / "weights.json"
    doc = json.loads(json.dumps(corpus.readme))
    doc["curve"]["points"][0]["weights"] = [2, 3, 0]
    weights.write_text(json.dumps(doc))
    code, _, err = invoke(["chi", "-i", str(weights)])
    assert code == 2 and "nonincreasing" in err

    # a process started with descriptor 0 closed has no sys.stdin
    monkeypatch.setattr(sys, "stdin", None)
    assert invoke(["chi", "-i", "-"]) == (
        2, "", "error: cannot read input: [Errno 9] standard input is closed\n")


def _defect(n):
    raise InternalInconsistencyError(f"gerbe-ed defect at {n}")


# one argv of each outcome, with its exit code when both streams can be written; "{doc}"
# stands for the corpus's genus-1 document, and the internal error patches in _defect
OUTCOMES = {
    "payload": (["gerbe-ed", "12"], 0),
    "help": (["--help"], 0),
    "usage-error": (["chi", "--bogus"], 2),
    "input-error": (["gerbe-ed", "0"], 2),
    "hypothesis": (["ed-bound", "-i", "{doc}"], 1),
    "internal-error": (["gerbe-ed", "12"], 4),
}
CANNOT_WRITE = {"full": "error: cannot write output: [Errno 28] No space left on device\n",
                "none": "error: cannot write output: [Errno 9] Bad file descriptor\n"}


def _outcome_argv(tmp_path, monkeypatch, outcome):
    if outcome == "internal-error":
        monkeypatch.setattr(cli, "gerbe_ed_upper", _defect)
    argv, code = OUTCOMES[outcome]
    return [corpus.write(tmp_path, "genus-1") if a == "{doc}" else a for a in argv], code


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("failing", ["stdout-full", "stdout-none", "stderr-full", "stderr-none"])
def test_failing_stream_exit_codes(tmp_path, monkeypatch, failing, outcome):
    # a write that raises OSError(ENOSPC), or a process started with the descriptor closed
    argv, code = _outcome_argv(tmp_path, monkeypatch, outcome)
    name, kind = failing.split("-")
    streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    streams[name] = corpus.FullDevice() if kind == "full" else None
    if kind == "none":
        monkeypatch.setattr(sys, name, None)
    got = cli.run(argv, streams["stdout"], streams["stderr"])
    if name == "stderr":
        # the error line is lost; the code stands, and only exit 0 prints
        assert got == code
        assert bool(streams["stdout"].getvalue()) == (code == 0)
    elif code == 0:
        # a payload or --help that cannot be written is an input error
        assert (got, streams["stderr"].getvalue()) == (2, CANNOT_WRITE[kind])
    else:
        err = streams["stderr"].getvalue()
        assert got == code and sum("error:" in line for line in err.splitlines()) == 1, err


# python -S -c this, then argv: the CLI in a new interpreter started with descriptor 2 closed
_STDERR_CLOSED = ("import os, sys; os.close(2); "
                  "os.execv(sys.executable, [sys.executable, '-S', '-m', 'parabolic.cli', "
                  "*sys.argv[1:]])")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("stream, outcome", [
    ("stdout", "payload"), ("stdout", "help"), ("stderr", "input-error"),
    ("closed", "input-error"), ("stderr", "hypothesis"),
])
def test_output_to_a_full_device_exits_2_with_one_line(tmp_path, monkeypatch, stream, outcome):
    # the unwritten bytes must not fail the interpreter's exit flush a second time, which
    # would print "Exception ignored" and exit 120
    argv, code = _outcome_argv(tmp_path, monkeypatch, outcome)
    with open("/dev/full", "w") as full:
        if stream == "closed":
            result = fresh("-c", _STDERR_CLOSED, *argv)
        else:
            result = fresh("-m", "parabolic.cli", *argv, **{stream: full})
    if stream == "stdout":
        assert (result.returncode, result.stderr) == (2, CANNOT_WRITE["full"])
    else:
        # stderr cannot be read: the code stands, and nothing reaches stdout
        assert (result.returncode, result.stdout) == (code, "")


def test_internal_error_exits_4_without_traceback(tmp_path, monkeypatch):
    def broken(bundle):
        raise InternalInconsistencyError("endomorphism bundle degree 1/3 is not an integer")

    monkeypatch.setattr(cli, "end_bundle", broken)
    code, out, err = invoke(["hom-datum", "-i", corpus.write(tmp_path, "readme")])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == ("error: internal: InternalInconsistencyError: "
                   "endomorphism bundle degree 1/3 is not an integer\n")


@pytest.mark.parametrize("error", [
    InvalidArgumentError("weights length 3 does not match ramification index 1"),
    HypothesisViolationError("ed bounds require genus >= 2, got 2"),
])
def test_library_error_inside_verify_exits_4(monkeypatch, error):
    # verify's arguments are checked before any suite runs, so a library error
    # raised by a suite is a defect of the program, not bad input (2) or a
    # violated hypothesis (1)
    def broken(count, seed):
        raise error

    monkeypatch.setattr(oracle, "chi_suite", broken)
    code, out, err = invoke(["verify"])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == f"error: internal: {type(error).__name__}: {error}\n"


def test_stdin_input(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(corpus.readme)))
    code, out, _ = invoke(["chi", "-i", "-"])
    assert code == 0
    assert json.loads(out)["chi"] == "-1"


def test_gerbe_ed_of_a_large_prime_is_fast():
    start = time.perf_counter()
    code, out, _ = invoke(["gerbe-ed", "1000000000000000003"])
    assert code == 0
    assert json.loads(out) == {"n": 1000000000000000003, "ed_upper": 1000000000000000002}
    code, out, _ = invoke(["gerbe-ed-p", "12", "--prime", "1000000000000000003"])
    assert code == 0 and json.loads(out)["ed_p"] == 0
    assert time.perf_counter() - start < 1.0


def test_gerbe_ed_beyond_exact_bound_exits_2():
    # a product of two primes near 1e18, so no factor below the trial limit
    code, out, err = invoke(["gerbe-ed", str(1000000000000000003 * 1000000000000000009)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("field, value", [("pieces", 5), ("points", {}), ("points", None)])
def test_non_list_points_and_pieces_exit_2(tmp_path, field, value):
    doc = json.loads(json.dumps(corpus.readme))
    if field == "pieces":
        doc["pieces"] = value
    else:
        doc["curve"]["points"] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("nil-dim", "chi"):
        code, out, err = invoke([command, "-i", str(path)])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert f"{field} must be a JSON list" in err


def test_non_integer_piece_weight_exits_2(tmp_path):
    doc = json.loads(json.dumps(corpus.readme))
    doc["pieces"] = [{"rank": 2, "weights_per_point": [["a", 1, 1, 0]]}]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(["nil-dim", "-i", str(path)])
    assert code == 2 and out == ""
    assert err == "error: pieces[0].weights_per_point[0] must be a list of integers\n"


@pytest.mark.parametrize("weights_per_point, message", [
    ([], "pieces[0].weights_per_point must list one weight vector per curve point "
         "(1 expected)"),
    ([[2, 1, 1, 0], [2, 1, 1, 0]], "pieces[0].weights_per_point must list one weight vector "
                                   "per curve point (1 expected)"),
    ([[2, 1, 0]], "pieces[0].weights_per_point[0] must have length 4 to match the point's "
                  "ramification"),
])
def test_piece_weights_not_matching_the_points_exit_2(tmp_path, weights_per_point, message):
    doc = dict(corpus.readme, pieces=[{"rank": 2, "weights_per_point": weights_per_point}])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(["nil-dim", "-i", str(path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_non_utf8_input_exits_2(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = invoke(["chi", "-i", str(path)])
    assert code == 2 and out == ""
    assert err == "error: input is not UTF-8 text (byte 0: invalid start byte)\n"


def test_oversized_input_exits_2(tmp_path):
    path = tmp_path / "spaces.json"
    path.write_text(" " * (cli.MAX_DOCUMENT_CHARS + 1))
    code, out, err = invoke(["chi", "-i", str(path)])
    assert (code, out, err) == (2, "", "error: input is longer than 1048576 characters\n")


@pytest.mark.parametrize("command", ["chi", "ed-bound", "hom-datum"])
@pytest.mark.parametrize("digits", [4001, 5000])
def test_long_integer_literal_exits_2(tmp_path, command, digits):
    # 5000 digits is past Python's int parsing limit; a 4001-digit rank parses there
    # but its square could not be printed
    path = tmp_path / "long.json"
    long_rank = f'"rank": 1{"0" * (digits - 1)}'
    path.write_text(json.dumps(corpus.readme).replace('"rank": 2', long_rank))
    code, out, err = invoke([command, "-i", str(path)])
    assert (code, out, err) == (2, "", "error: integer literal longer than 1000 digits\n")


def test_longest_integer_literals_print(tmp_path):
    big = 10**999  # 1000 digits, the longest literal accepted
    doc = {"curve": {"genus": big, "points": [{"degree": big, "ramification": 1,
                                               "weights": [big, 0]}]},
           "bundle": {"rank": big, "degree": -big}}
    path = tmp_path / "longest.json"
    path.write_text(json.dumps(doc))
    for name, (_help, arguments, _handler) in cli.COMMANDS.items():
        if arguments[0] is cli._INPUT:
            extra = ["--prime", "5"] if name == "ed-p" else []
            code, out, err = invoke([name, "-i", str(path), *extra])
            assert code == 0 and out and err == "", (name, err)


def test_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = invoke(["chi", "-i", str(path)])
    assert code == 2 and out == ""
    assert err == "error: JSON is nested too deeply\n"


@pytest.mark.parametrize("command", ["nil-dim", "trdeg-bound"])
def test_empty_pieces_exit_2(tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(corpus.readme, pieces=[])))
    code, out, err = invoke([command, "-i", str(path)])
    assert code == 2 and out == ""
    assert err == "error: pieces must list at least one graded piece\n"


@pytest.mark.parametrize("argv, message", [
    (["--e-max", "151"], "--e-max must be <= 150, got 151"),
    (["--random", "100001"], "--random must be <= 100000, got 100001"),
    (["--e-max", "1"], "--e-max must be >= 2, got 1"),
    (["--random", "-1"], "--random must be >= 0, got -1"),
])
def test_verify_ceilings_exit_2_at_once(argv, message):
    start = time.perf_counter()
    code, out, err = invoke(["verify", *argv])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == "" and err == f"error: {message}\n"


README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_on_the_corpus(tmp_path, monkeypatch, command):
    # argparse wraps usage lines at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert corpus.usage(command) == corpus.golden()["usage"][command]
    runs = [(name, argv, entry) for name, argv, entry in corpus.runs() if argv[0] == command]
    assert runs
    for name, argv, entry in runs:
        path = corpus.write(tmp_path, name) if name else None
        assert corpus.observe(argv, path) == entry, name


def test_readme_library_example_runs():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    exec(compile(text[start:text.index("```", start)], "README.md", "exec"), {})


# (argv, golden stdout), each recorded before a change to the route it pins:
# default, before the ED reports shared one path; e40, before the inertia totals
# moved to split primes; e60 (the README example), before the root-of-unity sums
# did; e150, before their rows shared one packed reduction; text, before both
# reports shared one split-prime pass; seed7 (8,000 draws through the random
# sweeps), before each sweep kept one report.
GOLDENS = {
    "verify_default.json": ["verify"],
    "verify_e40.json": ["verify", "--e-max", "40", "--random", "0"],
    "verify_e60.json": ["verify", "--e-max", "60"],
    "verify_e150.json": ["verify", "--e-max", "150", "--random", "0"],
    "verify_seed7.json": ["verify", "--e-max", "150", "--random", "2000", "--seed", "7"],
    "verify_default.txt": ["verify", "--format", "text"],
}


@pytest.mark.parametrize("golden", GOLDENS)
def test_verify_output_is_pinned(golden):
    expected = (Path(__file__).resolve().parent / "data" / golden).read_text()
    assert invoke(GOLDENS[golden]) == (0, expected, "")


CLOSED_FORMS = ("geometric_sum", "inverse_sum", "ratio_sum", "shifted_sum", "inertia_total")


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_each_closed_form_is_one_object(name):
    # defined in riemann_roch; the package and the field module bind the same function
    function = getattr(parabolic.riemann_roch, name)
    assert function.__module__ == "parabolic.riemann_roch"
    assert getattr(parabolic, name) is function is getattr(parabolic.cyclotomic, name)


def test_import_forms_work_on_the_lazy_field():
    element = parabolic.cyclo_field(5).from_cover([1, 2, 3, 4, 5])
    pickled = pickle.dumps(element)
    # each form, in a fresh interpreter that has imported the CLI, executes the field's
    # module and not the oracle
    for statement in [
        "assert parabolic.cyclo_field(5).e == 5",
        "from parabolic import *; assert CycloElem.__module__ == 'parabolic.cyclotomic'",
        "from parabolic.cyclotomic import CycloField; assert CycloField(7).e == 7",
        f"import pickle; assert pickle.loads({pickled!r}).coeff_strings() == "
        f"{element.coeff_strings()!r}",
    ]:
        result = fresh("-c", f"import sys, types, parabolic.cli\n{statement}\n"
                             "print([type(sys.modules[m]) is types.ModuleType "
                             "for m in ('parabolic.cyclotomic', 'parabolic.oracle')])")
        assert (result.returncode, result.stdout) == (0, "[True, False]\n"), result.stderr


# names deleted from the library (README, "Removed names"), by the module that had them
REMOVED_NAMES = {
    "parabolic": ("correction_term", "gcd_list", "rational_str", "euler_phi"),
    "parabolic.exact_arith": ("gcd_list", "rational_str", "euler_phi", "divisors"),
    "parabolic.riemann_roch": ("correction_term",),
    "parabolic.oracle": ("random_weights", "random_bundle", "root_line_bundle"),
    "parabolic.cli": ("run_all",),
}


def test_removed_names_stay_removed_and_star_import_binds_all():
    # in a fresh interpreter, so no earlier test has loaded a lazy module; the
    # package's __getattr__ must not serve a removed name either
    result = fresh(
        "-c",
        "import importlib\n"
        f"for module, names in {REMOVED_NAMES!r}.items():\n"
        "    for name in names:\n"
        "        try:\n"
        "            getattr(importlib.import_module(module), name)\n"
        "        except AttributeError:\n"
        "            continue\n"
        "        raise AssertionError(f'{module}.{name} still exists')\n"
        "namespace = {}\n"
        "exec('from parabolic import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "print(sorted(set(namespace) ^ set(importlib.import_module('parabolic').__all__)))")
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_removed_field_operations_stay_removed():
    # README, "Removed names": from_rational(0), from_rational(1), zeta_pow(1),
    # a * b.inverse() and repeated * replace them
    field = parabolic.cyclo_field(5)
    for name in ("zero", "one", "zeta"):
        assert not hasattr(field, name), name
    z = field.zeta_pow(1)
    for operation in (lambda: z / 2, lambda: 2 / z, lambda: 2 - z, lambda: z ** 2):
        with pytest.raises(TypeError):
            operation()


def test_readme_table_names_every_command():
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `")]
    documented = [row.split("`")[1].split()[0] for row in rows]
    assert documented == list(cli.COMMANDS)
    assert len(documented) == 13


def _ramified_doc(*orders):
    # one point per order, weights [e, e-1, ..., 0]: the most jumps hom-datum can see
    points = [{"degree": 1, "ramification": e, "weights": list(range(e, -1, -1))}
              for e in orders]
    return {"curve": {"genus": 2, "points": points}, "bundle": {"rank": orders[0], "degree": 1}}


@pytest.mark.parametrize("orders", [(1001,), (600, 401), (500, 500, 1)])
def test_ramification_total_beyond_cap_exits_2_at_once(tmp_path, orders):
    assert sum(orders) == cli.MAX_RAMIFICATION_TOTAL + 1
    path = tmp_path / "ramified.json"
    path.write_text(json.dumps(_ramified_doc(*orders)))
    for command in ("hom-datum", "end-chi", "chi"):
        start = time.perf_counter()
        code, out, err = invoke([command, "-i", str(path)])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: the ramification indices sum to more than 1000\n"


def test_ramification_total_at_cap_is_accepted(tmp_path):
    path = tmp_path / "ramified.json"
    path.write_text(json.dumps(_ramified_doc(cli.MAX_RAMIFICATION_TOTAL)))
    code, out, err = invoke(["hom-datum", "-i", str(path)])
    assert code == 0 and err == ""
    assert json.loads(out)["curve"]["points"][0]["ramification"] == 1000
    code, out, err = invoke(["end-chi", "-i", str(path)])
    assert code == 0 and err == ""


def _one_point_doc(e, jump):
    # one point of order e with every jump equal, so the rank is e * jump
    w = [(e - j) * jump for j in range(e + 1)]
    return {"curve": {"genus": 2, "points": [{"degree": 1, "ramification": e, "weights": w}]},
            "bundle": {"rank": w[0], "degree": 0}}


def test_hom_datum_of_the_largest_document_exits_2_at_once(tmp_path):
    # under every other cap: e = 1000, a 1000-digit rank and jumps of 10^996, whose
    # e^2 products would take hom-datum about 15 s
    path = tmp_path / "worst.json"
    path.write_text(json.dumps(_one_point_doc(1000, 10**996)))
    assert path.stat().st_size <= cli.MAX_DOCUMENT_CHARS
    start = time.perf_counter()
    code, out, err = invoke(["hom-datum", "-i", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: hom-datum needs the squared ramification indices (1000000) times "
                   "the rank's digit count (1000) to be at most 10000000\n")
    # the cap is hom-datum's own: chi and end-chi do O(e) work on the same document
    for command in ("chi", "end-chi"):
        assert invoke([command, "-i", str(path)])[0] == 0


@pytest.mark.parametrize("e, jump, code", [
    (100, 10**997, 0), (1000, 10**6, 0),  # e^2 times the rank's digits at the cap
    (1000, 10**7, 2), (101, 10**997, 2),
])
def test_hom_datum_work_cap(tmp_path, e, jump, code):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_one_point_doc(e, jump)))
    got, out, err = invoke(["hom-datum", "-i", str(path)])
    assert (got, bool(out), bool(err)) == (code, code == 0, code == 2)


def test_run_writes_argparse_output_to_its_streams(capsys):
    # twice each: the parser is built once per process and must not keep
    # the streams of an earlier call
    for _ in range(2):
        code, out, err = invoke(["chi", "--bogus"])
        assert code == 2 and out == ""
        assert err.startswith("usage: parabolic chi")
        assert err.endswith("error: the following arguments are required: -i/--input\n")
    for _ in range(2):
        code, out, err = invoke(["--help"])
        assert code == 0 and err == ""
        assert out.startswith("usage: parabolic") and "verify" in out
    assert capsys.readouterr() == ("", "")
