import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from parabolic import cli
from parabolic.cli import parse_document, run
from parabolic.errors import InternalInconsistencyError
from parabolic.oracle import VerificationReport

CHI_DOC = {
    "curve": {
        "genus": 2,
        "points": [{"degree": 1, "ramification": 3, "weights": [2, 1, 1, 0]}],
    },
    "bundle": {"rank": 2, "degree": 1},
}

ED_DOC = {
    "curve": {
        "genus": 2,
        "points": [{"degree": 1, "ramification": 2, "weights": [12, 12, 0]}],
    },
    "bundle": {"rank": 12, "degree": 24},
}


@pytest.fixture()
def chi_path(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(CHI_DOC))
    return str(path)


@pytest.fixture()
def ed_path(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(ED_DOC))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_chi_documented_example(chi_path):
    code, out, err = invoke(["chi", "-i", chi_path])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["chi"] == "-1"
    assert payload["stacky_degree"] == "5/3"
    assert payload["classical_part"] == "-1/3"
    assert payload["corrections"] == [["0", "2/3"]]


def test_ed_bound_documented_example(ed_path):
    code, out, _ = invoke(["ed-bound", "-i", ed_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 150
    assert payload["h"] == 12
    assert payload["conjectural"] is True


def test_ed_p_triple(ed_path):
    for prime, total in ((2, 148), (3, 147), (5, 145)):
        code, out, _ = invoke(["ed-p", "-i", ed_path, "--prime", str(prime)])
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == total
        assert payload["prime"] == prime
        assert payload["conjectural"] is False


def test_outputs_are_byte_stable(chi_path, ed_path):
    for argv in (
        ["chi", "-i", chi_path],
        ["ed-bound", "-i", ed_path],
        ["verify", "--e-max", "6", "--random", "10", "--seed", "5"],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
        assert first[0] == 0


def test_end_chi_and_hom_datum_agree(chi_path, tmp_path):
    code, out, _ = invoke(["end-chi", "-i", chi_path])
    assert code == 0
    assert json.loads(out) == {"end_chi": "-5"}

    code, out, _ = invoke(["hom-datum", "-i", chi_path])
    assert code == 0
    end_doc = json.loads(out)
    assert end_doc["bundle"] == {"rank": 4, "degree": -1}
    assert end_doc["curve"]["points"][0]["weights"] == [4, 2, 1, 0]
    # round-trip: the emitted document re-parses under the input schema,
    # and chi of the endomorphism document equals end-chi of the original
    bundle, pieces = parse_document(end_doc)
    assert pieces is None
    path = tmp_path / "end.json"
    path.write_text(json.dumps(end_doc))
    code, out, _ = invoke(["chi", "-i", str(path)])
    assert code == 0
    assert json.loads(out)["chi"] == "-5"


def test_stacky_degree_and_index(chi_path, ed_path):
    code, out, _ = invoke(["stacky-degree", "-i", chi_path])
    assert code == 0 and json.loads(out) == {"stacky_degree": "5/3"}
    code, out, _ = invoke(["index", "-i", ed_path])
    assert code == 0 and json.loads(out) == {"h": 12}


def test_flag_dim(chi_path):
    code, out, _ = invoke(["flag-dim", "-i", chi_path])
    assert code == 0
    assert json.loads(out) == {"per_point": [1], "flag_total": 1}


def test_nil_dim_defaults_to_single_piece(chi_path):
    code, out, _ = invoke(["nil-dim", "-i", chi_path])
    assert code == 0
    assert json.loads(out) == {"nil_dimension": 5}


def test_nil_dim_with_pieces(tmp_path):
    doc = dict(CHI_DOC)
    doc["pieces"] = [
        {"rank": 1, "weights_per_point": [[1, 1, 0, 0]]},
        {"rank": 1, "weights_per_point": [[1, 0, 0, 0]]},
    ]
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(["nil-dim", "-i", str(path)])
    assert code == 0
    # (g-1)(1+1) + flag dims of rank-one data (all zero)
    assert json.loads(out) == {"nil_dimension": 2}


def test_trdeg_bound_modes(chi_path):
    code, out, _ = invoke(["trdeg-bound", "-i", chi_path])
    assert code == 0
    assert json.loads(out) == {"trdeg_bound": 6, "mode": "indecomposable"}
    code, out, _ = invoke(["trdeg-bound", "-i", chi_path, "--nonsimple"])
    assert code == 0
    assert json.loads(out) == {"trdeg_bound": 5, "mode": "nonsimple"}


def test_gerbe_ed_commands():
    code, out, _ = invoke(["gerbe-ed", "12"])
    assert code == 0 and json.loads(out) == {"n": 12, "ed_upper": 5}
    code, out, _ = invoke(["gerbe-ed-p", "12", "--prime", "2"])
    assert code == 0 and json.loads(out) == {"n": 12, "prime": 2, "ed_p": 3}
    code, _, err = invoke(["gerbe-ed-p", "12", "--prime", "6"])
    assert code == 2 and "prime" in err


def test_verify_small_passes():
    code, out, _ = invoke(["verify", "--e-max", "4", "--random", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [r["name"] for r in payload["reports"]][0] == "cyclotomic-identities"
    assert all(r["pass"] for r in payload["reports"])


def test_verify_failure_exits_3(monkeypatch):
    broken = VerificationReport("demo", "n/a")
    broken.check("bad", 1, 2)
    monkeypatch.setattr(cli, "run_all", lambda **kw: [broken])
    code, out, _ = invoke(["verify"])
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_text_format_flag_and_env(chi_path, monkeypatch):
    code, out, _ = invoke(["chi", "-i", chi_path, "--format", "text"])
    assert code == 0
    assert "chi: -1" in out
    # --format is the one setting: the environment does not override it
    code, json_out, _ = invoke(["chi", "-i", chi_path])
    monkeypatch.setenv("PARAB_FORMAT", "text")
    code2, out2, _ = invoke(["chi", "-i", chi_path])
    assert code == code2 == 0 and out2 == json_out
    assert json.loads(out2)["chi"] == "-1"


def test_input_error_paths(tmp_path, chi_path):
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
    doc = json.loads(json.dumps(CHI_DOC))
    doc["curve"]["points"][0]["weights"] = [2, 3, 0]
    weights.write_text(json.dumps(doc))
    code, _, err = invoke(["chi", "-i", str(weights)])
    assert code == 2 and "nonincreasing" in err


def test_hypothesis_violation_exits_1(tmp_path):
    doc = json.loads(json.dumps(CHI_DOC))
    doc["curve"]["genus"] = 1
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(doc))
    code, _, err = invoke(["ed-bound", "-i", str(path)])
    assert code == 1 and "genus" in err
    code, _, _ = invoke(["trdeg-bound", "-i", str(path), "--nonsimple"])
    assert code == 1
    # chi itself stays unguarded at low genus
    code, _, _ = invoke(["chi", "-i", str(path)])
    assert code == 0


def test_internal_error_exits_4_without_traceback(chi_path, monkeypatch):
    def broken(bundle):
        raise InternalInconsistencyError("endomorphism bundle degree 1/3 is not an integer")

    monkeypatch.setattr(cli, "end_bundle", broken)
    code, out, err = invoke(["hom-datum", "-i", chi_path])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == ("error: internal: InternalInconsistencyError: "
                   "endomorphism bundle degree 1/3 is not an integer\n")


def test_stdin_input(chi_path, monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CHI_DOC)))
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
    doc = json.loads(json.dumps(CHI_DOC))
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
    doc = json.loads(json.dumps(CHI_DOC))
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
    doc = dict(CHI_DOC, pieces=[{"rank": 2, "weights_per_point": weights_per_point}])
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
    path.write_text(json.dumps(CHI_DOC).replace('"rank": 2', f'"rank": 1{"0" * (digits - 1)}'))
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
    path.write_text(json.dumps(dict(CHI_DOC, pieces=[])))
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
# stdout of every command on the README's example document, recorded before
# the command table replaced the per-command dispatch
README_OUTPUTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_readme_example.json").read_text()
)


@pytest.mark.parametrize("command", sorted(README_OUTPUTS))
def test_every_command_on_the_readme_example(tmp_path, command):
    text = README.read_text()
    start = text.index("```json\n") + len("```json\n")
    path = tmp_path / "bundle.json"
    path.write_text(text[start:text.index("```", start)])
    case = README_OUTPUTS[command]
    argv = [str(path) if arg == "{doc}" else arg for arg in case["argv"]]
    for fmt in ("json", "text"):
        assert invoke([*argv, "--format", fmt]) == (case["code"], case[fmt], "")


# (argv, golden stdout), each recorded before a change to the route it pins:
# default, before the ED reports shared one path; e40, before the inertia totals
# moved to split primes; e60 (the README example), before the root-of-unity sums
# did; e150, before their rows shared one packed reduction; text, before both
# reports shared one split-prime pass; seed7 (8,000 draws through the random
# sweeps), before each sweep kept one report.  CI compares the installed
# console script with every one too.
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


def _loaded_after(statement, module):
    # runs the statement in a fresh interpreter, importing this checkout's package
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = f"import sys, parabolic.cli; {statement}; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1] == "True"


def test_importing_the_cli_leaves_bigprime_unloaded():
    # document commands pay for every module the CLI imports at start-up
    assert not _loaded_after("pass", "parabolic.bigprime")


def test_verify_leaves_bigprime_unloaded():
    # every split prime for e <= 101 is below 1024^2, so trial division decides it;
    # from e = 102 on, q > e^3 passes 2^20 and Miller-Rabin runs
    assert not _loaded_after(
        "import io; out = io.StringIO(); "
        "assert parabolic.cli.run(['verify'], out, out) == 0; "
        "assert parabolic.cli.run(['verify', '--e-max', '40', '--random', '0'], out, out) == 0; "
        "assert parabolic.cli.run(['verify', '--e-max', '101', '--random', '0'], out, out) == 0",
        "parabolic.bigprime",
    )


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_chi_and_verify_leave_the_start_up_import_set(module):
    # dataclasses with inspect, ast, dis and tokenize cost about 15 ms of every process
    doc = json.dumps(CHI_DOC)
    assert not _loaded_after(
        "import io; out = io.StringIO(); "
        f"sys.stdin = io.StringIO({doc!r}); "
        "assert parabolic.cli.run(['chi', '-i', '-'], out, out) == 0; "
        "assert parabolic.cli.run(['verify'], out, out) == 0",
        module,
    )


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
