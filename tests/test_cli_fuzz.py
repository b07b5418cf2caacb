"""Fuzz the CLI in-process: every input ends in a clean exit.

Documents are drawn as valid shapes, valid shapes with one field replaced or
dropped, arbitrary nested JSON, and raw text; argv adds --prime, --nonsimple
and --format extras, valid or not.  ``verify`` gets --e-max, --random and
--seed values in and out of range.  Whatever the input, no exception may
escape ``cli.run``, the exit code is 0, 1 or 2 (0 or 2 for ``verify``), and a
non-zero exit leaves no output and exactly one ``error:`` line on stderr.
"""

import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from parabolic import cli

DOC_COMMANDS = [name for name, (_help, arguments, _handler) in cli.COMMANDS.items()
                if arguments[0] is cli._INPUT]

# the longest integer literal a document may hold, one past 64 bits, and a
# number beyond the exact range of the primality test
LARGE = [10**999, 2**64, 10**30 + 57]
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6))
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8,
)


def _weights(draw, rank, e):
    inner = draw(st.lists(st.integers(0, rank), min_size=e - 1, max_size=e - 1))
    return [rank, *sorted(inner, reverse=True), 0]


@st.composite
def valid_documents(draw):
    rank = draw(st.integers(1, 6))
    points = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(1, 8))
        points.append({"degree": draw(st.integers(1, 3)), "ramification": e,
                       "weights": _weights(draw, rank, e)})
    doc = {"curve": {"genus": draw(st.integers(0, 6)), "points": points},
           "bundle": {"rank": rank, "degree": draw(st.integers(-12, 12))}}
    if draw(st.booleans()):
        doc["pieces"] = []
        for piece_rank in draw(st.lists(st.integers(1, rank), min_size=1, max_size=2)):
            doc["pieces"].append({"rank": piece_rank, "weights_per_point": [
                _weights(draw, piece_rank, p["ramification"]) for p in points]})
    return doc


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """A valid document with one field replaced by another value, or dropped."""
    doc = draw(valid_documents())
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(junk | st.integers(-2, 1200) | st.sampled_from(LARGE))
    return doc


documents = st.one_of(
    valid_documents().map(json.dumps),
    mutated_documents().map(json.dumps),
    junk.map(json.dumps),
    st.text(max_size=30),
)

# half the draws add nothing, so most documents reach the command itself
extras = st.just([]) | st.lists(st.one_of(
    st.tuples(st.just("--prime"), (st.integers(-3, 60) | st.sampled_from(LARGE)).map(str)
              | st.text(max_size=3)),
    st.just(("--nonsimple",)),
    st.tuples(st.just("--format"), st.sampled_from(["json", "text", "xml"])),
), min_size=1, max_size=3).map(lambda groups: [arg for group in groups for arg in group])


# verify's ranges, one past each ceiling, and literals too long for int(); every
# valid --e-max is at most 12 and every valid --random at most 5, so a run stays cheap
E_MAX = st.sampled_from([*map(str, range(-2, 13)), "151", "9" * 5000])
RANDOM = st.sampled_from([*map(str, range(-1, 6)), "100001"])
SEED = (st.integers() | st.sampled_from([10**3999, -(10**3999)])).map(str)
FORMAT = st.sampled_from([[], [], [], ["--format", "xml"]])


def _run_on_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_fuzz_covers_every_document_command():
    assert len(DOC_COMMANDS) == 10


@settings(max_examples=200, derandomize=True, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(DOC_COMMANDS), text=documents, extra=extras)
# a usage error once went to the real sys.stderr, leaving err empty
@example(command="chi", text="{}", extra=["--format", "xml"])
def test_document_commands_exit_cleanly(command, text, extra):
    code, out, err = _run_on_stdin([command, "-i", "-", *extra], text)
    event(f"exit {code}")
    _assert_clean(code, out, err, (0, 1, 2))


def _assert_clean(code, out, err, codes):
    assert code in codes
    if code:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        assert out and err == ""


@settings(max_examples=50, derandomize=True, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(e_max=E_MAX, count=RANDOM, seed=SEED, fmt=FORMAT)
def test_verify_argv_exits_cleanly(e_max, count, seed, fmt):
    argv = ["verify", "--e-max", e_max, "--random", count, "--seed", seed, *fmt]
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    event(f"exit {code}")
    _assert_clean(code, out.getvalue(), err.getvalue(), (0, 2))


@pytest.mark.parametrize("argv, code", [
    (["--seed", "9" * 5001], 2),  # past int()'s 4,300-digit limit: a usage error
    (["--e-max", "2", "--random", "0", "--seed", "9" * 4000], 0),
    (["--e-max", "2", "--random", "0", "--seed", "-" + "9" * 4000], 0),
    # within int()'s limit, but seed + 1 .. seed + 3 would not print: refused
    (["--e-max", "2", "--random", "0", "--seed", "9" * 4300], 2),
    (["--e-max", "2", "--random", "0", "--seed", "-" + "9" * 4300], 2),
])
def test_verify_seed_literals(argv, code):
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["verify", *argv], stdout=out, stderr=err) == code
    _assert_clean(code, out.getvalue(), err.getvalue(), (code,))
