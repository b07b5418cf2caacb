"""Command-line interface: JSON bundle documents in, exact invariants out.

Input documents describe an orbifold curve and a bundle on it::

    {
      "curve": {"genus": 2,
                "points": [{"degree": 1, "ramification": 3,
                            "weights": [2, 1, 1, 0]}]},
      "bundle": {"rank": 2, "degree": 1},
      "pieces": [{"rank": 2, "weights_per_point": [[2, 1, 1, 0]]}]
    }

``pieces`` is optional and only consulted by ``nil-dim`` and
``trdeg-bound``; without it, both use the one piece carrying the bundle's
own weights.  Output is JSON by default (``--format text`` for a plain
table).  Exit codes: 0 success, 1 hypothesis violation, 2 input error
(unreadable input and unwritable output included, ``--help`` too), 3
verification failure, 4 internal error (a defect: one line on stderr, no
traceback; for ``verify``, any error raised after its arguments are
checked).  An error line that cannot be written is dropped, and the exit
code stands.  Rationals are emitted as exact "p/q" strings, never floats.

Each ``COMMANDS`` entry is (help, arguments, handler).  A handler returns the
payload to print; the exit code is 3 when its ``"pass"`` is false, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import json
import os
import sys

from . import oracle
from .bounds import (
    GradedPiece,
    ed_p_value,
    ed_upper_bound,
    gerbe_ed_p,
    gerbe_ed_upper,
    gerbe_index,
    nil_dimension,
    trdeg_bound_indecomposable,
    trdeg_bound_nonsimple,
)
from .core import (
    OrbifoldCurve,
    ParabolicBundle,
    ParabolicPoint,
    flag_dim,
    flag_total,
    validate_weights,
)
from .errors import HypothesisViolationError, InputError, InvalidArgumentError
from .exact_arith import is_prime
from .riemann_roch import end_bundle, end_euler_char, euler_char, stacky_degree

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

# caps on an input document (exit 2 beyond them); with 1000-digit integers every
# printed product stays below Python's 4300-digit int-to-str limit
MAX_DOCUMENT_CHARS = 1 << 20
MAX_INT_DIGITS = 1000
# verify prints seed + 1 .. seed + 3 into its reports, so they must stay printable
MAX_SEED_DIGITS = 4000
# bounds the length of every weight vector and of every per-point loop
MAX_RAMIFICATION_TOTAL = 1000
# hom-datum multiplies each unordered pair of nonzero jumps at each point once, at
# most e(e - 1)/2 products of numbers as long as the rank: at this cap on the sum
# of e^2 times the rank's digit count, one document takes at most about 0.07 s
# in-process (2-vCPU host)
_MAX_HOM_DATUM_WORK = 10**7


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in obj:
        raise InputError(f"{where} is missing the field '{key}'")
    return obj[key]


def _int_field(obj: Any, key: str, where: str) -> int:
    value = _require(obj, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _list_field(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where} must be a JSON list")
    return value


def _int_list(value: Any, where: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise InputError(f"{where} must be a list of integers")
    return value


def parse_document(obj: Any) -> tuple[ParabolicBundle, list[GradedPiece] | None]:
    """Validate an input document into a bundle and optional graded pieces."""
    curve_obj = _require(obj, "curve", "document")
    bundle_obj = _require(obj, "bundle", "document")
    genus = _int_field(curve_obj, "genus", "curve")
    points, ramification = [], 0
    for i, pt in enumerate(_list_field(curve_obj.get("points", []), "curve.points")):
        where = f"curve.points[{i}]"
        f = _int_field(pt, "degree", where)
        e = _int_field(pt, "ramification", where)
        # a negative index is refused below, in this same pass
        ramification += e
        if ramification > MAX_RAMIFICATION_TOTAL:
            raise InputError(
                f"the ramification indices sum to more than {MAX_RAMIFICATION_TOTAL}")
        weights = _int_list(_require(pt, "weights", where), f"{where}.weights")
        points.append(ParabolicPoint(f, e, validate_weights(weights)))
    rank = _int_field(bundle_obj, "rank", "bundle")
    degree = _int_field(bundle_obj, "degree", "bundle")
    bundle = ParabolicBundle(OrbifoldCurve(genus, tuple(points)), rank, degree)

    pieces = None
    if "pieces" in obj:
        pieces = []
        if not _list_field(obj["pieces"], "pieces"):
            raise InputError("pieces must list at least one graded piece")
        for i, pc in enumerate(obj["pieces"]):
            where = f"pieces[{i}]"
            prank = _int_field(pc, "rank", where)
            wpp = _require(pc, "weights_per_point", where)
            if not isinstance(wpp, list) or len(wpp) != len(points):
                raise InputError(
                    f"{where}.weights_per_point must list one weight vector "
                    f"per curve point ({len(points)} expected)"
                )
            ws = []
            for j, w in enumerate(wpp):
                _int_list(w, f"{where}.weights_per_point[{j}]")
                if len(w) != points[j].ramification + 1:
                    raise InputError(
                        f"{where}.weights_per_point[{j}] must have length "
                        f"{points[j].ramification + 1} to match the point's ramification"
                    )
                ws.append(validate_weights(w))
            pieces.append(GradedPiece(prank, tuple(ws)))
    return bundle, pieces


def document_json(bundle: ParabolicBundle) -> dict:
    """Serialize a bundle back into the input-document schema."""
    points = [{"degree": p.degree, "ramification": p.ramification,
               "weights": p.weights.to_json_obj()} for p in bundle.curve.points]
    return {"curve": {"genus": bundle.curve.genus, "points": points},
            "bundle": {"rank": bundle.rank, "degree": bundle.degree}}


def _bounded_int(literal: str) -> int:
    if len(literal.lstrip("-")) > MAX_INT_DIGITS:
        raise InputError(f"integer literal longer than {MAX_INT_DIGITS} digits")
    return int(literal)


def _load_document(path: str) -> Any:
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with descriptor 0 closed
                raise OSError(errno.EBADF, "standard input is closed")
            text = sys.stdin.read(MAX_DOCUMENT_CHARS + 1)
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read(MAX_DOCUMENT_CHARS + 1)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    if len(text) > MAX_DOCUMENT_CHARS:
        raise InputError(f"input is longer than {MAX_DOCUMENT_CHARS} characters")
    try:
        return json.loads(text, parse_int=_bounded_int)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError("JSON is nested too deeply") from exc


def _render_text(payload: dict | list, indent: str = "") -> list[str]:
    if isinstance(payload, dict):
        pairs = [(f"{key}:", value) for key, value in payload.items()]
    else:
        pairs = [("-", item) for item in payload]
    lines: list[str] = []
    for label, value in pairs:
        if isinstance(value, dict) and value or isinstance(value, list) and any(
                isinstance(v, (dict, list)) for v in value):
            lines.append(f"{indent}{label}")
            lines.extend(_render_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{label} {_flat(value)}")
    return lines


def _flat(value: Any) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write(stream: TextIO | None, text: str) -> OSError | None:
    """Write and flush text; returns the OSError that stopped it instead of raising it."""
    if not text:
        return None
    if stream is None:  # the process started with this descriptor closed
        return OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        if stream in (sys.__stdout__, sys.__stderr__):
            # the unwritten bytes stay buffered, and the interpreter's exit flush would fail
            # on them again: let the null device take them (the signal module's SIGPIPE note)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        return exc
    return None


def _prime_arg(value: int) -> int:
    if not is_prime(value):
        raise InputError(f"--prime must be a prime number, got {value}")
    return value


def _in_range(name: str, value: int, low: int, high: int | None = None) -> int:
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{name} must be <= {high}, got {value}")
    return value


def _bundle(args: argparse.Namespace) -> ParabolicBundle:
    return parse_document(_load_document(args.input))[0]


def _graded(args: argparse.Namespace) -> tuple[ParabolicBundle, list[GradedPiece]]:
    """The bundle and its pieces; by default one piece with the bundle's own weights."""
    bundle, pieces = parse_document(_load_document(args.input))
    if pieces is None:
        pieces = [GradedPiece(bundle.rank, tuple(p.weights for p in bundle.curve.points))]
    return bundle, pieces


def _flag_dim(args: argparse.Namespace) -> dict:
    bundle = _bundle(args)
    per_point = [flag_dim(p.weights) for p in bundle.curve.points]
    return {"per_point": per_point, "flag_total": flag_total(bundle)}


def _nil_dim(args: argparse.Namespace) -> dict:
    bundle, pieces = _graded(args)
    degrees = [p.degree for p in bundle.curve.points]
    return {"nil_dimension": nil_dimension(bundle.curve.genus, pieces, degrees)}


def _trdeg_bound(args: argparse.Namespace) -> dict:
    bundle, pieces = _graded(args)
    flags = flag_total(bundle)
    if args.nonsimple:
        value = trdeg_bound_nonsimple(bundle.curve.genus, bundle.rank, flags)
        return {"trdeg_bound": value, "mode": "nonsimple"}
    value = trdeg_bound_indecomposable(bundle.curve.genus, [pc.rank for pc in pieces], flags)
    return {"trdeg_bound": value, "mode": "indecomposable"}


def _hom_datum(args: argparse.Namespace) -> dict:
    bundle = _bundle(args)
    squares = sum(p.ramification**2 for p in bundle.curve.points)
    digits = len(str(bundle.rank))
    if squares * digits > _MAX_HOM_DATUM_WORK:
        raise InputError(f"hom-datum needs the squared ramification indices ({squares}) times "
                         f"the rank's digit count ({digits}) to be at most {_MAX_HOM_DATUM_WORK}")
    return document_json(end_bundle(bundle))


class _RunDefect(Exception):
    """Its cause was raised after verify's arguments passed: a defect (exit 4)."""


def _verify(args: argparse.Namespace) -> dict:
    # fixed ceilings bound the work: the cost grows as e_max^2, like the case count (~0.4 s at 150)
    e_max = _in_range("--e-max", args.e_max, 2, 150)
    count = _in_range("--random", args.random, 0, 100_000)
    _in_range("the digit count of --seed", len(str(abs(args.seed))), 1, MAX_SEED_DIGITS)
    try:
        reports = oracle.run_all(e_max=e_max, random_count=count, seed=args.seed)
    except Exception as exc:
        raise _RunDefect from exc
    return {"pass": all(r.passed for r in reports),
            "reports": [r.to_json_obj() for r in reports]}


# an argument is (*flags, add_argument options)
_INPUT = ("-i", "--input", {"required": True, "metavar": "FILE",
                            "help": "JSON document ('-' for stdin)"})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})
_PRIME = ("--prime", {"type": int, "required": True})
_N = ("n", {"type": int, "metavar": "N"})
_DOC = (_INPUT, _FORMAT)

# name -> (help, arguments in --help order, handler returning the payload)
COMMANDS: dict[str, tuple[str, tuple, Callable[[argparse.Namespace], dict]]] = {
    "chi": ("Euler characteristic report for the bundle", _DOC,
            lambda a: euler_char(_bundle(a)).to_json_obj()),
    "end-chi": ("Euler characteristic of the endomorphism bundle", _DOC,
                lambda a: {"end_chi": str(end_euler_char(_bundle(a)))}),
    "flag-dim": ("flag dimensions at each point and their weighted total", _DOC, _flag_dim),
    "hom-datum": ("document for the endomorphism bundle", _DOC, _hom_datum),
    "stacky-degree": ("degree measured on the orbifold", _DOC,
                      lambda a: {"stacky_degree": str(stacky_degree(_bundle(a)))}),
    "index": ("gerbe index h = gcd(rank, degree, interior weights)", _DOC,
              lambda a: {"h": gerbe_index(_bundle(a))}),
    "ed-bound": ("essential-dimension upper bound report", _DOC,
                 lambda a: ed_upper_bound(_bundle(a)).to_json_obj()),
    # the document is parsed before --prime is checked
    "ed-p": ("essential p-dimension report", (*_DOC, _PRIME),
             lambda a: ed_p_value(_bundle(a), _prime_arg(a.prime)).to_json_obj()),
    "nil-dim": ("dimension of the nilpotent-endomorphism stack", _DOC, _nil_dim),
    "trdeg-bound": (
        "transcendence-degree bound for the field of moduli",
        (*_DOC, ("--nonsimple", {"action": "store_true", "help":
                                 "use the bound for bundles with a non-scalar endomorphism"})),
        _trdeg_bound),
    "gerbe-ed": ("essential-dimension bound for a gerbe of index N", (_N, _FORMAT),
                 lambda a: {"n": a.n, "ed_upper": gerbe_ed_upper(_in_range("N", a.n, 1))}),
    "gerbe-ed-p": ("essential p-dimension for a gerbe of index N", (_N, _FORMAT, _PRIME),
                   lambda a: {"n": a.n, "prime": a.prime,
                              "ed_p": gerbe_ed_p(_in_range("N", a.n, 1), _prime_arg(a.prime))}),
    "verify": ("run every identity verification suite", (
        ("--e-max", {"type": int, "default": 12}),
        ("--random", {"type": int, "default": 100, "metavar": "N",
                      "help": "random cases per randomized suite"}),
        ("--seed", {"type": int, "default": 1}), _FORMAT), _verify),
}


# built once per process; argparse looks up sys.stdout/sys.stderr only when it prints
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic",
        description="Exact invariants of parabolic bundles on orbifold curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def run(argv: Sequence[str], stdout: TextIO | None = None,
        stderr: TextIO | None = None) -> int:
    """Run one CLI invocation and return its exit code.  The outcome (code, stdout
    text, stderr text) is settled first; then every byte goes through ``_write``."""
    buffers = io.StringIO(), io.StringIO()
    try:
        # argparse prints --help or a usage error to sys.stdout / sys.stderr, then exits 0 or 2
        with contextlib.redirect_stdout(buffers[0]), contextlib.redirect_stderr(buffers[1]):
            args = _build_parser().parse_args(list(argv))
        payload = COMMANDS[args.command][2](args)
        text = (json.dumps(payload, indent=2) if args.format == "json"
                else "\n".join(_render_text(payload)))
        code, out, err = EXIT_OK if payload.get("pass", True) else EXIT_VERIFY, text + "\n", ""
    except SystemExit as exc:
        code, out, err = EXIT_INPUT if exc.code else EXIT_OK, *(b.getvalue() for b in buffers)
    except (InputError, InvalidArgumentError) as exc:
        code, out, err = EXIT_INPUT, "", f"error: {exc}\n"
    except HypothesisViolationError as exc:
        code, out, err = EXIT_HYPOTHESIS, "", f"error: {exc}\n"
    except Exception as exc:  # a defect, such as an InternalInconsistencyError
        exc = exc.__cause__ if isinstance(exc, _RunDefect) else exc
        code, out, err = EXIT_INTERNAL, "", f"error: internal: {type(exc).__name__}: {exc}\n"
    if failure := _write(stdout if stdout is not None else sys.stdout, out):
        code, err = EXIT_INPUT, f"error: cannot write output: {failure}\n"
    _write(stderr if stderr is not None else sys.stderr, err)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
