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
``trdeg-bound``.  Output is JSON by default (``--format text`` for a plain
table; the PARAB_FORMAT environment variable overrides the flag).  Exit
codes: 0 success, 1 hypothesis violation, 2 input error, 3 verification
failure.  Rationals are emitted as exact "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence, TextIO

from .bounds import (
    GradedPiece,
    ed_p_value,
    ed_upper_bound,
    flag_total,
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
    validate_weights,
)
from .errors import HypothesisViolationError, InputError, InvalidArgumentError
from .exact_arith import is_prime, rational_str
from .oracle import run_all
from .riemann_roch import end_bundle, end_euler_char, euler_char, stacky_degree

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


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
    points = []
    for i, pt in enumerate(_list_field(curve_obj.get("points", []), "curve.points")):
        where = f"curve.points[{i}]"
        f = _int_field(pt, "degree", where)
        e = _int_field(pt, "ramification", where)
        weights = _int_list(_require(pt, "weights", where), f"{where}.weights")
        points.append(ParabolicPoint(f, e, validate_weights(weights)))
    rank = _int_field(bundle_obj, "rank", "bundle")
    degree = _int_field(bundle_obj, "degree", "bundle")
    bundle = ParabolicBundle(OrbifoldCurve(genus, tuple(points)), rank, degree)

    pieces = None
    if "pieces" in obj:
        pieces = []
        for i, pc in enumerate(_list_field(obj["pieces"], "pieces")):
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
    return {
        "curve": {
            "genus": bundle.curve.genus,
            "points": [
                {
                    "degree": p.degree,
                    "ramification": p.ramification,
                    "weights": p.weights.to_json_obj(),
                }
                for p in bundle.curve.points
            ],
        },
        "bundle": {"rank": bundle.rank, "degree": bundle.degree},
    }


def _load_document(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _render_text(payload: Any, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_flat(value)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append(f"{indent}-")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_flat(item)}")
    else:
        lines.append(f"{indent}{_flat(payload)}")
    return lines


def _is_flat(value: Any) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value: Any) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(payload: Any, fmt: str, stdout: TextIO) -> None:
    if fmt == "json":
        stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        stdout.write("\n".join(_render_text(payload)) + "\n")


def _prime_arg(value: int) -> int:
    if not is_prime(value):
        raise InputError(f"--prime must be a prime number, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic",
        description="Exact invariants of parabolic bundles on orbifold curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def doc_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-i", "--input", required=True, metavar="FILE",
                       help="JSON document ('-' for stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    doc_command("chi", "Euler characteristic report for the bundle")
    doc_command("end-chi", "Euler characteristic of the endomorphism bundle")
    doc_command("flag-dim", "flag dimensions at each point and their weighted total")
    doc_command("hom-datum", "document for the endomorphism bundle")
    doc_command("stacky-degree", "degree measured on the orbifold")
    doc_command("index", "gerbe index h = gcd(rank, degree, interior weights)")
    doc_command("ed-bound", "essential-dimension upper bound report")
    p = doc_command("ed-p", "essential p-dimension report")
    p.add_argument("--prime", type=int, required=True)
    doc_command("nil-dim", "dimension of the nilpotent-endomorphism stack")
    p = doc_command("trdeg-bound", "transcendence-degree bound for the field of moduli")
    p.add_argument("--nonsimple", action="store_true",
                   help="use the bound for bundles with a non-scalar endomorphism")

    for name, help_text in (
        ("gerbe-ed", "essential-dimension bound for a gerbe of index N"),
        ("gerbe-ed-p", "essential p-dimension for a gerbe of index N"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int, metavar="N")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "gerbe-ed-p":
            p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("verify", help="run every identity verification suite")
    p.add_argument("--e-max", type=int, default=12)
    p.add_argument("--random", type=int, default=100, metavar="N",
                   help="random cases per randomized suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _dispatch(args: argparse.Namespace) -> tuple[Any, int]:
    command = args.command

    if command == "verify":
        if args.e_max < 2:
            raise InputError(f"--e-max must be >= 2, got {args.e_max}")
        if args.random < 0:
            raise InputError(f"--random must be >= 0, got {args.random}")
        reports = run_all(e_max=args.e_max, random_count=args.random, seed=args.seed)
        ok = all(r.passed for r in reports)
        payload = {"pass": ok, "reports": [r.to_json_obj() for r in reports]}
        return payload, EXIT_OK if ok else EXIT_VERIFY

    if command == "gerbe-ed":
        if args.n < 1:
            raise InputError(f"N must be >= 1, got {args.n}")
        return {"n": args.n, "ed_upper": gerbe_ed_upper(args.n)}, EXIT_OK

    if command == "gerbe-ed-p":
        if args.n < 1:
            raise InputError(f"N must be >= 1, got {args.n}")
        p = _prime_arg(args.prime)
        return {"n": args.n, "prime": p, "ed_p": gerbe_ed_p(args.n, p)}, EXIT_OK

    bundle, pieces = parse_document(_load_document(args.input))
    curve = bundle.curve

    if command == "chi":
        return euler_char(bundle).to_json_obj(), EXIT_OK

    if command == "end-chi":
        return {"end_chi": rational_str(end_euler_char(bundle))}, EXIT_OK

    if command == "flag-dim":
        per_point = [flag_dim(p.weights) for p in curve.points]
        return {"per_point": per_point, "flag_total": flag_total(bundle)}, EXIT_OK

    if command == "hom-datum":
        return document_json(end_bundle(bundle)), EXIT_OK

    if command == "stacky-degree":
        return {"stacky_degree": rational_str(stacky_degree(bundle))}, EXIT_OK

    if command == "index":
        return {"h": gerbe_index(bundle)}, EXIT_OK

    if command == "ed-bound":
        return ed_upper_bound(bundle).to_json_obj(), EXIT_OK

    if command == "ed-p":
        return ed_p_value(bundle, _prime_arg(args.prime)).to_json_obj(), EXIT_OK

    if command == "nil-dim":
        if pieces is None:
            # default: a single piece carrying the bundle's own data
            pieces = [GradedPiece(bundle.rank, tuple(p.weights for p in curve.points))]
        value = nil_dimension(curve.genus, pieces, [p.degree for p in curve.points])
        return {"nil_dimension": value}, EXIT_OK

    if command == "trdeg-bound":
        flags = flag_total(bundle)
        if args.nonsimple:
            value = trdeg_bound_nonsimple(curve.genus, bundle.rank, flags)
            return {"trdeg_bound": value, "mode": "nonsimple"}, EXIT_OK
        ranks = [pc.rank for pc in pieces] if pieces else [bundle.rank]
        value = trdeg_bound_indecomposable(curve.genus, ranks, flags)
        return {"trdeg_bound": value, "mode": "indecomposable"}, EXIT_OK

    raise InputError(f"unknown command {command!r}")


def run(argv: Sequence[str], stdout: TextIO | None = None,
        stderr: TextIO | None = None) -> int:
    """Run one CLI invocation; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse reports usage errors itself and exits with 2
        return EXIT_INPUT if exc.code else EXIT_OK

    fmt = getattr(args, "format", "json")
    env_fmt = os.environ.get("PARAB_FORMAT")
    if env_fmt is not None:
        if env_fmt not in ("json", "text"):
            stderr.write(f"error: PARAB_FORMAT must be 'json' or 'text', got {env_fmt!r}\n")
            return EXIT_INPUT
        fmt = env_fmt

    try:
        payload, code = _dispatch(args)
    except (InputError, InvalidArgumentError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except HypothesisViolationError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_HYPOTHESIS
    _emit(payload, fmt, stdout)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
