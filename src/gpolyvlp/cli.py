"""Command line front end: problem files in, JSON results out.

A problem file is a single JSON object:

    {
      "version": "1",
      "M": [["1", "0"], ["0", "1"]],
      "D": {"dim": 2, "eq": [[], []], "ineq": [[["-1", "-1"], ["1", "0"], ["0", "1"]],
                                               ["-1", "1", "1"]]},
      "K": {"dim": 2, "normals": [["-1", "0"], ["0", "-1"]]}
    }

All numerics are exact rational strings "p" or "p/q" and results are printed
in the same format, so rewriting any output reproduces it bit for bit.
Errors are reported on stderr with a JSON path when they come from the
problem file.  Exit codes are chosen by error type: 0 success, 2 input
errors (parse, dimension, an infeasible or inefficient point, an empty
polyhedron), 3 internal failures (violated invariants and any other
ValueError raised after parsing), 4 a face search past its cap.  solve
caps the rays that the double description of the weight polyhedron holds
at any step, not the faces of D, at GPOLY_MAX_FACES (default 4096), the
name kept from when it counted D's faces.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .cone import ConeH
from .exact import Matrix, Vector, format_rational, parse_rational
from .polyhedron import (
    EmptyPolyhedronError,
    FaceLimitError,
    HRep,
    InternalInvariantError,
)
from .vlp import (
    InfeasiblePointError,
    NotEfficientError,
    SetKind,
    VLPProblem,
    connect,
    efficient_set,
    is_weakly_efficient,
    scalarize_witness,
    weakly_efficient_set,
)

__all__ = ["main"]

PROBLEM_VERSION = "1"
DEFAULT_MAX_FACES = 4096
# options that take a point, whose first coordinate may be negative
POINT_OPTIONS = ("--point", "--from", "--to")


class CLIError(Exception):
    """A user-facing input error; rendered on stderr with exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer literal
        # longer than Python's digit limit for int conversion
        raise CLIError(f"{path}: invalid JSON: {exc}") from exc


def _parse_objective(raw) -> Matrix:
    if not isinstance(raw, list) or not raw:
        raise CLIError("$.M: must be a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise CLIError(f"$.M[{i}]: must be a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CLIError(f"$.M[{i}]: row width differs from $.M[0]")
        out = []
        for j, v in enumerate(row):
            try:
                out.append(parse_rational(v))
            except (ValueError, TypeError) as exc:
                raise CLIError(f"$.M[{i}][{j}]: {exc}") from exc
        rows.append(out)
    return Matrix.of(rows, cols=width)


def load_problem(path: str) -> VLPProblem:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise CLIError("$: problem file must be a JSON object")
    version = raw.get("version")
    if version is None:
        raise CLIError("$.version: required field is missing")
    if version != PROBLEM_VERSION:
        raise CLIError(f"$.version: unsupported format version {version!r}")
    for key in ("M", "D", "K"):
        if key not in raw:
            raise CLIError(f"$.{key}: required field is missing")
    M = _parse_objective(raw["M"])
    try:
        D = HRep.from_json_obj(raw["D"])
    except ValueError as exc:
        raise CLIError(f"$.D: {exc}") from exc
    try:
        K = ConeH.from_json_obj(raw["K"])
    except ValueError as exc:
        raise CLIError(f"$.K: {exc}") from exc
    try:
        return VLPProblem(M, D, K)
    except ValueError as exc:
        raise CLIError(f"$: {exc}") from exc


def _parse_point(text: str, dim: int, what: str) -> Vector:
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    parts = [p.strip() for p in stripped.split(",")] if stripped else []
    if not parts or any(not p for p in parts):
        raise CLIError(f"{what}: expected comma-separated rationals, got {text!r}")
    coords = []
    for p in parts:
        try:
            coords.append(parse_rational(p))
        except ValueError as exc:
            raise CLIError(f"{what}: {exc}") from exc
    if len(coords) != dim:
        raise CLIError(f"{what}: expected {dim} coordinates, got {len(coords)}")
    return Vector(tuple(coords))


def _vec(v: Vector) -> list:
    return [format_rational(c) for c in v]


def _vecs(vs) -> list:
    return [_vec(v) for v in vs]


def _max_faces() -> int:
    raw = os.environ.get("GPOLY_MAX_FACES", "")
    if not raw:
        return DEFAULT_MAX_FACES
    # ASCII digits only: int() would also take signs, spaces, underscores
    # and non-ASCII digits
    if not re.fullmatch("[0-9]+", raw):
        raise CLIError(f"GPOLY_MAX_FACES: not an integer: {raw!r}")
    try:
        cap = int(raw)
    except ValueError as exc:  # more digits than int conversion allows
        raise CLIError(f"GPOLY_MAX_FACES: {exc}") from exc
    if cap < 1:
        raise CLIError("GPOLY_MAX_FACES: must be positive")
    return cap


def _emit(obj: dict, out_path) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    P = load_problem(args.problem)
    cap = _max_faces()
    if args.kind == "weak":
        result = weakly_efficient_set(P, max_faces=cap)
    else:
        result = efficient_set(P, max_faces=cap)
    _emit(
        {
            "kind": "weak" if result.kind is SetKind.WEAKLY_EFFICIENT else "efficient",
            "subspace_cone": result.subspace_cone,
            "empty_interior": result.empty_interior,
            "faces": [
                {"active_ineq": list(f.active_ineq), "vrep": f.geometry.to_json_obj()}
                for f in result.faces
            ],
        },
        args.out,
    )
    return 0


def cmd_test(args) -> int:
    P = load_problem(args.problem)
    u = _parse_point(args.point, P.feasible_set.dim, "point")
    if args.kind == "weak":
        _emit({"weak": is_weakly_efficient(P, u)}, args.out)
        return 0
    # a verified witness certifies efficiency by itself; only a point with
    # no witness runs the slack program, which confirms that it is dominated
    try:
        obj = {"efficient": True, "witness": _vec(scalarize_witness(P, u))}
    except NotEfficientError:
        obj = {"efficient": False}
    _emit(obj, args.out)
    return 0


def cmd_connect(args) -> int:
    P = load_problem(args.problem)
    dim = P.feasible_set.dim
    u = _parse_point(args.start, dim, "from")
    v = _parse_point(args.end, dim, "to")
    cert = connect(P, u, v, weak=args.weak)
    _emit(
        {
            "points": _vecs(cert.points),
            "weights": _vecs(cert.weights),
            "breakpoints": [format_rational(t) for t in cert.breakpoints],
        },
        args.out,
    )
    return 0


def cmd_cone(args) -> int:
    P = load_problem(args.problem)
    dec = P.decomposition
    if args.op == "dual":
        obj = {"generators": _vecs(dec.dual_generators)}
    elif args.op == "lineality":
        obj = {"basis": _vecs(P.cone.lineality_basis())}
    elif args.op == "decompose":
        obj = {
            "y0_basis": _vecs(dec.y0_basis),
            "y1_basis": _vecs(dec.y1_basis),
            "k1_rays": _vecs(dec.k1_rays),
            "dual_generators": _vecs(dec.dual_generators),
            "subspace": dec.is_subspace,
        }
    else:  # ri-test
        if args.point is None:
            raise CLIError("ri-test: --point is required")
        y = _parse_point(args.point, P.cone.dim, "point")
        obj = {"contains": dec.ri_dual_contains(y)}
    _emit(obj, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpoly-vlp",
        description="Exact efficient sets for linear vector optimization over"
        " polyhedral ordering cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="path to a problem JSON file")
        p.add_argument("--out", help="write the result JSON here instead of stdout")

    p = sub.add_parser("solve", help="compute the (weakly) efficient set")
    common(p)
    p.add_argument("--kind", choices=["efficient", "weak"], default="efficient")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("test", help="test one feasible point for efficiency")
    common(p)
    p.add_argument("--point", required=True, help='e.g. "1/2,1/2" or "-1,2"')
    p.add_argument("--kind", choices=["efficient", "weak"], default="efficient")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("connect", help="path certificate between efficient points")
    common(p)
    p.add_argument("--from", dest="start", required=True, help='first endpoint, e.g. "-1,2"')
    p.add_argument("--to", dest="end", required=True, help="second endpoint")
    p.add_argument("--weak", action="store_true", help="connect inside the weakly efficient set")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("cone", help="inspect the ordering cone")
    common(p)
    p.add_argument("op", choices=["dual", "lineality", "decompose", "ri-test"])
    p.add_argument("--point", help='query vector for ri-test, e.g. "-1,2"')
    p.set_defaults(func=cmd_cone)
    return parser


def _attach_point_values(argv: list) -> list:
    """argv with every point option whose value starts with a minus sign
    and a digit joined to that value as one --opt=value token.  argparse
    reads a separate "-1,2" as an option, not as the value of --point;
    attached, it is the value.  Every other token stays as it is, so a
    point option with no value still fails to parse."""
    out = []
    for token in argv:
        if out and out[-1] in POINT_OPTIONS and re.match("-[0-9]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_point_values(argv))
    try:
        return args.func(args)
    except (
        CLIError,
        InfeasiblePointError,
        NotEfficientError,
        EmptyPolyhedronError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FaceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InternalInvariantError, ValueError) as exc:
        # a ValueError that is none of the input errors above was raised by
        # a kernel after parsing, so it is an internal failure too
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
