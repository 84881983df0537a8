"""Command-line interface: JSON in, byte-stable JSON reports out.

Exit codes: 0 when the requested check or computation succeeds, 1 when a
mathematical failure is found (a violated relation, a failing certificate, a
vanishing minor block), 2 on malformed input or unmet preconditions, 3 when an
internal consistency check fails (a bug, never a verdict on the input).  Every
report carries the package version and the sha256 digest of its input (for
``fan``, of the canonical parameter encoding).  Reports are deterministic
unless ``--timing`` is given.
"""

import argparse
import sys
import time

from valperm import __version__, jsonio
from valperm.fans import (
    FAN_SIZES,
    enumerate_fan,
    f_vector_census,
    link_dot,
    link_homology,
    pattern_signature,
    refinement_census,
    sample_height,
)
from valperm.permutahedra import perm_str, subset_str
from valperm.subdivisions import (
    ValuatedFlagMatroid,
    check_two_skeleton,
    compress_on_vertices,
    decompose_height,
    lift_to_grassmannian,
    subdivide,
)
from valperm.valuated import (
    check_incidence,
    check_plucker,
    check_positive_incidence,
    check_positive_plucker,
    tropicalize_matrix,
)

CHECK_KINDS = ("plucker", "incidence", "positive", "flag")


def _violation_obj(location, violation):
    return {
        "location": location,
        "check": violation.kind,
        "subset": subset_str(violation.subset),
        "elems": list(violation.elems),
        "terms": [None if t is None else jsonio.frac_str(t) for t in violation.terms],
    }


def _wrap_precondition(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        raise jsonio.InputError(str(exc)) from None


def cmd_check(args, obj):
    comps = jsonio.components_from_obj(obj)
    kind = args.kind
    violations = []
    if kind == "flag":
        jsonio.flag_from_components(comps)  # structural validation only
    if kind in ("incidence", "flag") and len(comps) < 2:
        raise jsonio.InputError(f"check {kind} needs at least two components")
    if kind in ("plucker", "positive"):
        checker = check_plucker if kind == "plucker" else check_positive_plucker
        for k, vm in enumerate(comps):
            v = _wrap_precondition(checker, vm)
            if v is not None:
                violations.append(_violation_obj(f"component {k + 1}", v))
    if kind in ("incidence", "positive", "flag"):
        checker = check_positive_incidence if kind == "positive" else check_incidence
        for k in range(len(comps) - 1):
            v = _wrap_precondition(checker, comps[k], comps[k + 1])
            if v is not None:
                violations.append(_violation_obj(f"pair ({k + 1},{k + 2})", v))
    payload = {
        "kind": kind,
        "components": len(comps),
        "verdict": "pass" if not violations else "fail",
        "violations": violations,
    }
    return payload, 0 if not violations else 1


def cmd_compress(args, obj):
    comps = jsonio.components_from_obj(obj)
    flag = _wrap_precondition(ValuatedFlagMatroid, comps)
    heights = _wrap_precondition(compress_on_vertices, flag)
    payload = {"verdict": "pass"}
    payload.update(jsonio.heights_to_obj(heights))
    return payload, 0


def cmd_subdivide(args, obj):
    heights = jsonio.heights_from_obj(obj)
    cells = subdivide(heights)
    cell_objs = [
        {
            "vertices": [perm_str(v) for v in c.vertices],
            "generalized_permutahedron": c.is_generalized_permutahedron,
            "bruhat_interval": c.is_bruhat_interval,
            "bruhat_min": None if c.bruhat_min is None else perm_str(c.bruhat_min),
            "bruhat_max": None if c.bruhat_max is None else perm_str(c.bruhat_max),
        }
        for c in cells
    ]
    ok = all(c.is_generalized_permutahedron for c in cells)
    payload = {
        "n": heights.n,
        "verdict": "pass" if ok else "fail",
        "cells": cell_objs,
    }
    return payload, 0 if ok else 1


def cmd_skeleton(args, obj):
    heights = jsonio.heights_from_obj(obj)
    report = check_two_skeleton(heights)
    hexagons = []
    for hx in report.hexagons:
        diagonals = hx.face.diagonals()
        hexagons.append(
            {
                "vertices": [perm_str(v) for v in hx.face.vertices],
                "alternating_equal": hx.alternating_equal,
                "diagonal_max_twice": hx.diagonal_max_twice,
                "attaining": [k for k, d in enumerate(diagonals) if d in hx.attaining],
                "min_vertex": perm_str(hx.min_vertex),
                "min_diagonal_attains": hx.min_diagonal_attains,
            }
        )
    squares = [
        {
            "vertices": [perm_str(v) for v in sq.face.vertices],
            "opposite_equal": sq.opposite_equal,
        }
        for sq in report.squares
    ]
    payload = {
        "n": heights.n,
        "verdict": "pass" if report.passes_two_skeleton else "fail",
        "conditions": {
            "alternating_equal": report.passes_alternating,
            "diagonal_max_twice": report.passes_diagonal_max,
            "opposite_equal": report.passes_squares,
            "min_diagonal_attains": report.passes_min_diagonal,
            "two_skeleton": report.passes_two_skeleton,
            "positive": report.passes_positive,
        },
        "hexagons": hexagons,
        "squares": squares,
    }
    return payload, 0 if report.passes_two_skeleton else 1


def cmd_decompose(args, obj):
    heights = jsonio.heights_from_obj(obj)
    try:
        flag = decompose_height(heights)
    except ValueError as exc:
        return {"n": heights.n, "verdict": "fail", "reason": str(exc)}, 1
    payload = {"n": heights.n, "verdict": "pass", "flag": jsonio.flag_to_obj(flag)}
    return payload, 0


def cmd_lift(args, obj):
    comps = jsonio.components_from_obj(obj)
    flag = _wrap_precondition(ValuatedFlagMatroid, comps)
    lifted = _wrap_precondition(lift_to_grassmannian, flag)
    positive = check_positive_plucker(lifted) is None
    payload = {
        "verdict": "pass" if positive else "fail",
        "valuation": jsonio.vm_to_obj(lifted),
        "positive": positive,
    }
    return payload, 0 if positive else 1


def cmd_tropicalize(args, obj):
    matrix = jsonio.matrix_from_obj(obj)
    if args.rows is not None:
        if not 1 <= args.rows <= len(matrix):
            raise jsonio.InputError(f"--rows must be in 1..{len(matrix)}")
        matrix = matrix[: args.rows]
    if len(matrix) > len(matrix[0]):
        raise jsonio.InputError(
            f"need at most as many rows as columns, got {len(matrix)} x {len(matrix[0])}"
        )
    try:
        value_maps, sign_maps = tropicalize_matrix(matrix)
    except ValueError as exc:
        return {"verdict": "fail", "reason": str(exc)}, 1
    signs = []
    for d, smap in enumerate(sign_maps, start=1):
        signs.append(
            {
                "d": d,
                "signs": {
                    subset_str(m): ("+" if s > 0 else "-")
                    for m, s in sorted(smap.items())
                },
            }
        )
    payload = {
        "rows": len(matrix),
        "columns": len(matrix[0]),
        "verdict": "pass",
        "flag": jsonio.flag_to_obj(value_maps),
        "signs": signs,
    }
    return payload, 0


def cmd_fan(args, _obj):
    if args.n not in FAN_SIZES:
        raise jsonio.InputError(f"fan enumeration supports n in {FAN_SIZES}, got {args.n}")
    fan = enumerate_fan(args.n)
    payload = {
        "n": fan.n,
        "verdict": "pass",
        "ambient": fan.ambient,
        "lineality_dim": fan.lineality_dim,
        "lineality": [list(v) for v in fan.lineality],
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(r) for r in fan.maximal_rays],
        "two_faces": [list(p) for p in fan.two_faces],
        "maximal_two_faces": [list(f) for f in fan.maximal_two_faces],
        "link_dot": link_dot(fan),
    }
    code = 0
    if args.census:
        census = f_vector_census(fan)
        payload["census"] = {
            "f_vector": list(census.f_vector),
            "ray_counts": {str(k): census.ray_counts[k] for k in sorted(census.ray_counts)},
            "lineality_dim": census.lineality_dim,
        }
    if args.homology:
        report = _wrap_precondition(link_homology, fan)
        payload["homology"] = {"betti": list(report.betti), "euler": report.euler}
    if args.refinement:
        report = refinement_census(fan)
        payload["refinement"] = {
            "total": report.total,
            "per_cone": list(report.per_cone),
            "discrepancies": [list(d) for d in report.discrepancies],
        }
        if report.discrepancies:
            payload["verdict"] = "fail"
            code = 1
    if args.patterns:
        payload["patterns"] = [
            [
                [list(attaining), split]
                for attaining, split in pattern_signature(sample_height(fan, k))
            ]
            for k in range(len(fan.maximal))
        ]
    return payload, code


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json",), default="json")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte determinism)")

    parser = argparse.ArgumentParser(
        prog="valperm",
        description="Exact checks and computations for valuated flag matroids "
        "and permutahedral subdivisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="three-term, incidence, positivity or flag checks")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("file")

    for name, helptext in (
        ("compress", "heights of a valuated flag on the permutohedron vertices"),
        ("subdivide", "cells of the permutahedral subdivision of a height function"),
        ("skeleton", "2-face conditions of a height function"),
        ("decompose", "valuated flag underlying a passing height function"),
        ("lift", "single valuated matroid lift of a complete flag"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("file")

    p = sub.add_parser("tropicalize", parents=[common],
                       help="valuated flag of a matrix over Puiseux series")
    p.add_argument("file")
    p.add_argument("--rows", type=int, default=None, help="use only the leading rows")

    p = sub.add_parser("fan", parents=[common],
                       help="the fan of permutahedral height functions")
    p.add_argument("n", type=int)
    p.add_argument("--census", action="store_true")
    p.add_argument("--homology", action="store_true")
    p.add_argument("--refinement", action="store_true")
    p.add_argument("--patterns", action="store_true")
    return parser


_HANDLERS = {
    "check": cmd_check,
    "compress": cmd_compress,
    "subdivide": cmd_subdivide,
    "skeleton": cmd_skeleton,
    "decompose": cmd_decompose,
    "lift": cmd_lift,
    "tropicalize": cmd_tropicalize,
    "fan": cmd_fan,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "fan":
            request = {"command": "fan", "n": args.n, "census": args.census,
                       "homology": args.homology, "refinement": args.refinement,
                       "patterns": args.patterns}
            digest = jsonio.sha256_hex(jsonio.dumps(request).encode("utf-8"))
            obj = None
        else:
            obj, digest = jsonio.load_path(args.file)
        payload, code = _HANDLERS[args.command](args, obj)
    except (jsonio.InputError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"valperm: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"valperm: internal error: {exc}", file=sys.stderr)
        return 3
    report = {"version": __version__, "command": args.command, "input_sha256": digest}
    report.update(payload)
    if args.timing:
        report["timing"] = {"seconds": round(time.monotonic() - started, 3)}
    text = jsonio.dumps(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"valperm: error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
