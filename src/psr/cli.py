"""Command-line front end.

Exit codes: 0 for success or a true predicate, 1 for a false predicate
(with a JSON witness on stdout), 2 for malformed input.  All diagnostics
go to stderr; stdout carries exactly one JSON document.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import jsonio
from .discriminants import (
    build_polyhedralised_discriminant,
    find_high_multiplicity_cone_root,
    is_discriminant_root,
)
from .errors import NonGeneric, PsrError
from .globalglue import (
    classify_quadratic_local,
    classify_reduced_cubic_local,
    glue_global,
    minkowski_summand_certificate,
    shephard_weak_summand,
)
from .jsonio import ParseError
from .linalg import as_vec
from .localfan import build_local_fan, enumerate_lcs
from .metric import hausdorff_angle_distance
from .polyhedra import Polyhedron
from .polynomials import (
    PolyPolynomial,
    coefficient_msum,
    evaluate,
    is_generic,
    is_root,
    tropical_roots,
    tropicalize,
)
from .vcc import enumerate_mw_minimal_local_solutions


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj) + "\n")


def _vec_key(v) -> str:
    return ",".join(jsonio.frac_to_str(x) for x in v)


def _witness_json(witness) -> dict:
    return {_vec_key(v): list(ix) for v, ix in sorted(witness.items())}


def _load_poly(path: str) -> PolyPolynomial:
    phi = jsonio.polynomial_from_json(jsonio.load_file(path))
    if not isinstance(phi, PolyPolynomial):
        raise ParseError("this command needs a univariate polynomial")
    return phi


def _load_polyhedron(path: str, dim: int | None = None) -> Polyhedron:
    """The polyhedron in a JSON file; in R^dim when `dim` is given."""
    p = jsonio.polyhedron_from_json(jsonio.load_file(path))
    if dim is not None and p.dim_ambient != dim:
        raise ParseError(f"{path} holds a polyhedron in R^{p.dim_ambient}, not in R^{dim}")
    return p


def _vertex_of_m(phi: PolyPolynomial, index: int):
    verts = sorted(coefficient_msum(phi).value.vertices)
    if not 0 <= index < len(verts):
        raise ParseError(
            f"vertex index {index} out of range; the coefficient sum has {len(verts)} vertices"
        )
    return verts[index]


def _parse_vec_arg(s: str):
    return as_vec(Fraction(t) for t in s.split(","))


# -- subcommand bodies -------------------------------------------------------


def _cmd_eval(args) -> int:
    phi = _load_poly(args.poly)
    total, _ = evaluate(phi, _load_polyhedron(args.at, phi.dim_ambient))
    _emit(jsonio.polyhedron_to_json(total))
    return 0


def _cmd_root(args) -> int:
    phi = _load_poly(args.poly)
    ok, witness = is_root(phi, _load_polyhedron(args.at, phi.dim_ambient))
    _emit({"root": ok, "witness": _witness_json(witness)})
    return 0 if ok else 1


def _cmd_generic(args) -> int:
    phi = _load_poly(args.poly)
    ok, witness = is_generic(phi)
    if ok:
        _emit({"generic": True})
        return 0
    v, p1, p2 = witness
    _emit({"generic": False,
           "witness": {"vertex": jsonio.vec_to_json(v),
                       "pairs": [list(p1), list(p2)]}})
    return 1


def _cmd_fan(args) -> int:
    phi = _load_poly(args.poly)
    fan = build_local_fan(phi, _vertex_of_m(phi, args.vertex))
    _emit({
        "vertex": jsonio.vec_to_json(fan.vertex),
        "rho": {f"{i},{j}": jsonio.vec_to_json(r) for (i, j), r in sorted(fan.rho.items())},
        "cells": [
            {
                "cone": jsonio.cone_to_json(cell.cone),
                "primary": [list(p) for p in sorted(cell.primary)],
                "secondary": [list(s) for s in sorted(cell.secondary)],
            }
            for cell in fan.cells
        ],
    })
    return 0


def _cmd_lcs(args) -> int:
    phi = _load_poly(args.poly)
    fan = build_local_fan(phi, _vertex_of_m(phi, args.vertex))
    try:
        found = enumerate_lcs(fan, cap_cells=args.cap_cells)
    except NonGeneric as exc:
        _emit({"error": "non-generic", "detail": str(exc)})
        return 1
    _emit({"lcs": [jsonio.lcs_to_json(args.vertex, l) for l in found]})
    return 0


def _cmd_solve_local(args) -> int:
    phi = _load_poly(args.poly)
    try:
        sols = enumerate_mw_minimal_local_solutions(
            phi, _vertex_of_m(phi, args.vertex), cap_cells=args.cap_cells)
    except NonGeneric as exc:
        _emit({"error": "non-generic", "detail": str(exc)})
        return 1
    _emit({"solutions": [jsonio.polyhedron_to_json(s) for s in sols]})
    return 0


def _cmd_glue(args) -> int:
    phi = _load_poly(args.poly)
    locals_map = jsonio.locals_from_json(jsonio.load_file(args.locals))
    result = glue_global(phi, locals_map)
    if isinstance(result, Polyhedron):
        _emit(jsonio.polyhedron_to_json(result))
        return 0
    v, gamma = result
    _emit({"vertex": jsonio.vec_to_json(v), "gamma": jsonio.vec_to_json(gamma)})
    return 1


def _cmd_classify(args) -> int:
    phi = _load_poly(args.poly)
    v = _vertex_of_m(phi, args.vertex)
    if phi.support == (0, 1, 2):
        rep = classify_quadratic_local(phi, v)
    elif phi.support == (0, 1, 3):
        rep = classify_reduced_cubic_local(phi, v)
    else:
        raise ParseError(f"no classifier for support {phi.support}")
    _emit({
        "vertex": jsonio.vec_to_json(rep.vertex),
        "delta": jsonio.vec_to_json(rep.delta),
        "case": rep.case,
        "solutions": [jsonio.polyhedron_to_json(s) for s in rep.solutions],
    })
    return 0


def _cmd_summand(args) -> int:
    ok, r = minkowski_summand_certificate(
        _load_polyhedron(args.q1), _load_polyhedron(args.q0))
    if ok:
        _emit({"summand": True, "witness": jsonio.polyhedron_to_json(r)})
        return 0
    _emit({"summand": False})
    return 1


def _cmd_shephard(args) -> int:
    res = shephard_weak_summand(
        _load_polyhedron(args.q1), _load_polyhedron(args.q0))
    if res.ok:
        _emit({
            "ok": True,
            "sp": [
                {"vertex": jsonio.vec_to_json(v), "image": jsonio.vec_to_json(w)}
                for v, w in sorted(res.sp.items())
            ],
            "lambdas": [
                {"edge": [jsonio.vec_to_json(u), jsonio.vec_to_json(v)],
                 "lambda": jsonio.frac_to_str(lam)}
                for (u, v), lam in sorted(res.edge_lambdas.items())
            ],
        })
        return 0
    _emit({"ok": False,
           "failure": [jsonio.vec_to_json(x) for x in res.failure]})
    return 1


def _cmd_disc(args) -> int:
    support = tuple(int(t) for t in args.support.split(","))
    disc = build_polyhedralised_discriminant(support)
    data = jsonio.load_file(args.tuple)
    if not isinstance(data, list):
        raise ParseError("the coefficient tuple file must be a JSON list")
    qs = [jsonio.polyhedron_from_json(t) for t in data]
    if len({q.dim_ambient for q in qs}) > 1:
        raise ParseError("the coefficients live in different ambient dimensions")
    ok, witness = is_discriminant_root(disc, qs)
    out = {"root": ok, "witness": _witness_json(witness)}
    if ok and args.check_converse:
        phi = PolyPolynomial.make(dict(zip(support, qs)))
        out["cone_roots"] = [
            {
                "root": jsonio.polyhedron_to_json(cr.root),
                "triple": list(cr.triple),
                "vertex": jsonio.vec_to_json(cr.vertex),
                "solid_angle": cr.angle.value,
                "std_error": cr.angle.std_error,
            }
            for cr in find_high_multiplicity_cone_root(phi, seed=args.seed)
        ]
    _emit(out)
    return 0 if ok else 1


def _cmd_trop(args) -> int:
    phi = _load_poly(args.poly)
    ell = _parse_vec_arg(args.omega) if args.omega else as_vec([1] * phi.dim_ambient)
    psi = tropicalize(phi, ell)
    _emit({
        "tropical": jsonio.tropical_to_json(psi),
        "roots": [
            {"root": jsonio.frac_to_str(y), "multiplicity": m}
            for y, m in tropical_roots(psi)
        ],
    })
    return 0


def _cmd_dist(args) -> int:
    d = hausdorff_angle_distance(
        _load_polyhedron(args.q0), _load_polyhedron(args.q1), seed=args.seed)
    _emit({"distance": d})
    return 0


# -- wiring ------------------------------------------------------------------

# flag -> (environment variable, default) filling it in when it is not given
_ENV_DEFAULTS = {"--cap-cells": ("PSR_CAP_CELLS", "20"), "--seed": ("PSR_SEED", "0")}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="psr", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, *flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in flags:
            if flag == "--vertex":
                p.add_argument(flag, type=int, required=True,
                               help="index into the sorted vertex list of the coefficient sum")
            elif flag in _ENV_DEFAULTS:
                # argparse converts a string default with `type`, so a bad
                # environment value is a usage error like a bad flag
                var, default = _ENV_DEFAULTS[flag]
                p.add_argument(flag, type=int, default=os.environ.get(var, default))
            elif flag == "--check-converse":
                p.add_argument(flag, action="store_true")
            elif flag == "--omega":
                p.add_argument(flag, type=str, default=None,
                               help="comma-separated rational coordinates")
            else:
                p.add_argument(flag, type=str, required=True)
        return p

    add("eval", _cmd_eval, "--poly", "--at")
    add("root", _cmd_root, "--poly", "--at")
    add("generic", _cmd_generic, "--poly")
    add("fan", _cmd_fan, "--poly", "--vertex")
    add("lcs", _cmd_lcs, "--poly", "--vertex", "--cap-cells", "--seed")
    add("solve-local", _cmd_solve_local, "--poly", "--vertex", "--cap-cells", "--seed")
    add("glue", _cmd_glue, "--poly", "--locals")
    add("classify", _cmd_classify, "--poly", "--vertex")
    add("summand", _cmd_summand, "--q1", "--q0")
    add("shephard", _cmd_shephard, "--q1", "--q0")
    add("disc", _cmd_disc, "--support", "--tuple", "--check-converse", "--seed")
    add("trop", _cmd_trop, "--poly", "--omega")
    add("dist", _cmd_dist, "--q0", "--q1", "--seed")
    return top


class _ArgumentError(Exception):
    def __init__(self, message: str) -> None:
        self.message = message


def main(argv=None) -> int:
    parser = _build_parser()
    # route argparse usage errors through the JSON error channel
    def _error(message):
        raise _ArgumentError(message)

    parser.error = _error  # type: ignore[method-assign]
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for p in action.choices.values():
            p.error = _error  # type: ignore[method-assign]
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _ArgumentError as exc:
        _emit({"error": "usage", "detail": exc.message})
        return 2
    except (ParseError, PsrError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2
    except SystemExit as exc:  # argparse --help and friends
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
