"""JSON interchange for the geometric value types.

All rational numbers travel as strings in ``p/q`` (or plain integer)
form; vectors are lists of such strings.  Serialisation uses a fixed key
order so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .cones import Cone
from .errors import PsrError
from .linalg import Vec, as_vec
from .polyhedra import Polyhedron
from .polynomials import MultiPolyPolynomial, PolyPolynomial, TropPolynomial

if TYPE_CHECKING:  # the local solver is loaded only by the commands that run it
    from .localfan import LCS


class ParseError(PsrError):
    """Malformed JSON input."""


def frac_to_str(x: Fraction) -> str:
    return str(x)


def frac_from_str(s: Any) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {s!r}") from exc


def vec_to_json(v: Sequence[Fraction]) -> list[str]:
    return [frac_to_str(x) for x in v]


def vec_from_json(obj: Any) -> Vec:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ParseError(f"expected a nonempty coordinate list, got {obj!r}")
    return as_vec(frac_from_str(x) for x in obj)


def _entry(obj: Any, key: str, what: str) -> Any:
    if not isinstance(obj, Mapping) or key not in obj:
        raise ParseError(f"{what} needs a {key!r} entry")
    return obj[key]


def _list(x: Any, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{what} must be a list")
    return x


def _int(x: Any, what: str) -> int:
    if type(x) is not int:
        raise ParseError(f"{what} must be an integer, got {x!r}")
    return x


# -- polyhedra ---------------------------------------------------------------


def polyhedron_to_json(p: Polyhedron) -> dict:
    return {
        "vertices": [vec_to_json(v) for v in p.vertices],
        "rays": [vec_to_json(r) for r in p.rec_rays],
    }


def polyhedron_from_json(obj: Any) -> Polyhedron:
    vertices = _list(_entry(obj, "vertices", "a polyhedron"), "'vertices'")
    vertices = [vec_from_json(v) for v in vertices]
    rays = [vec_from_json(r) for r in _list(obj.get("rays", []), "'rays'")]
    if not vertices:
        raise ParseError("a polyhedron needs at least one vertex")
    try:  # a line among the rays, or coordinate lists of different lengths
        return Polyhedron.from_generators(vertices, rays)
    except ValueError as exc:
        raise ParseError(f"not a polyhedron: {exc}") from None


# -- cones -------------------------------------------------------------------


def cone_to_json(c: Cone) -> dict:
    return {
        "rays": [vec_to_json(r) for r in c.extreme_rays],
        "lines": [vec_to_json(l) for l in c.lines],
        "facets": [vec_to_json(f) for f in c.facets],
        "span_eqs": [vec_to_json(e) for e in c.span_eqs],
    }


# -- polynomials -------------------------------------------------------------


def polynomial_to_json(phi: PolyPolynomial | MultiPolyPolynomial) -> dict:
    if isinstance(phi, MultiPolyPolynomial):
        return {
            "vars": phi.nvars,
            "terms": [
                {"exp": list(e), "coeff": polyhedron_to_json(q)} for e, q in phi.terms
            ],
        }
    return {
        "vars": 1,
        "terms": [
            {"exp": [i], "coeff": polyhedron_to_json(q)} for i, q in phi.terms
        ],
    }


def polynomial_from_json(obj: Any) -> PolyPolynomial | MultiPolyPolynomial:
    terms_json = _list(_entry(obj, "terms", "a polynomial"), "'terms'")
    nvars = _int(obj.get("vars", 1), "'vars'")
    terms = {}
    for t in terms_json:
        exp = _entry(t, "exp", "a term")
        if not isinstance(exp, list) or len(exp) != nvars:
            raise ParseError(f"exponent {exp!r} does not have {nvars} entries")
        key = tuple(_int(k, "an exponent") for k in exp)
        coeff = polyhedron_from_json(_entry(t, "coeff", "a term"))
        if key in terms:
            raise ParseError(f"duplicate exponent {exp!r}")
        terms[key] = coeff
    try:  # empty support, negative exponents, coefficients in different dimensions
        if nvars == 1:
            return PolyPolynomial.make({e[0]: q for e, q in terms.items()})
        return MultiPolyPolynomial.make(nvars, terms)
    except ValueError as exc:
        raise ParseError(f"not a polynomial: {exc}") from None


def tropical_to_json(psi: TropPolynomial) -> dict:
    return {
        "terms": [{"exp": i, "coeff": frac_to_str(c)} for i, c in psi.terms]
    }


# -- compound objects --------------------------------------------------------


def lcs_to_json(vertex_index: int, lcs: LCS) -> dict:
    return {
        "vertex_index": vertex_index,
        "cells": list(lcs.cells),
        "pairs": [list(p) for p in lcs.pairs],
    }


def locals_to_json(locals_map: Mapping[Vec, Polyhedron]) -> list:
    return [
        {"vertex": vec_to_json(v), "solution": polyhedron_to_json(s)}
        for v, s in sorted(locals_map.items())
    ]


def locals_from_json(obj: Any) -> dict[Vec, Polyhedron]:
    out: dict[Vec, Polyhedron] = {}
    for t in _list(obj, "a local-solution map"):
        out[vec_from_json(_entry(t, "vertex", "a local solution"))] = polyhedron_from_json(
            _entry(t, "solution", "a local solution"))
    return out


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def load_file(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc
