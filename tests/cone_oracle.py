"""Reference cone canonicalisation for differential tests.

The `Fraction`-based double description that `psr.cones` used before its
int-native, memoized rewrite, kept as written: `_int_primitive`,
`_dd_from_ineqs`, `_adjacent` and `Cone._canonical` (here `_canonical`,
returning the four canonical fields).  `primitive` is the old
`linalg.primitive`, which returned `Fraction` tuples.  `from_rays` and
`from_ineqs` run the old constructors' bodies with no cache.

`restrict_arrangement` and `covers` are the arrangement refinement as it
was before int sign tests and key-union construction: `Fraction` dot
products, both halves of a split built by `Cone.from_ineqs` from
inequality lists, and no memo.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Sequence

from psr.cones import Cone
from psr.linalg import Vec, as_vec, is_zero, neg, reduce_mod, rref, zero


def primitive(a: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integers, preserving sign."""
    if is_zero(a):
        return a
    den = reduce(lambda acc, x: acc * x.denominator // gcd(acc, x.denominator), a, 1)
    ints = [x.numerator * (den // x.denominator) for x in a]
    g = reduce(gcd, (abs(v) for v in ints))
    return tuple(Fraction(v // g) for v in ints)



def _int_primitive(v: Sequence) -> tuple[int, ...]:
    """Primitive integer representative of a nonzero rational direction."""
    den = 1
    for x in v:
        d = x.denominator if isinstance(x, Fraction) else 1
        den = den * d // gcd(den, d)
    ints = [int(x * den) if isinstance(x, Fraction) else x * den for x in v]
    g = 0
    for t in ints:
        g = gcd(g, t)
    if g > 1:
        ints = [t // g for t in ints]
    return tuple(ints)


def _idot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _dd_from_ineqs(dim: int, ineqs: list[Vec]) -> tuple[list[Vec], list[Vec]]:
    """Double description of {x : a.x >= 0 for a in ineqs}.

    Returns (lineality basis, extreme rays).  Starts from all of R^dim and
    cuts one halfspace at a time; while lineality is present, a violated
    line is rotated into the ray set, after which the usual adjacency
    splitting applies in the pointed quotient.  All arithmetic is
    fraction-free on primitive integer vectors: generators are
    scale-invariant, so every update may be rescaled.
    """
    lines: list[tuple[int, ...]] = [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[int, ...]] = []
    processed: list[tuple[int, ...]] = []
    for a_frac in ineqs:
        if is_zero(a_frac):
            continue
        a = _int_primitive(a_frac)
        # try to clear the inequality with a lineality generator
        pivot_obj = next((l for l in lines if _idot(a, l) != 0), None)
        if pivot_obj is not None:
            pa = _idot(a, pivot_obj)
            pivot = pivot_obj if pa > 0 else tuple(-x for x in pivot_obj)
            pa = abs(pa)
            new_lines = []
            for l in lines:
                if l is pivot_obj:
                    continue
                al = _idot(a, l)
                if al == 0:
                    new_lines.append(l)
                    continue
                nl = tuple(pa * x - al * y for x, y in zip(l, pivot))
                if any(x != 0 for x in nl):
                    new_lines.append(_int_primitive(nl))
            lines = new_lines
            new_rays = []
            for r in rays:
                ar = _idot(a, r)
                nr = r if ar == 0 else _int_primitive(
                    tuple(pa * x - ar * y for x, y in zip(r, pivot)))
                new_rays.append(nr)
            rays = new_rays
            rays.append(pivot)
            processed.append(a)
            continue
        vals = [_idot(a, r) for r in rays]
        pos = [r for r, v in zip(rays, vals) if v > 0]
        nul = [r for r, v in zip(rays, vals) if v == 0]
        negs = [r for r, v in zip(rays, vals) if v < 0]
        if not negs:
            processed.append(a)
            continue
        new_rays = pos + nul
        for rp, rn in itertools.product(pos, negs):
            if not _adjacent(rp, rn, rays, processed):
                continue
            # combination on the hyperplane a.x = 0
            ap, an = _idot(a, rp), _idot(a, rn)
            cand = tuple(ap * x - an * y for x, y in zip(rn, rp))
            if any(x != 0 for x in cand):
                new_rays.append(_int_primitive(cand))
        rays = new_rays
        processed.append(a)
    to_frac = lambda v: tuple(Fraction(x) for x in v)  # noqa: E731
    return [to_frac(l) for l in lines], [to_frac(r) for r in rays]


def _adjacent(
    r1: tuple[int, ...], r2: tuple[int, ...],
    rays: list[tuple[int, ...]], ineqs: list[tuple[int, ...]],
) -> bool:
    """Combinatorial adjacency test for two extreme rays of the current cone.

    Valid whenever the ray list is exactly the extreme rays modulo the
    lineality space, which the double description loop maintains.
    """
    z = [a for a in ineqs if _idot(a, r1) == 0 and _idot(a, r2) == 0]
    for r in rays:
        if r is r1 or r is r2:
            continue
        if all(_idot(a, r) == 0 for a in z):
            return False
    return True


def _canonical(
    dim: int,
    ineqs: list[Vec],
    dual_hint: tuple[list[Vec], list[Vec]] | None = None,
) -> tuple[tuple[Vec, ...], ...]:
    """(lines, extreme_rays, facets, span_eqs) of {x : a.x >= 0 for a in ineqs}."""
    lines, rays = _dd_from_ineqs(dim, ineqs)
    lin = rref(lines)
    red = {primitive(reduce_mod(r, lin)) for r in rays}
    red.discard(zero(dim))
    # drop any ray that became a lineality representative duplicate
    ext = tuple(sorted(red))
    lin_t = tuple(lin)
    # facet description: canonicalise the dual cone's generators
    if dual_hint is not None:
        d_lines, d_rays = dual_hint
    else:
        gens = list(ext) + list(lin_t) + [neg(l) for l in lin_t]
        d_lines, d_rays = _dd_from_ineqs(dim, gens)
    d_lin = rref(d_lines)
    d_red = {primitive(reduce_mod(r, d_lin)) for r in d_rays}
    d_red.discard(zero(dim))
    facets = tuple(sorted(d_red))
    span_eqs = tuple(d_lin)
    return lin_t, ext, facets, span_eqs


def from_rays(rays, dim: int) -> tuple[tuple[Vec, ...], ...]:
    rs = [as_vec(r) for r in rays]
    rs = [r for r in rs if not is_zero(r)]
    lines_d, rays_d = _dd_from_ineqs(dim, rs)
    facet_ineqs = rays_d + [l for l in lines_d] + [neg(l) for l in lines_d]
    return _canonical(dim, facet_ineqs, dual_hint=(lines_d, rays_d))


def from_ineqs(ineqs, dim: int) -> tuple[tuple[Vec, ...], ...]:
    return _canonical(dim, [as_vec(a) for a in ineqs])


def fdot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b, strict=True)), Fraction(0))


def restrict_arrangement(support: Cone, normals) -> list[Cone]:
    sdim = support.dim()
    cells = [support]
    for raw in normals:
        a = as_vec(raw)
        if is_zero(a):
            continue
        nxt: list[Cone] = []
        for cell in cells:
            vals = [fdot(a, r) for r in cell.rays]
            if not (any(v > 0 for v in vals) and any(v < 0 for v in vals)):
                nxt.append(cell)
                continue
            plus = Cone.from_ineqs(list(cell.ineqs) + [a], dim=cell.dim_ambient)
            minus = Cone.from_ineqs(list(cell.ineqs) + [neg(a)], dim=cell.dim_ambient)
            for half in (plus, minus):
                if half.dim() == sdim:
                    nxt.append(half)
        cells = nxt
    return list(dict.fromkeys(cells))


def covers(region: Cone, pieces: list[Cone]) -> bool:
    normals = [a for p in pieces for a in p.facets]
    for cell in restrict_arrangement(region, normals):
        w = cell.interior_point()
        if not any(all(fdot(a, w) >= 0 for a in p.ineqs) for p in pieces):
            return False
    return True
