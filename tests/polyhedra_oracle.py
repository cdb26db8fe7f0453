"""Reference polyhedron operations for differential tests.

The semiring operations as they were before a polyhedron kept its
homogenisation cone, kept as written: `minkowski_sum` sums every pair of
`Fraction` vertices and canonicalises through `from_generators`,
`convex_hull` is pairwise, `power` folds k Minkowski sums, and `contains`
and `intersect_polyhedra` rebuild the homogenisation cones from the
V-description with a fresh double description.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from psr.cones import Cone
from psr.linalg import Vec, as_vec, is_zero, neg, zero
from psr.polyhedra import Polyhedron


def convex_hull(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.dim_ambient != q.dim_ambient:
        raise ValueError("ambient dimensions differ")
    return Polyhedron.from_generators(
        list(p.vertices) + list(q.vertices),
        list(p.rec_rays) + list(q.rec_rays),
        dim=p.dim_ambient,
    )


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.dim_ambient != q.dim_ambient:
        raise ValueError("ambient dimensions differ")
    pts = [
        tuple(a + b for a, b in zip(v, w))
        for v, w in itertools.product(p.vertices, q.vertices)
    ]
    return Polyhedron.from_generators(
        pts, list(p.rec_rays) + list(q.rec_rays), dim=p.dim_ambient
    )


def power(p: Polyhedron, k: int) -> Polyhedron:
    out = Polyhedron.point(zero(p.dim_ambient))
    for _ in range(k):
        out = minkowski_sum(out, p)
    return out


def _homogenisation(p: Polyhedron) -> Cone:
    return Cone.from_rays(
        [v + (Fraction(1),) for v in p.vertices]
        + [as_vec(r) + (Fraction(0),) for r in p.rec_rays],
        dim=p.dim_ambient + 1,
    )


def contains(p: Polyhedron, x: Sequence) -> bool:
    return _homogenisation(p).contains(as_vec(x) + (Fraction(1),))


def intersect_polyhedra(p: Polyhedron, q: Polyhedron) -> Polyhedron | None:
    n = p.dim_ambient
    homog_ineqs: list[Vec] = []
    for poly in (p, q):
        homog_ineqs.extend(_homogenisation(poly).ineqs)
    # keep homogenising coordinate nonnegative
    homog_ineqs.append(zero(n) + (Fraction(1),))
    cone = Cone.from_ineqs(homog_ineqs, dim=n + 1)
    verts, recs = [], []
    for ray in list(cone.extreme_rays) + [l for l in cone.lines] + [
        neg(l) for l in cone.lines
    ]:
        if ray[-1] > 0:
            verts.append(tuple(Fraction(c, ray[-1]) for c in ray[:-1]))
        elif ray[-1] == 0 and not is_zero(ray[:-1]):
            recs.append(ray[:-1])
    if not verts:
        return None
    return Polyhedron.from_generators(verts, recs, dim=n)
