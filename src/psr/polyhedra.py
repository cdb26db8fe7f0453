"""Rational polyhedra P = conv(V) + cone(R), exact over the rationals.

Canonicalisation goes through the homogenisation cone in R^(n+1): each
vertex v becomes the ray (v, 1) and each recession ray r becomes (r, 0).
Lineality in the homogenisation is rejected, so every polyhedron handled
here has at least one vertex (its recession cone is pointed).  That is
exactly the class closed under the two semiring operations below.

The "omega" order is the lexicographic refinement of a base functional:
comparing ell.x first and the plain coordinates of x afterwards emulates a
functional with rationally independent coordinates.  A polyhedron is
admissible for the semiring iff every nonzero recession ray is strictly
lex-positive for the fixed order, i.e. the recession cone is pointed and
meets the closed lex-nonnegative half in rays only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cones import Cone, dual_cone
from .errors import NotAVertex, Unbounded
from .linalg import Vec, as_vec, dot, is_zero, neg, sub, zero


class OmegaOrder:
    """Lexicographic vertex-selection order on R^n.

    key(x) = (base . x, x_1, ..., x_n); minimising the key over a
    polyhedron picks the vertex a generic tiny perturbation of `base`
    would pick.  `base` defaults to the all-ones functional.
    """

    def __init__(self, dim: int, base: Sequence | None = None):
        self.dim = dim
        self.base: Vec = as_vec(base) if base is not None else (Fraction(1),) * dim

    def key(self, x: Sequence) -> tuple:
        v = as_vec(x)
        return (dot(self.base, v),) + v

    def is_positive(self, r: Sequence) -> bool:
        """Strict lex-positivity of a direction (zero vector excluded)."""
        k = self.key(r)
        for c in k:
            if c != 0:
                return c > 0
        return False


@dataclass(frozen=True)
class Polyhedron:
    """Polyhedron with pointed recession cone, canonical V-description."""

    dim_ambient: int
    vertices: tuple[Vec, ...]
    rec_rays: tuple[Vec, ...]  # primitive extreme rays of the recession cone

    @staticmethod
    def from_generators(
        points: Iterable[Sequence], rays: Iterable[Sequence] = (), dim: int | None = None
    ) -> "Polyhedron":
        pts = [as_vec(p) for p in points]
        rs = [as_vec(r) for r in rays]
        if dim is None:
            if pts:
                dim = len(pts[0])
            elif rs:
                dim = len(rs[0])
            else:
                raise ValueError("no generators and no dimension")
        if not pts:
            raise ValueError("a polyhedron needs at least one point")
        homog = [p + (Fraction(1),) for p in pts] + [r + (Fraction(0),) for r in rs]
        cone = Cone.from_rays(homog, dim=dim + 1)
        if cone.lines:
            raise ValueError("polyhedron contains a line; recession cone not pointed")
        verts = []
        recs = []
        for ray in cone.extreme_rays:
            last = ray[-1]
            if last > 0:
                verts.append(tuple(Fraction(c, last) for c in ray[:-1]))
            elif last == 0:
                recs.append(ray[:-1])
            else:  # pragma: no cover - homogenisation rays have last >= 0
                raise ValueError("negative homogenising coordinate")
        return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(recs)))

    @staticmethod
    def point(p: Sequence) -> "Polyhedron":
        return Polyhedron.from_generators([p])

    # -- queries ---------------------------------------------------------

    def is_polytope(self) -> bool:
        return not self.rec_rays

    def recession_cone(self) -> Cone:
        return Cone.from_rays(self.rec_rays, dim=self.dim_ambient)

    def dim(self) -> int:
        v0 = self.vertices[0]
        dirs = [sub(v, v0) for v in self.vertices[1:]] + list(self.rec_rays)
        from .linalg import rank

        return rank(dirs)

    def contains(self, x: Sequence) -> bool:
        p = as_vec(x) + (Fraction(1),)
        homog = [v + (Fraction(1),) for v in self.vertices] + [
            r + (Fraction(0),) for r in self.rec_rays
        ]
        return Cone.from_rays(homog, dim=self.dim_ambient + 1).contains(p)

    def translate(self, t: Sequence) -> "Polyhedron":
        tv = as_vec(t)
        return Polyhedron(
            self.dim_ambient,
            tuple(sorted(tuple(a + b for a, b in zip(v, tv)) for v in self.vertices)),
            self.rec_rays,
        )

    def support_value(self, ell: Sequence) -> Fraction:
        """min over P of ell.x; raises Unbounded when the min is -inf."""
        l = as_vec(ell)
        if any(dot(l, r) < 0 for r in self.rec_rays):
            raise Unbounded("functional unbounded below on polyhedron")
        return min(dot(l, v) for v in self.vertices)

    def argmin_vertices(self, ell: Sequence) -> list[Vec]:
        m = self.support_value(ell)
        l = as_vec(ell)
        return [v for v in self.vertices if dot(l, v) == m]

    def is_omega_positive(self, omega: OmegaOrder) -> bool:
        return all(omega.is_positive(r) for r in self.rec_rays)


# ---------------------------------------------------------------------------
# semiring operations and normal-fan machinery


def convex_hull(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Semiring addition: closed convex hull of the union."""
    if p.dim_ambient != q.dim_ambient:
        raise ValueError("ambient dimensions differ")
    return Polyhedron.from_generators(
        list(p.vertices) + list(q.vertices),
        list(p.rec_rays) + list(q.rec_rays),
        dim=p.dim_ambient,
    )


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Semiring multiplication: pairwise vertex sums plus the joint rays."""
    if p.dim_ambient != q.dim_ambient:
        raise ValueError("ambient dimensions differ")
    pts = [
        tuple(a + b for a, b in zip(v, w))
        for v, w in itertools.product(p.vertices, q.vertices)
    ]
    return Polyhedron.from_generators(
        pts, list(p.rec_rays) + list(q.rec_rays), dim=p.dim_ambient
    )


def intersect_polyhedra(p: Polyhedron, q: Polyhedron) -> Polyhedron | None:
    """Exact intersection; None when empty.  Requires pointed result."""
    n = p.dim_ambient
    homog_ineqs: list[Vec] = []
    for poly in (p, q):
        hcone = Cone.from_rays(
            [v + (Fraction(1),) for v in poly.vertices]
            + [r + (Fraction(0),) for r in poly.rec_rays],
            dim=n + 1,
        )
        homog_ineqs.extend(hcone.ineqs)
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


def inner_normal_cone(p: Polyhedron, v: Sequence) -> Cone:
    """Cone of functionals minimised at v; raises NotAVertex otherwise."""
    vv = as_vec(v)
    if vv not in p.vertices:
        raise NotAVertex(f"{v} is not a vertex of the polyhedron")
    ineqs = [sub(u, vv) for u in p.vertices if u != vv]
    ineqs += list(p.rec_rays)
    return Cone.from_ineqs(ineqs, dim=p.dim_ambient)


def normal_fan_support(p: Polyhedron) -> Cone:
    """Support of the inner normal fan: the dual of the recession cone."""
    return dual_cone(p.recession_cone())


def normal_fan(p: Polyhedron) -> list[tuple[Vec, Cone]]:
    """Pairs (vertex, inner normal cone); the cones tile the support."""
    return [(v, inner_normal_cone(p, v)) for v in p.vertices]


def omega_min_vertex(p: Polyhedron, omega: OmegaOrder) -> Vec:
    """The unique vertex minimising the lexicographic omega order."""
    if not p.is_omega_positive(omega):
        raise Unbounded("omega order unbounded below on polyhedron")
    return min(p.vertices, key=omega.key)

