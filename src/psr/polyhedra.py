"""Rational polyhedra P = conv(V) + cone(R), exact over the rationals.

A polyhedron is stored as its homogenisation cone C(P) in R^(n+1), the
cone over the rays (v, 1) for the vertices v and (r, 0) for the recession
rays r.  The cone is canonical and its extreme rays are primitive ints,
so they are exactly the (v, 1) and (r, 0) scaled to coprime integers;
`vertices` and `rec_rays` are the sorted view read off them once.  Lines
in C(P) are rejected, so every polyhedron handled here has at least one
vertex (its recession cone is pointed).  That is exactly the class
closed under the two semiring operations, and both act on the cone:

- the convex hull of P and Q has C(P) + C(Q) as its cone, a conic sum;
- the Minkowski sum P + Q is generated by the sums of their vertices,
  (a, d) + (b, e) -> (a e + b d, d e) on the int rays, and the rays of
  both; for convex P, P + ... + P (k times) is the dilation kP;
- C(P) meets C(Q) in C(P and Q) when P and Q meet, and in rays (r, 0)
  only when they do not.

The "omega" order is the lexicographic refinement of a base functional:
comparing ell.x first and the plain coordinates of x afterwards emulates a
functional with rationally independent coordinates.  A polyhedron is
admissible for the semiring iff every nonzero recession ray is strictly
lex-positive for the fixed order, i.e. the recession cone is pointed and
meets the closed lex-nonnegative half in rays only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .cones import Cone, IntVec, _cone_from_rays, conic_sum, dual_cone, intersect_cones
from .errors import NotAVertex, Unbounded
from .linalg import Vec, as_vec, dot, primitive, sub


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
    """Polyhedron with pointed recession cone, kept as its homogenisation
    cone; `vertices` and `rec_rays` are its canonical V-description."""

    dim_ambient: int
    vertices: tuple[Vec, ...]
    rec_rays: tuple[IntVec, ...]  # primitive extreme rays of the recession cone
    cone: Cone = field(compare=False, repr=False)  # homogenisation cone C(P)

    @staticmethod
    def from_generators(
        points: Iterable[Sequence], rays: Iterable[Sequence] = (), dim: int | None = None
    ) -> "Polyhedron":
        pts, rs = [tuple(p) for p in points], [tuple(r) for r in rays]
        if not pts:
            raise ValueError("a polyhedron needs at least one point")
        if dim is None:
            dim = len(pts[0])
        if any(len(v) != dim for v in pts + rs):
            raise ValueError(f"generators of a polyhedron in R^{dim} have other lengths")
        return _from_cone(Cone.from_rays(_homogenise(pts, rs), dim=dim + 1))

    @staticmethod
    def point(p: Sequence) -> "Polyhedron":
        return Polyhedron.from_generators([p])

    # -- queries ---------------------------------------------------------

    def is_polytope(self) -> bool:
        return not self.rec_rays

    def recession_cone(self) -> Cone:
        return Cone.from_rays(self.rec_rays, dim=self.dim_ambient)

    def dim(self) -> int:
        return self.cone.dim() - 1

    def contains(self, x: Sequence) -> bool:
        return self.cone.contains(*_homogenise([x]))

    def translate(self, t: Sequence) -> "Polyhedron":
        return Polyhedron.from_generators(
            [tuple(a + b for a, b in zip(v, t)) for v in self.vertices], self.rec_rays)

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


def _homogenise(points: Iterable[Sequence], rays: Iterable[Sequence] = ()) -> list[tuple]:
    """(v, 1) for each point v and (r, 0) for each ray r."""
    return [tuple(v) + (1,) for v in points] + [tuple(r) + (0,) for r in rays]


def _from_cone(cone: Cone) -> Polyhedron:
    """The polyhedron whose homogenisation cone is `cone`.  Every cone
    built here has last coordinate >= 0 on all of its rays."""
    if cone.lines:
        raise ValueError("polyhedron contains a line; recession cone not pointed")
    verts = sorted(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in cone.extreme_rays if r[-1])
    recs = sorted(r[:-1] for r in cone.extreme_rays if not r[-1])
    return Polyhedron(cone.dim_ambient - 1, tuple(verts), tuple(recs), cone)


def _vertex_sum(a: IntVec, b: IntVec) -> IntVec:
    """(a, d) + (b, e) -> (a e + b d, d e), primitive: the vertex a/d + b/e."""
    d, e = a[-1], b[-1]
    return primitive(tuple(x * e + y * d for x, y in zip(a[:-1], b[:-1])) + (d * e,))


# ---------------------------------------------------------------------------
# semiring operations and normal-fan machinery


def convex_hull(*polys: Polyhedron) -> Polyhedron:
    """Semiring addition: closed convex hull of the union."""
    return _from_cone(conic_sum(*(p.cone for p in polys)))


def minkowski_sum(*polys: Polyhedron) -> Polyhedron:
    """Semiring multiplication: sums of one vertex of each, plus all rays."""
    n = polys[0].dim_ambient
    if any(p.dim_ambient != n for p in polys):
        raise ValueError("ambient dimensions differ")
    verts = ([r for r in p.cone.extreme_rays if r[-1]] for p in polys)
    pts = {reduce(_vertex_sum, vs) for vs in itertools.product(*verts)}
    rays = {r for p in polys for r in p.cone.extreme_rays if not r[-1]}
    return _from_cone(_cone_from_rays(n + 1, frozenset(pts | rays)))


def power(p: Polyhedron, k: int) -> Polyhedron:
    """k-fold Minkowski power; the 0-th power is the origin.  P is convex,
    so P + ... + P = kP: the vertices dilate by k and the rays stay."""
    if k == 0:
        return Polyhedron.point((0,) * p.dim_ambient)
    if k == 1:
        return p
    return _from_cone(_cone_from_rays(p.dim_ambient + 1, frozenset(
        primitive(tuple(k * x for x in r[:-1]) + r[-1:]) if r[-1] else r
        for r in p.cone.extreme_rays)))


def intersect_polyhedra(p: Polyhedron, q: Polyhedron) -> Polyhedron | None:
    """Exact intersection; None when empty.

    C(P) and C(Q) meet in C(P and Q) when P and Q meet; otherwise no ray
    of their intersection has a positive last coordinate.
    """
    cone = intersect_cones(p.cone, q.cone)
    if not any(r[-1] for r in cone.extreme_rays):
        return None
    return _from_cone(cone)


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

