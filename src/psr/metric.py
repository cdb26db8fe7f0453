"""Solid angles and the Hausdorff-angle metric on polyhedra.

The metric is the l1 product of (i) the Hausdorff distance between the
polytopes spanned by the vertex sets and (ii) the Hausdorff distance
between the unit-sphere slices of the recession cones.  Part (i) is
computed exactly over the rationals (as a squared distance) and only
converted to float at the end; part (ii) is exact in dimension <= 2 and
Monte-Carlo sampled above that.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .cones import Cone
from .errors import InvariantError
from .linalg import Vec, dot, sub, solve
from .polyhedra import Polyhedron


@dataclass(frozen=True)
class SolidAngle:
    value: float
    std_error: float  # 0.0 when the value is exact


def solid_angle(c: Cone, samples: int = 200_000, seed: int = 0) -> SolidAngle:
    """Normalised solid angle of a cone: measure of C cap S^(n-1).

    Exact for n <= 2; Monte Carlo with the given seed for n >= 3, with the
    binomial standard error reported.
    """
    n = c.dim_ambient
    if c.dim() < n:
        # measure-zero slice of the sphere
        return SolidAngle(0.0, 0.0)
    if n == 1:
        # full-dimensional cones in R^1: halfline (1/2) or the line (1)
        return SolidAngle(1.0 if c.lines else 0.5, 0.0)
    if n == 2:
        if c.lines:
            # full-dimensional with lineality: halfplane (line + ray) or plane
            return SolidAngle(0.5 * len(c.lines), 0.0)
        (a, b) = c.extreme_rays
        ang = abs(
            math.atan2(float(b[1]), float(b[0])) - math.atan2(float(a[1]), float(a[0]))
        )
        if ang > math.pi:
            ang = 2 * math.pi - ang
        return SolidAngle(ang / (2 * math.pi), 0.0)
    gauss = random.Random(seed).gauss
    hits = 0
    rows = [[float(ai) for ai in a] for a in c.ineqs]
    for _ in range(samples):
        x = [gauss(0.0, 1.0) for _ in range(n)]
        if all(sum(map(mul, a, x)) >= 0 for a in rows):
            hits += 1
    p = hits / samples
    se = math.sqrt(max(p * (1 - p), 1e-12) / samples)
    return SolidAngle(p, se)


# ---------------------------------------------------------------------------
# exact point-to-polytope distance over Q


def _sq_norm(v: Vec) -> Fraction:
    return dot(v, v)


def point_polytope_sqdist(x: Vec, verts: tuple[Vec, ...]) -> Fraction:
    """Exact squared Euclidean distance from x to conv(verts).

    The nearest point lies in the relative interior of the hull of some
    affinely independent vertex subset, where it is the orthogonal
    projection onto the affine span with nonnegative barycentric weights;
    minimising over all subsets is exact and cheap at desk scale.
    """
    n = len(x)
    best: Fraction | None = None
    for size in range(1, min(len(verts), n + 1) + 1):
        for sub_v in itertools.combinations(verts, size):
            w0 = sub_v[0]
            dirs = [sub(w, w0) for w in sub_v[1:]]
            rhs_vec = sub(x, w0)
            # normal equations G lam = b over Q
            g_rows = [tuple(dot(d1, d2) for d2 in dirs) for d1 in dirs]
            b = [dot(d, rhs_vec) for d in dirs]
            if dirs:
                lam = solve(g_rows, b)
                if lam is None:
                    continue  # affinely dependent subset; a smaller one covers it
            else:
                lam = ()
            if any(l < 0 for l in lam) or sum(lam, Fraction(0)) > 1:
                continue
            proj = list(w0)
            for l, d in zip(lam, dirs):
                for k in range(n):
                    proj[k] += l * d[k]
            dsq = _sq_norm(sub(x, tuple(proj)))
            if best is None or dsq < best:
                best = dsq
    if best is None:
        raise InvariantError("no vertex subset gave a nearest point")
    return best


def polytope_hausdorff_sq(p: tuple[Vec, ...], q: tuple[Vec, ...]) -> Fraction:
    """Exact squared Hausdorff distance between two polytopes (vertex lists)."""
    d1 = max(point_polytope_sqdist(v, q) for v in p)
    d2 = max(point_polytope_sqdist(w, p) for w in q)
    return max(d1, d2)


# ---------------------------------------------------------------------------
# Hausdorff distance between sphere slices of recession cones


def _cone_sphere_distance(c1: Cone, c2: Cone, seed: int = 0, samples: int = 4000) -> float:
    """d_hau(C1 cap S, C2 cap S) in the ambient Euclidean metric.

    Exact for n <= 2; sampled for n >= 3.  Cones reduced to {0} have empty
    slices: two empty slices are at distance 0, one empty slice is at the
    sphere diameter 2 (the supremum the metric can report).
    """
    n = c1.dim_ambient
    e1, e2 = c1.dim() == 0, c2.dim() == 0
    if e1 and e2:
        return 0.0
    if e1 or e2:
        return 2.0
    if c1 == c2:
        return 0.0
    if n == 1:
        s1 = {1 if r[0] > 0 else -1 for r in c1.rays}
        s2 = {1 if r[0] > 0 else -1 for r in c2.rays}
        d12 = max(min(abs(a - b) for b in s2) for a in s1)
        d21 = max(min(abs(a - b) for b in s1) for a in s2)
        return float(max(d12, d21))
    if n == 2:
        return _arc_hausdorff(c1, c2)
    return _sampled_cone_distance(c1, c2, seed, samples)


def _cone_arcs(c: Cone) -> list[tuple[float, float]]:
    """Angular intervals (lo, hi) with hi - lo <= 2*pi covering C cap S^1."""
    if len(c.lines) == 2:
        return [(0.0, 2 * math.pi)]
    if c.lines:
        l = c.lines[0]
        th = math.atan2(float(l[1]), float(l[0]))
        if c.extreme_rays:  # halfplane: arc centred on the facet normal
            a = c.facets[0]
            ta = math.atan2(float(a[1]), float(a[0]))
            return [(ta - math.pi / 2, ta + math.pi / 2)]
        return [(th, th), (th + math.pi, th + math.pi)]
    rays = c.extreme_rays
    angs = sorted(math.atan2(float(r[1]), float(r[0])) for r in rays)
    if len(angs) == 1:
        return [(angs[0], angs[0])]
    a, b = angs
    if b - a <= math.pi:
        return [(a, b)]
    return [(b, a + 2 * math.pi)]


def _ang_dist_to_arc(theta: float, arc: tuple[float, float]) -> float:
    lo, hi = arc
    # reduce theta into [lo - pi, lo + pi) style window
    t = theta
    while t < lo - math.pi:
        t += 2 * math.pi
    while t >= lo + math.pi + (hi - lo):
        t -= 2 * math.pi
    if lo <= t <= hi:
        return 0.0
    return min(
        min(abs(t - lo), 2 * math.pi - abs(t - lo)),
        min(abs(t - hi), 2 * math.pi - abs(t - hi)),
    )


def _arc_hausdorff(c1: Cone, c2: Cone) -> float:
    arcs1, arcs2 = _cone_arcs(c1), _cone_arcs(c2)

    def directed(a_from: list[tuple[float, float]], a_to: list[tuple[float, float]]) -> float:
        worst = 0.0
        for lo, hi in a_from:
            cands = [lo, hi]
            # interior maxima of the distance function: midpoints of the
            # complement of each target arc, when they fall inside [lo, hi]
            for tlo, thi in a_to:
                mid = (tlo + thi) / 2 + math.pi
                for shift in (-2 * math.pi, 0.0, 2 * math.pi):
                    m = mid + shift
                    if lo < m < hi:
                        cands.append(m)
            for t in cands:
                d = min(_ang_dist_to_arc(t, arc) for arc in a_to)
                worst = max(worst, d)
        return worst

    ang = max(directed(arcs1, arcs2), directed(arcs2, arcs1))
    return 2 * math.sin(min(ang, math.pi) / 2)


def _sampled_cone_distance(c1: Cone, c2: Cone, seed: int, samples: int) -> float:
    rng = random.Random(seed)

    def sample(c: Cone) -> list[tuple[float, ...]]:
        gens = [tuple(float(x) for x in r) for r in c.rays]
        pts = []
        for g in gens:
            nor = math.sqrt(sum(x * x for x in g))
            pts.append(tuple(x / nor for x in g))
        for _ in range(samples):
            ws = [rng.random() for _ in gens]
            v = tuple(sum(w * g[k] for w, g in zip(ws, gens)) for k in range(c.dim_ambient))
            nor = math.sqrt(sum(x * x for x in v))
            if nor > 1e-12:
                pts.append(tuple(x / nor for x in v))
        return pts

    p1, p2 = sample(c1), sample(c2)

    def directed(a: list, b: list) -> float:
        return max(
            min(math.dist(x, y) for y in b) for x in a
        )

    return max(directed(p1, p2), directed(p2, p1))


def hausdorff_angle_distance(p1: Polyhedron, p2: Polyhedron, seed: int = 0) -> float:
    """l1 combination of polytope Hausdorff distance and cone-slice distance."""
    dsq = polytope_hausdorff_sq(p1.vertices, p2.vertices)
    d_poly = math.sqrt(float(dsq))
    d_cone = _cone_sphere_distance(p1.recession_cone(), p2.recession_cone(), seed=seed)
    return d_poly + d_cone
