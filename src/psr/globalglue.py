"""Local-to-global gluing, Minkowski-summand certificates, and the
quadratic / reduced-cubic complete-local-solution classifiers.

A *complete* v-local solution is a root whose normal-fan support equals
the inner normal cone N_M(v); a *global* solution is a root whose normal
fan refines-covers the normal fan of M.  ``glue_global`` stitches a full
family of complete local solutions into a single global solution when the
vertex-compatibility property holds, and otherwise reports the violating
(vertex of M, vertex of the candidate) pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cones import Cone, covers, dual_cone, intersect_cones
from .errors import BadSupport, IncompleteLocal, InvariantError
from .linalg import Vec, as_vec, is_zero, sub, zero
from .polyhedra import (
    Polyhedron,
    inner_normal_cone,
    intersect_polyhedra,
    minkowski_sum,
    normal_fan,
    normal_fan_support,
)
from .polynomials import MSum, PolyPolynomial, coefficient_msum, is_root, rho

LocalSolutionMap = Mapping[Vec, Polyhedron]


def _cone_polyhedron(c: Cone) -> Polyhedron:
    """The cone viewed as a polyhedron anchored at the origin."""
    return Polyhedron.from_generators([zero(c.dim_ambient)], c.rays)


def is_complete_local(phi: PolyPolynomial, v: Sequence, s: Polyhedron,
                      msum: MSum | None = None) -> bool:
    """Root with normal-fan support exactly N_M(v)."""
    if msum is None:
        msum = coefficient_msum(phi)
    if not is_root(phi, s)[0]:
        return False
    return normal_fan_support(s) == inner_normal_cone(msum.value, as_vec(v))


def glue_global(
    phi: PolyPolynomial, locals_map: LocalSolutionMap
) -> Polyhedron | tuple[Vec, Vec]:
    """Glue complete local solutions into a global one.

    Builds P0 as the convex hull of all local-solution vertices with the
    recession cone of M, then checks for every vertex v of M and every
    vertex gamma of P0: if N_M(v) meets N_P0(gamma) full-dimensionally
    then gamma must be a vertex of the local solution at v.  Returns P0
    on success (asserting it is a root) and the violating (v, gamma)
    otherwise.
    """
    msum = coefficient_msum(phi)
    m = msum.value
    missing = [v for v in m.vertices if as_vec(v) not in locals_map]
    if missing:
        raise IncompleteLocal(f"no local solution supplied at vertex {missing[0]}")
    for v, s in locals_map.items():
        if not is_complete_local(phi, v, s, msum):
            raise IncompleteLocal(f"the solution at {v} is not a complete local solution")

    points: list[Vec] = []
    for s in locals_map.values():
        points.extend(s.vertices)
    p0 = Polyhedron.from_generators(points, m.rec_rays)

    for v in m.vertices:
        nv = inner_normal_cone(m, v)
        sv = locals_map[as_vec(v)]
        for gamma in p0.vertices:
            if intersect_cones(nv, inner_normal_cone(p0, gamma)).is_full_dim():
                if gamma not in sv.vertices:
                    return (v, gamma)
    ok, _ = is_root(phi, p0)
    if not ok:
        raise InvariantError("a glued candidate passing the compatibility check is not a root")
    return p0


def is_global_solution(phi: PolyPolynomial, p0: Polyhedron) -> bool:
    """Root whose normal fan covers every normal cone of M."""
    if not is_root(phi, p0)[0]:
        return False
    m = coefficient_msum(phi).value
    fan_p0 = [c for _, c in normal_fan(p0)]
    return all(covers(c, fan_p0) for _, c in normal_fan(m))


def extract_local(phi: PolyPolynomial, p0: Polyhedron, v: Sequence) -> Polyhedron:
    """Slice a global solution down to the complete local solution at v."""
    m = coefficient_msum(phi).value
    nv = inner_normal_cone(m, as_vec(v))
    return minkowski_sum(p0, _cone_polyhedron(dual_cone(nv)))


# ---------------------------------------------------------------------------
# Minkowski summands


def minkowski_summand_certificate(
    q1: Polyhedron, q0: Polyhedron
) -> tuple[bool, Polyhedron | None]:
    """Decide whether q0 = q1 + R for some polytope R; witness R on success.

    The only candidate is R = conv{v0 - v1 : v vertex of q1 + q0 with
    Minkowski decomposition v1 + v0}; it works iff each v0 - v1 is a
    vertex of R whose normal cone is exactly the union of the N_M(v)
    over the vertices v mapping to it.
    """
    if not (q1.is_polytope() and q0.is_polytope()):
        raise BadSupport("summand certificates require polytopes")
    phi = PolyPolynomial.make({1: q1, 0: q0})
    msum = coefficient_msum(phi)
    m = msum.value
    sup = msum.support  # (0, 1)
    cand: dict[Vec, list[Vec]] = {}
    for v in m.vertices:
        parts = msum.decomposition[v]
        v0 = parts[sup.index(0)]
        v1 = parts[sup.index(1)]
        cand.setdefault(sub(v0, v1), []).append(v)
    r = Polyhedron.from_generators(list(cand))
    if set(r.vertices) != set(cand):
        return False, None
    for gamma, vs in cand.items():
        union = [inner_normal_cone(m, v) for v in vs]
        ng = inner_normal_cone(r, gamma)
        if not (covers(ng, union) and all(ng.contains_cone(c) for c in union)):
            return False, None
    if minkowski_sum(q1, r) != q0:
        return False, None
    return True, r


@dataclass(frozen=True)
class ShephardResult:
    ok: bool
    sp: dict[Vec, Vec] | None  # vertex of q0 -> vertex of q1
    edge_lambdas: dict[tuple[Vec, Vec], Fraction] | None
    failure: tuple[Vec, ...] | None  # offending vertex or edge


def _polytope_edges(q: Polyhedron) -> list[tuple[Vec, Vec]]:
    """Vertex pairs whose normal cones meet in codimension one."""
    out = []
    n = q.dim_ambient
    for u, v in itertools.combinations(q.vertices, 2):
        c = intersect_cones(inner_normal_cone(q, u), inner_normal_cone(q, v))
        if c.dim() == n - 1:
            out.append((u, v))
    return out


def shephard_weak_summand(q1: Polyhedron, q0: Polyhedron) -> ShephardResult:
    """Weak-summand test via the vertex assignment Sp and edge dilation factors.

    Sp maps each vertex of q0 to the vertex of q1 whose normal cone
    contains N_{q0}(v0); it exists iff the normal fan of q0 refines that
    of q1 on vertices.  Each edge (u0, v0) of q0 must then satisfy
    lambda * (u0 - v0) = Sp(u0) - Sp(v0) for some lambda >= 0.
    """
    if not (q1.is_polytope() and q0.is_polytope()):
        raise BadSupport("the weak-summand test requires polytopes")
    sp: dict[Vec, Vec] = {}
    for v0 in q0.vertices:
        nv0 = inner_normal_cone(q0, v0)
        owner = [w for w in q1.vertices
                 if inner_normal_cone(q1, w).contains_cone(nv0)]
        if len(owner) != 1:
            return ShephardResult(False, None, None, (v0,))
        sp[v0] = owner[0]
    lambdas: dict[tuple[Vec, Vec], Fraction] = {}
    for u0, v0 in _polytope_edges(q0):
        d0 = sub(u0, v0)
        d1 = sub(sp[u0], sp[v0])
        if is_zero(d1):
            lambdas[(u0, v0)] = Fraction(0)
            continue
        k = next(i for i, x in enumerate(d0) if x != 0)
        lam = d1[k] / d0[k]
        if lam < 0 or tuple(lam * x for x in d0) != d1:
            return ShephardResult(False, None, None, (u0, v0))
        lambdas[(u0, v0)] = lam
    return ShephardResult(True, sp, lambdas, None)


# ---------------------------------------------------------------------------
# Quadratic and reduced-cubic classifiers


@dataclass(frozen=True)
class DeltaReport:
    vertex: Vec
    delta: Vec
    case: str  # Degenerate | Minus | Plus | Split
    solutions: tuple[Polyhedron, ...]


def _halfspace_split(nv: Cone, delta: Vec) -> tuple[Cone, Cone]:
    neg = intersect_cones(nv, Cone.from_ineqs([tuple(-x for x in delta)], len(delta)))
    pos = intersect_cones(nv, Cone.from_ineqs([delta], len(delta)))
    return neg, pos


def _anchored(point: Vec, c: Cone) -> Polyhedron:
    return Polyhedron.from_generators([point], dual_cone(c).rays)


def _classify(phi: PolyPolynomial, v: Sequence, pairs: tuple, weights: tuple) -> DeltaReport:
    """Shared quadratic/cubic classifier.

    ``pairs`` = ((0,low),(low,high),(0,high)) exponent pairs; ``weights``
    = coefficients of the discriminant vector in the v_i.
    """
    msum = coefficient_msum(phi)
    key = as_vec(v)
    sup = msum.support
    parts = msum.decomposition[key]
    by_exp = {i: parts[sup.index(i)] for i in sup}
    delta = zero(phi.dim_ambient)
    for i, w in weights:
        delta = tuple(a + w * b for a, b in zip(delta, by_exp[i]))
    nv = inner_normal_cone(msum.value, key)
    (p_lo, p_hi, p_ends) = pairs  # (0,1), (1,deg), (0,deg)
    r_lo = rho(phi, key, *p_lo, msum)
    r_hi = rho(phi, key, *p_hi, msum)
    r_ends = rho(phi, key, *p_ends, msum)
    if is_zero(delta):
        if not r_lo == r_hi == r_ends:
            raise InvariantError("a zero discriminant vector left distinct rho points")
        return DeltaReport(key, delta, "Degenerate", (_anchored(r_lo, nv),))
    neg, pos = _halfspace_split(nv, delta)
    if neg == nv:  # every ell in N has ell(delta) <= 0
        return DeltaReport(key, delta, "Minus",
                           (_anchored(r_lo, nv), _anchored(r_hi, nv)))
    if pos == nv:
        return DeltaReport(key, delta, "Plus", (_anchored(r_ends, nv),))
    if not (neg.is_full_dim() and pos.is_full_dim()):
        raise InvariantError("a split normal cone has a lower-dimensional half")
    sol = intersect_polyhedra(_anchored(r_hi, neg), _anchored(r_ends, pos))
    if sol is None:
        raise InvariantError("the two anchored pieces of a split do not meet")
    return DeltaReport(key, delta, "Split", (sol,))


def classify_quadratic_local(phi: PolyPolynomial, v: Sequence) -> DeltaReport:
    """Complete local solutions at v for supports {0,1,2}; Delta = 2v1-v0-v2."""
    if phi.support != (0, 1, 2):
        raise BadSupport(f"expected support (0, 1, 2), got {phi.support}")
    return _classify(phi, v, ((0, 1), (1, 2), (0, 2)),
                     ((1, Fraction(2)), (0, Fraction(-1)), (2, Fraction(-1))))


def classify_reduced_cubic_local(phi: PolyPolynomial, v: Sequence) -> DeltaReport:
    """Complete local solutions at v for supports {0,1,3}; Delta = 3v1-2v0-v3."""
    if phi.support != (0, 1, 3):
        raise BadSupport(f"expected support (0, 1, 3), got {phi.support}")
    return _classify(phi, v, ((0, 1), (1, 3), (0, 3)),
                     ((1, Fraction(3)), (0, Fraction(-2)), (3, Fraction(-1))))
