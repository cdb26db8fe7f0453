"""Vertex-cone collections: pairs (vertex, full-dimensional normal cone)
generalising the vertex data of a polyhedron, with convex hull, Minkowski
sum, polynomial evaluation, completion and Minkowski-Weyl minimalisation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cones import (
    Cone,
    _cone_from_ineqs,
    _key,
    conic_sum,
    covers,
    dual_cone,
    intersect_cones,
    maximal_convex_subfamilies,
    union_is_convex,
)
from .errors import (
    InvariantError,
    NotARoot,
    NotLocal,
    SizeLimit,
    SupportMismatch,
)
from .linalg import Vec, add, as_vec, dot, primitive, sub
from .localfan import LCS, LabelledFanFv, build_local_fan, enumerate_lcs, label_violation
from .polyhedra import Polyhedron, inner_normal_cone, normal_fan_support
from .polynomials import PolyPolynomial, is_root


@dataclass(frozen=True)
class VCC:
    """A finite collection of (vertex, cone) pairs.

    Validity (the defining inequality between distinct vertices) is checked
    by `is_valid`, not enforced on construction, so that intermediate
    collections can be assembled freely.
    """

    pairs: tuple[tuple[Vec, Cone], ...]

    @staticmethod
    def make(pairs) -> "VCC":
        canon = tuple(sorted(((as_vec(v), c) for v, c in pairs), key=lambda p: (p[0], p[1].extreme_rays, p[1].lines)))
        if not canon:
            raise ValueError("a vertex-cone collection needs at least one pair")
        return VCC(canon)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(v for v, _ in self.pairs)

    def cones_of(self, v: Vec) -> list[Cone]:
        return [c for u, c in self.pairs if u == v]

    def is_valid(self) -> tuple[bool, str | None]:
        for v, c in self.pairs:
            if not c.is_full_dim():
                return False, f"cone at {v} is not full-dimensional"
            for u, _ in self.pairs:
                if u == v:
                    continue
                # l(v) <= l(u) for all l in N(v)  <=>  u - v in dual(N(v))
                if not c.in_dual(sub(u, v)):
                    return False, f"inequality fails for vertices {v}, {u}"
        return True, None

    def support_cones(self) -> list[Cone]:
        return [c for _, c in self.pairs]


def associated_vcc(p: Polyhedron) -> VCC:
    return VCC.make((v, inner_normal_cone(p, v)) for v in p.vertices)


def supports_equal(g1: VCC, g2: VCC) -> bool:
    c1, c2 = g1.support_cones(), g2.support_cones()
    return all(covers(c, c2) for c in c1) and all(covers(c, c1) for c in c2)


def vcc_convex_hull(g1: VCC, g2: VCC) -> VCC:
    """Convex hull: shared vertices keep full-dimensional cone intersections;
    one-sided vertices survive iff some functional interior to their cone
    strictly prefers them to every vertex of the other collection."""
    if not supports_equal(g1, g2):
        raise SupportMismatch("convex hull of VCCs requires equal supports")
    out: dict[tuple, tuple[Vec, Cone]] = {}

    def put(v: Vec, c: Cone) -> None:
        out[(v, c.lines, c.extreme_rays)] = (v, c)

    v1, v2 = set(g1.vertices), set(g2.vertices)
    for ga, gb, verts_b in ((g1, g2, v2), (g2, g1, v1)):
        for v, c in ga.pairs:
            if v in verts_b:
                for cb in gb.cones_of(v):
                    inter = intersect_cones(c, cb)
                    if inter.is_full_dim():
                        put(v, inter)
            else:
                restricted = _cone_from_ineqs(
                    c.dim_ambient, c.ineq_key | _key(sub(u, v) for u in verts_b))
                if restricted.is_full_dim():
                    put(v, restricted)
    return VCC.make(out.values())


def vcc_minkowski_sum(g1: VCC, g2: VCC) -> VCC:
    """Minkowski sum: vertex sums whose cone intersections are full-dim."""
    out = []
    for (u, cu), (w, cw) in itertools.product(g1.pairs, g2.pairs):
        inter = intersect_cones(cu, cw)
        if inter.is_full_dim():
            out.append((add(u, w), inter))
    if not out:
        raise SupportMismatch("supports of the two collections do not overlap")
    return VCC.make(out)


def vcc_power(g: VCC, k: int, dim: int) -> VCC:
    if k == 0:
        return VCC.make([(tuple([Fraction(0)] * dim), Cone.full_space(dim))])
    out = g
    for _ in range(k - 1):
        out = vcc_minkowski_sum(out, g)
    return out


def _check_support_in_coefficients(phi: PolyPolynomial, g: VCC) -> None:
    for i, q in phi.terms:
        sup = normal_fan_support(q)
        for _, c in g.pairs:
            if not sup.contains_cone(c):
                raise SupportMismatch(
                    f"collection support leaves the normal-fan support of coefficient {i}"
                )


def _evaluate_shifted(phi: PolyPolynomial, g: VCC) -> tuple[VCC, dict[int, VCC], int]:
    _check_support_in_coefficients(phi, g)
    dim = phi.dim_ambient
    shift = 1 if 0 in phi.support else 0
    summands: dict[int, VCC] = {}
    for i, q in phi.terms:
        s = vcc_minkowski_sum(associated_vcc(q), vcc_power(g, i + shift, dim))
        summands[i] = s
    total = None
    for i in sorted(summands):
        total = summands[i] if total is None else vcc_convex_hull(total, summands[i])
    return total, summands, shift


def vcc_is_root(phi: PolyPolynomial, g: VCC) -> tuple[bool, dict[Vec, list[int]]]:
    """Root test: every vertex of the (shifted) evaluation is a vertex of at
    least two summands.  The witness maps de-shifted vertices to exponent
    lists."""
    total, summands, shift = _evaluate_shifted(phi, g)
    witness: dict[Vec, list[int]] = {}
    for w, c in total.pairs:
        sharers = sorted(i for i, s in summands.items() if w in s.vertices)
        if shift:
            owner = next(u for u, cu in g.pairs if cu.contains_cone(c))
            witness[sub(w, owner)] = sharers
        else:
            witness[w] = sharers
    return all(len(s) >= 2 for s in witness.values()), witness


# ---------------------------------------------------------------------------
# completion, minimalisation, and the local solution pipeline


def completion(fan: LabelledFanFv, p0) -> VCC:
    """Saturate the vertex cones of a v-local solution to unions of fan cells."""
    if isinstance(p0, Polyhedron):
        ok, _ = is_root(fan.phi, p0)
        if not ok:
            raise NotARoot("completion requires a solution")
        base = associated_vcc(p0)
    else:
        base = p0
        ok, _ = vcc_is_root(fan.phi, base)
        if not ok:
            raise NotARoot("completion requires a solution")
    for _, c in base.pairs:
        if not fan.support.contains_cone(c):
            raise NotLocal("normal cone leaves the vertex's normal cone in M")
    sdim = fan.support.dim()
    out = []
    for gamma, c in base.pairs:
        saturated = [
            cell.cone
            for cell in fan.cells
            if intersect_cones(cell.cone, c).dim() == sdim
        ]
        if not saturated:
            raise InvariantError("a full-dimensional normal cone meets no fan cell")
        out.append((gamma, conic_sum(*saturated)))
    return VCC.make(out)


def _cells_meeting(fan: LabelledFanFv, c: Cone) -> frozenset[int]:
    sdim = fan.support.dim()
    return frozenset(
        k for k, cell in enumerate(fan.cells) if intersect_cones(cell.cone, c).dim() == sdim
    )


def minimalize(fan: LabelledFanFv, b0: VCC, cap_candidates: int = 1_000_000) -> VCC:
    """A Minkowski-Weyl minimal VCC solution with the vertex set of b0.

    Starting from the completion, unassigned fan cells are distributed over
    the vertices in all ways; among the candidates that are roots, one with
    inclusion-maximal total cell set wins.

    When the fan is generic at its vertex and every vertex is a
    displacement point, a candidate is the LCS that labels each cell by the
    pair of its vertex, and it is decided by LCS conditions 2, 3 and 1
    (`label_violation`) without evaluating phi.  Condition 3 is
    `VCC.is_valid`, because the dual of a union of cells is the
    intersection of their duals; condition 1 is the convexity of each
    vertex's union.  Condition 4 is left out: it rejects a system that a
    neighbour cell could extend, which makes it a maximality test, and the
    candidates here are systems this search is still extending (a one-cell
    VCC can be a root that condition 4 rejects).  Only the winner is
    evaluated, as a check.  Any other input decides each candidate by
    convexity, validity and evaluation.
    """
    com = completion(fan, b0)
    assigned: dict[Vec, set[int]] = {}
    for gamma, c in com.pairs:
        assigned.setdefault(gamma, set()).update(_cells_meeting(fan, c))
    verts = sorted(assigned)
    used = set().union(*assigned.values())
    free = [k for k in range(len(fan.cells)) if k not in used]
    # the separation inequality of the enlarged collection is linear in the
    # rays of an added cell and independent of the other choices, so
    # inadmissible (cell, vertex) pairs are pruned up front
    diffs = {g: [primitive(sub(u, g)) for u in verts if u != g] for g in verts}

    def admissible(k: int, gamma: Vec) -> bool:
        return all(dot(r, d) >= 0 for r in fan.cells[k].cone.extreme_rays for d in diffs[gamma])

    options = [
        [len(verts)] + [i for i, g in enumerate(verts) if admissible(k, g)]
        for k in free
    ]
    n_options = 1
    for opts in options:
        n_options *= len(opts)
    if n_options > cap_candidates:
        raise SizeLimit(f"{n_options} enlargements exceed cap {cap_candidates}")

    rho_to_pair = {pt: pair for pair, pt in fan.rho.items()}
    by_labels = fan.is_generic_at_vertex() and all(g in rho_to_pair for g in verts)

    def evaluated(assignment: dict[Vec, set[int]]) -> VCC | None:
        """The candidate's VCC if its unions are convex, it is valid and a root."""
        if any(len(ks) > 1 and not union_is_convex([fan.cells[k].cone for k in sorted(ks)])
               for ks in assignment.values()):
            return None
        cand = VCC.make(
            (g, conic_sum(*(fan.cells[k].cone for k in sorted(ks)))) for g, ks in assignment.items())
        if not cand.is_valid()[0] or not vcc_is_root(fan.phi, cand)[0]:
            return None
        return cand

    def accepts(assignment: dict[Vec, set[int]]) -> bool:
        if not by_labels:
            return evaluated(assignment) is not None
        items = sorted((k, rho_to_pair[g]) for g, ks in assignment.items() for k in ks)
        return label_violation(fan, LCS(tuple(k for k, _ in items), tuple(p for _, p in items))) is None

    best: dict[Vec, set[int]] | None = None
    best_cells = frozenset(used)
    for choice in itertools.product(*options):
        extra: dict[Vec, set[int]] = {g: set(ks) for g, ks in assigned.items()}
        for cell, pick in zip(free, choice):
            if pick < len(verts):
                extra[verts[pick]].add(cell)
        cells_now = frozenset().union(*extra.values())
        if best_cells < cells_now and accepts(extra):
            best, best_cells = extra, cells_now
    if best is None:
        return com
    out = evaluated(best)
    if out is None:
        raise InvariantError("the winning enlargement is not a root")
    return out


def lcs_to_vcc(fan: LabelledFanFv, lcs: LCS) -> VCC:
    """The vertex-cone collection of a local compatible system: displacement
    points with the unions of their labelled cells."""
    groups: dict[Vec, list[int]] = {}
    for k, pair in lcs.items():
        groups.setdefault(fan.rho[pair], []).append(k)
    return VCC.make([
        (gamma, conic_sum(*(fan.cells[k].cone for k in ks)))
        for gamma, ks in sorted(groups.items())
    ])


def vcc_to_lcs(fan: LabelledFanFv, g: VCC) -> LCS:
    """Reverse extraction: each fan cell inside a vertex cone is labelled by
    the pair whose displacement point is that vertex."""
    rho_to_pair = {pt: pair for pair, pt in fan.rho.items()}
    cells, pairs = [], []
    for gamma, c in g.pairs:
        pair = rho_to_pair[gamma]
        for k in sorted(_cells_meeting(fan, c)):
            cells.append(k)
            pairs.append(pair)
    order = sorted(range(len(cells)), key=lambda t: cells[t])
    return LCS(tuple(cells[t] for t in order), tuple(pairs[t] for t in order))


def associated_polyhedron(fan: LabelledFanFv, lcs: LCS, subset: list[int]) -> Polyhedron:
    """Associated polyhedron of the restriction of an LCS to the convex
    union of the given cells (indices into the LCS cell list)."""
    region = conic_sum(*(fan.cells[lcs.cells[t]].cone for t in subset))
    sdim = fan.support.dim()
    groups: dict[Vec, list[int]] = {}
    for k, pair in lcs.items():
        groups.setdefault(fan.rho[pair], []).append(k)
    verts = []
    for gamma, ks in groups.items():
        c_gamma = conic_sum(*(fan.cells[k].cone for k in ks))
        if intersect_cones(c_gamma, region).dim() == sdim:
            verts.append(gamma)
    rec = dual_cone(region)
    return Polyhedron.from_generators(verts, rec.rays, dim=fan.support.dim_ambient)


def enumerate_mw_minimal_local_solutions(
    phi: PolyPolynomial, v, cap_cells: int = 20, cap_candidates: int = 1_000_000
) -> list[Polyhedron]:
    """All Minkowski-Weyl minimal v-local polyhedral solutions that arise
    from local compatible systems restricted to maximal convex subfamilies
    of their supporting cells."""
    fan = build_local_fan(phi, v)
    out: dict[tuple, Polyhedron] = {}
    for lcs in enumerate_lcs(fan, cap_cells, cap_candidates):
        cones = [fan.cells[k].cone for k in lcs.cells]
        for subset in maximal_convex_subfamilies(cones, cap=cap_cells):
            p = associated_polyhedron(fan, lcs, subset)
            ok, _ = is_root(phi, p)
            if not ok:
                raise InvariantError(
                    "associated polyhedron of an LCS restriction is not a root")
            out[(p.vertices, p.rec_rays)] = p
    return [out[k] for k in sorted(out)]
