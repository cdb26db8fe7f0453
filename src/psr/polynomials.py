"""Polynomials with polyhedral coefficients over the convex-hull / Minkowski
semiring, and their tropical shadows.

A univariate polynomial is a finite map exponent -> coefficient polyhedron
with nonempty support; the zero of the semiring is a sentinel that is never
stored as a coefficient.  Evaluation substitutes a polyhedron for the
variable; a root is an argument at which every vertex of the value is a
vertex of at least two summands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Sequence

from .cones import Cone, IntVec, dual_cone
from .errors import BadIndex, InvariantError, NotARoot, Unbounded
from .linalg import Vec, add, as_vec, neg, primitive, sub
from .polyhedra import (
    OmegaOrder,
    Polyhedron,
    convex_hull,
    inner_normal_cone,
    minkowski_sum,
    normal_fan_support,
    omega_min_vertex,
    power,
)

Pair = tuple[int, int]


@dataclass(frozen=True)
class PolyPolynomial:
    """sum_i Q_i * Y^i with polyhedral coefficients, nonempty support."""

    terms: tuple[tuple[int, Polyhedron], ...]  # sorted by exponent

    @staticmethod
    def make(terms: Mapping[int, Polyhedron]) -> "PolyPolynomial":
        if not terms:
            raise ValueError("empty support: the zero polynomial is not a value")
        items = tuple(sorted(terms.items()))
        if any(i < 0 for i, _ in items):
            raise ValueError("negative exponent")
        dims = {q.dim_ambient for _, q in items}
        if len(dims) != 1:
            raise ValueError("coefficients live in different ambient dimensions")
        return PolyPolynomial(items)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.terms)

    @property
    def dim_ambient(self) -> int:
        return self.terms[0][1].dim_ambient

    def coefficient(self, i: int) -> Polyhedron:
        for j, q in self.terms:
            if j == i:
                return q
        raise BadIndex(f"{i} not in support {self.support}")

    def degree(self) -> int:
        return self.terms[-1][0]

    def shift(self, k: int) -> "PolyPolynomial":
        """Multiply by Y^k (exponent shift)."""
        return PolyPolynomial(tuple((i + k, q) for i, q in self.terms))


@dataclass(frozen=True)
class MultiPolyPolynomial:
    """Multivariate version; exponents are tuples of fixed length nvars."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Polyhedron], ...]

    @staticmethod
    def make(nvars: int, terms: Mapping[tuple[int, ...], Polyhedron]) -> "MultiPolyPolynomial":
        if not terms:
            raise ValueError("empty support")
        items = tuple(sorted(terms.items()))
        for e, _ in items:
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e}")
        if len({q.dim_ambient for _, q in items}) != 1:
            raise ValueError("coefficients live in different ambient dimensions")
        return MultiPolyPolynomial(nvars, items)

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e for e, _ in self.terms)


@dataclass(frozen=True)
class TropPolynomial:
    """min_i (m_i + i*y): finite map exponent -> rational value."""

    terms: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def make(terms: Mapping[int, Fraction]) -> "TropPolynomial":
        if not terms:
            raise ValueError("empty support")
        return TropPolynomial(tuple(sorted((i, Fraction(v)) for i, v in terms.items())))

    def value(self, y: Fraction) -> Fraction:
        return min(m + i * y for i, m in self.terms)


def evaluate(phi: PolyPolynomial, p: Polyhedron) -> tuple[Polyhedron, dict[int, Polyhedron]]:
    """phi(p) and the individual summands Q_i * p^i (Q_0 * p^0 is Q_0)."""
    summands = {i: minkowski_sum(q, power(p, i)) if i else q for i, q in phi.terms}
    return convex_hull(*summands.values()), summands


def evaluate_multi(
    phi: MultiPolyPolynomial, ps: Sequence[Polyhedron]
) -> tuple[Polyhedron, dict[tuple[int, ...], Polyhedron]]:
    if len(ps) != phi.nvars:
        raise BadIndex(f"expected {phi.nvars} arguments, got {len(ps)}")
    summands = {e: minkowski_sum(q, *map(power, ps, e)) for e, q in phi.terms}
    return convex_hull(*summands.values()), summands


def root_witness(total: Polyhedron, summands: Mapping) -> dict[Vec, list]:
    """Map each vertex of the value to the summands having it as a vertex."""
    return {
        v: sorted(i for i, s in summands.items() if v in s.vertices)
        for v in total.vertices
    }


def is_root(phi, p) -> tuple[bool, dict[Vec, list]]:
    """Vertex-sharing root test with per-vertex witness.

    Accepts a univariate polynomial with a polyhedron, or a multivariate
    one with a tuple of polyhedra.
    """
    if isinstance(phi, MultiPolyPolynomial):
        total, summands = evaluate_multi(phi, p)
    else:
        total, summands = evaluate(phi, p)
    witness = root_witness(total, summands)
    return all(len(ix) >= 2 for ix in witness.values()), witness


def sharing_count(phi, p) -> int:
    """min over vertices of phi(p) of the number of summands sharing it."""
    ok, witness = is_root(phi, p)
    if not ok:
        raise NotARoot("sharing_count requires a root")
    return min(len(ix) for ix in witness.values())


# ---------------------------------------------------------------------------
# Minkowski decomposition of the coefficient sum


@dataclass(frozen=True)
class MSum:
    """M = Minkowski sum of all coefficients, with per-vertex decompositions."""

    value: Polyhedron
    support: tuple[int, ...]
    decomposition: dict[Vec, tuple[Vec, ...]]  # vertex of M -> (nu_i) by support order


@lru_cache(maxsize=256)
def coefficient_msum(phi: PolyPolynomial) -> MSum:
    """M = Q_0 + ... + Q_d with the decomposition of every vertex of M.

    A vertex nu of P + Q is u + w for exactly one point u of P and one w of
    Q, and those are vertices: a functional ell interior to the normal cone
    of nu attains its minimum over P + Q only at nu, so u + w = nu forces u
    and w to minimise ell over P and over Q, and the faces ell exposes there
    are single points (their sum is the face {nu}).  So the Minkowski fold
    carries, for every sum of a vertex of the partial sum and a vertex of
    the next coefficient, the parts that produced it, and keeps those of the
    new sum's vertices.
    """
    (_, m), *rest = phi.terms
    decomp: dict[Vec, tuple[Vec, ...]] = {u: (u,) for u in m.vertices}
    for _, q in rest:
        sums = {add(u, w): parts + (w,) for u, parts in decomp.items() for w in q.vertices}
        m = minkowski_sum(m, q)
        try:
            decomp = {nu: sums[nu] for nu in m.vertices}
        except KeyError as exc:
            raise InvariantError(
                f"vertex {exc.args[0]} of a Minkowski sum is no sum of vertices") from None
    return MSum(m, phi.support, decomp)


def _parts(msum: MSum, nu: Sequence) -> tuple[Vec, ...]:
    parts = msum.decomposition.get(as_vec(nu))
    if parts is None:
        raise BadIndex(f"{nu} is not a vertex of the coefficient sum")
    return parts


def rho(phi: PolyPolynomial, nu: Sequence, i: int, j: int, msum: MSum | None = None) -> Vec:
    """Displacement point -(nu_i - nu_j)/(i - j) at a vertex nu of M."""
    if i == j:
        raise BadIndex("rho needs two distinct exponents")
    if msum is None:
        msum = coefficient_msum(phi)
    parts = _parts(msum, nu)
    sup = msum.support
    if i not in sup or j not in sup:
        raise BadIndex(f"exponents {i},{j} not both in support {sup}")
    return _rho_points((i, j), (parts[sup.index(i)], parts[sup.index(j)]))[i, j]


def _rho_points(sup: tuple[int, ...], parts: Sequence[Vec]) -> dict[Pair, Vec]:
    return {
        (i, j): tuple(-(a - b) / (i - j) for a, b in zip(parts[x], parts[y]))
        for (x, i), (y, j) in itertools.combinations(enumerate(sup), 2)
    }


def rho_points(phi: PolyPolynomial, nu: Sequence, msum: MSum | None = None) -> dict[Pair, Vec]:
    """All rho points at a vertex, indexed by unordered support pairs i < j."""
    if msum is None:
        msum = coefficient_msum(phi)
    return _rho_points(msum.support, _parts(msum, nu))


def is_generic(phi: PolyPolynomial) -> tuple[bool, tuple | None]:
    """True iff at every vertex of M the rho points are pairwise distinct.

    On failure returns (False, (vertex, pair1, pair2)) for one coincidence.
    """
    msum = coefficient_msum(phi)
    for nu in msum.value.vertices:
        pts = _rho_points(msum.support, msum.decomposition[nu])
        seen: dict[Vec, Pair] = {}
        for pair, pt in pts.items():
            if pt in seen:
                return False, (nu, seen[pt], pair)
            seen[pt] = pair
    return True, None


def displacement_normals(
    sup: tuple[int, ...], parts: Sequence[Vec]
) -> tuple[dict[Pair, Vec], dict[tuple[int, int, int], IntVec], dict[tuple[Pair, Pair], IntVec]]:
    """The rho points at a vertex with coefficient parts `parts` (in
    support order), and the normals of the two hyperplane families that
    refine its normal cone, as primitive int vectors (zero if degenerate).

    - family one, key (i, j, k): (nu_k - nu_i) + (k - i) * rho_ij.  A
      functional ell is >= 0 on it iff the piece ell(nu_k) + k y is not
      below ell(nu_i) + i y at y = ell(rho_ij);
    - family two, key (p1, p2) for distinct pairs: rho_p2 - rho_p1.

    Both are computed on P_i = L nu_i, the parts scaled to ints by their
    common denominator L, and scaled by positive ints, which keeps every
    sign: with rho_ij = (nu_i - nu_j)/(j - i) and i < j, family one times
    L (j - i) is (j - i)(P_k - P_i) + (k - i)(P_i - P_j), and family two
    times L (j1 - i1)(j2 - i2) is (j1 - i1)(P_i2 - P_j2) - (j2 - i2)(P_i1 - P_j1).
    """
    pts = _rho_points(sup, parts)
    den = lcm(*(x.denominator for p in parts for x in p))
    ip = {i: [x.numerator * (den // x.denominator) for x in p] for i, p in zip(sup, parts)}
    first = {
        (i, j, k): primitive(tuple(
            (j - i) * (a - b) + (k - i) * (b - c) for a, b, c in zip(ip[k], ip[i], ip[j])))
        for i, j in pts
        for k in sup
    }
    second: dict[tuple[Pair, Pair], IntVec] = {}
    for (i1, j1), (i2, j2) in itertools.combinations(pts, 2):
        h = primitive(tuple((j1 - i1) * (a - b) - (j2 - i2) * (c - d)
                            for a, b, c, d in zip(ip[i2], ip[j2], ip[i1], ip[j1])))
        second[(i1, j1), (i2, j2)], second[(i2, j2), (i1, j1)] = h, neg(h)
    return pts, first, second


def arrangement_normals(pts: dict[Pair, Vec], first: dict, second: dict) -> list[IntVec]:
    """The nonzero normals of `displacement_normals` in arrangement order:
    family one by pair and then k, family two rho_p1 - rho_p2 by pairs
    (p1, p2), p1 first.  Cell indices follow this order."""
    return [h for h in first.values() if any(h)] + [
        h for h in (second[p2, p1] for p1, p2 in itertools.combinations(pts, 2)) if any(h)]


def displacement_hyperplanes(
    phi: PolyPolynomial, nu: Sequence, msum: MSum | None = None
) -> list[IntVec]:
    """Normals of the two hyperplane families refining N_M(nu), primitive.

    Family one compares a coefficient vertex against the displacement line
    of a pair: (nu_k - nu_i) + (k - i) * rho_{i,j}; family two compares two
    displacement points: rho_{i,j} - rho_{~i,~j}.  Degenerate zero normals
    are dropped.
    """
    if msum is None:
        msum = coefficient_msum(phi)
    return arrangement_normals(*displacement_normals(msum.support, _parts(msum, nu)))


def affine_cone_root(phi: PolyPolynomial, omega: OmegaOrder) -> Polyhedron:
    """The affine-cone solution rho-hat + C* at the omega-min vertex of M.

    C is the cell of the refined normal cone fan at v that contains the
    omega direction (each arrangement hyperplane is crossed on the side its
    normal's lexicographic omega sign dictates).
    """
    msum = coefficient_msum(phi)
    v = omega_min_vertex(msum.value, omega)
    pts = rho_points(phi, v, msum)
    rho_hat = min(pts.values(), key=omega.key)
    ineqs = list(inner_normal_cone(msum.value, v).ineqs)
    for h in displacement_hyperplanes(phi, v, msum):
        ineqs.append(h if omega.is_positive(h) else tuple(-x for x in h))
    cell = Cone.from_ineqs(ineqs, dim=phi.dim_ambient)
    cone = dual_cone(cell)
    return Polyhedron.from_generators([rho_hat], cone.rays, dim=phi.dim_ambient)


# ---------------------------------------------------------------------------
# tropicalization


def tropicalize(phi: PolyPolynomial, ell: Sequence) -> TropPolynomial:
    """Coefficientwise support minimum in direction ell."""
    l = as_vec(ell)
    try:
        return TropPolynomial.make({i: q.support_value(l) for i, q in phi.terms})
    except Unbounded as exc:
        raise Unbounded(f"functional {ell} unbounded on a coefficient") from exc


def tropical_roots(psi: TropPolynomial) -> list[tuple[Fraction, int]]:
    """Breakpoints of min_i(m_i + i*y) with slope-change multiplicities.

    Computed from the legs of the lower convex hull of {(i, m_i)}.
    """
    pts = list(psi.terms)
    hull = _lower_hull(pts)
    out = []
    for (a, ma), (b, mb) in zip(hull, hull[1:]):
        out.append((Fraction(-(mb - ma), b - a), b - a))
    return out


def _lower_hull(pts: list[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Lower convex hull, strictly convex (collinear middle points dropped)."""
    hull: list[tuple[int, Fraction]] = []
    for p in pts:  # already sorted by exponent
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it is on or above segment hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


# ---------------------------------------------------------------------------
# same-function decision


def _argmin_vertex_on_cell(q: Polyhedron, ell: Vec) -> Vec:
    mins = q.argmin_vertices(ell)
    if len(mins) != 1:
        raise InvariantError("cell refinement did not force a unique minimiser")
    return mins[0]


def _facet_active_terms(
    cell: Cone, terms: list[tuple[int, Vec]]
) -> frozenset[tuple[int, Vec]]:
    """Terms (i, q) whose affine piece l(q) + i*y attains the lower envelope
    on a full-dimensional subset of cell x R."""
    n = cell.dim_ambient
    lifted_cell = [a + (Fraction(0),) for a in cell.ineqs]
    active = set()
    for i, q in terms:
        ineqs = list(lifted_cell)
        for j, w in terms:
            if (j, w) == (i, q):
                continue
            # l(q) + i y <= l(w) + j y  <=>  l(w - q) + (j - i) y >= 0
            ineqs.append(sub(w, q) + (Fraction(j - i),))
        region = Cone.from_ineqs(ineqs, dim=n + 1)
        if region.dim() == n + 1:
            active.add((i, q))
    return frozenset(active)


def same_function(phi1: PolyPolynomial, phi2: PolyPolynomial) -> bool:
    """Do the two polynomials induce the same tropical function for every
    functional in the common normal-fan support?

    Decided exactly: refine the support by all coefficient vertex-difference
    hyperplanes (making every tropical coefficient linear per cell), then
    compare the affine pieces active on full-dimensional regions of
    cell x R; two lower envelopes agree iff those piece sets agree.
    """
    m1 = coefficient_msum(phi1).value
    m2 = coefficient_msum(phi2).value
    if m1.recession_cone() != m2.recession_cone():
        return False
    support = normal_fan_support(m1)
    normals: list[Vec] = []
    for phi in (phi1, phi2):
        for _, q in phi.terms:
            for u, w in itertools.combinations(q.vertices, 2):
                normals.append(sub(u, w))
    from .cones import restrict_arrangement

    for cell in restrict_arrangement(support, normals):
        ell = cell.interior_point()
        t1 = [(i, _argmin_vertex_on_cell(q, ell)) for i, q in phi1.terms]
        t2 = [(i, _argmin_vertex_on_cell(q, ell)) for i, q in phi2.terms]
        if _facet_active_terms(cell, t1) != _facet_active_terms(cell, t2):
            return False
    return True


# ---------------------------------------------------------------------------
# product form


def product_expand(q: Polyhedron, factors: Sequence[Polyhedron]) -> PolyPolynomial:
    """Expand q * prod_i (Y + P_i) in the semiring, merging exponents with
    convex hulls."""
    terms: dict[int, Polyhedron] = {0: q}
    for p in factors:
        # c Y^e times (Y + P) gives c Y^(e+1) and (c + P) Y^e
        parts: dict[int, list[Polyhedron]] = {e: [] for e in range(max(terms) + 2)}
        for e, c in terms.items():
            parts[e + 1].append(c)
            parts[e].append(minkowski_sum(c, p))
        terms = {e: convex_hull(*cs) for e, cs in parts.items()}
    return PolyPolynomial.make(terms)
