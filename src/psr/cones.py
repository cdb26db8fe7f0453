"""Rational polyhedral cones via the double description method.

A cone is stored in canonical double description.  Its extreme rays are
reduced modulo the lineality space and scaled to primitive integer
vectors (tuples of int); its facets are the same canonical rays of the
dual cone.  The lineality basis (`lines`) and the equations of the linear
span (`span_eqs`, the dual's lineality) are reduced row echelon rows of
Fraction, so `dim()` is `dim_ambient - len(span_eqs)`.  Two cones are
equal iff their canonical forms coincide, so structural equality is exact;
ints compare, hash and print like integral Fractions.

`Cone.from_ineqs` and `Cone.from_rays` are memoized, each in an LRU cache
of `_CACHE_SIZE` cones keyed on (dim, frozenset of the input vectors made
primitive, zero vectors dropped): order, duplicates and positive scaling
of the input change neither the key nor the cone.  The double description
method runs only on a miss; a cached `Cone` is a frozen dataclass of
tuples, shared by every caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import SizeLimit
from .linalg import (
    Vec,
    as_vec,
    dot,
    is_zero,
    neg,
    primitive,
    reduce_mod,
    rref,
    zero,
)

_CACHE_SIZE = 512

IntVec = tuple[int, ...]


def _idot(a: IntVec, b: IntVec) -> int:
    return sum(x * y for x, y in zip(a, b))


def _dd_from_ineqs(dim: int, ineqs: Iterable[IntVec]) -> tuple[list[IntVec], list[IntVec]]:
    """Double description of {x : a.x >= 0 for a in ineqs}.

    The inequalities are nonzero primitive integer vectors.  Returns
    (lineality basis, extreme rays), both primitive integer vectors.
    Starts from all of R^dim and cuts one halfspace at a time; while
    lineality is present, a violated line is rotated into the ray set,
    after which the usual adjacency splitting applies in the pointed
    quotient.  All arithmetic is fraction-free: generators are
    scale-invariant, so every update may be rescaled.
    """
    lines: list[IntVec] = [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)
    ]
    rays: list[IntVec] = []
    processed: list[IntVec] = []
    for a in ineqs:
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
                    new_lines.append(primitive(nl))
            lines = new_lines
            new_rays = []
            for r in rays:
                ar = _idot(a, r)
                nr = r if ar == 0 else primitive(
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
                new_rays.append(primitive(cand))
        rays = new_rays
        processed.append(a)
    return lines, rays


def _adjacent(r1: IntVec, r2: IntVec, rays: list[IntVec], ineqs: list[IntVec]) -> bool:
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


def _key(vecs: Iterable[Sequence]) -> frozenset[IntVec]:
    """The memo key's vector set: primitive, nonzero, unordered."""
    return frozenset(p for p in (primitive(tuple(v)) for v in vecs) if any(p))


def _reduced(rays: list[IntVec], lin: list[Vec]) -> tuple[IntVec, ...]:
    """Sorted distinct nonzero primitive representatives modulo span(lin)."""
    if lin:
        rays = [primitive(reduce_mod(r, lin)) for r in rays]
    return tuple(sorted({r for r in rays if any(r)}))


def _canonical(
    dim: int,
    ineqs: list[IntVec],
    dual: tuple[list[IntVec], list[IntVec]] | None = None,
) -> "Cone":
    """Canonical form of {x : a.x >= 0 for a in ineqs}; `dual` is the
    double description of the dual cone when the caller already has it."""
    lines, rays = _dd_from_ineqs(dim, ineqs)
    lin = rref(lines)
    ext = _reduced(rays, lin)
    if dual is None:
        # facet description: canonicalise the dual cone's generators
        dual = _dd_from_ineqs(dim, list(ext) + lines + [neg(l) for l in lines])
    d_lines, d_rays = dual
    d_lin = rref(d_lines)
    return Cone(dim, tuple(lin), ext, _reduced(d_rays, d_lin), tuple(d_lin))


@lru_cache(maxsize=_CACHE_SIZE)
def _cone_from_ineqs(dim: int, key: frozenset[IntVec]) -> "Cone":
    return _canonical(dim, list(key))


@lru_cache(maxsize=_CACHE_SIZE)
def _cone_from_rays(dim: int, key: frozenset[IntVec]) -> "Cone":
    # facets of the cone = rays of the dual = {a : a.r >= 0 for all r}
    d_lines, d_rays = _dd_from_ineqs(dim, key)
    facet_ineqs = d_rays + d_lines + [neg(l) for l in d_lines]
    return _canonical(dim, facet_ineqs, dual=(d_lines, d_rays))


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone in R^n, canonical double description."""

    dim_ambient: int
    lines: tuple[Vec, ...]
    extreme_rays: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]  # inequalities a with a.x >= 0 on the cone
    span_eqs: tuple[Vec, ...]  # equalities cutting out the linear span

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rays(rays: Iterable[Sequence], dim: int | None = None) -> "Cone":
        rs = list(rays)
        if dim is None:
            if not rs:
                raise ValueError("dimension required for a cone with no generators")
            dim = len(rs[0])
        return _cone_from_rays(dim, _key(rs))

    @staticmethod
    def from_ineqs(ineqs: Iterable[Sequence], dim: int | None = None) -> "Cone":
        a_list = list(ineqs)
        if dim is None:
            if not a_list:
                raise ValueError("dimension required for a cone with no inequalities")
            dim = len(a_list[0])
        return _cone_from_ineqs(dim, _key(a_list))

    @staticmethod
    def full_space(dim: int) -> "Cone":
        return Cone.from_ineqs([], dim=dim)

    @staticmethod
    def origin(dim: int) -> "Cone":
        return Cone.from_rays([], dim=dim)

    # -- basic queries -------------------------------------------------

    @property
    def rays(self) -> tuple[IntVec, ...]:
        """Generators: extreme rays plus both signs of each lineality vector."""
        both = tuple(primitive(l) for l in self.lines)
        return self.extreme_rays + both + tuple(neg(l) for l in both)

    @property
    def ineqs(self) -> tuple[Vec, ...]:
        """Full inequality description (facets plus span equalities, both signs)."""
        return self.facets + self.span_eqs + tuple(neg(e) for e in self.span_eqs)

    def dim(self) -> int:
        return self.dim_ambient - len(self.span_eqs)

    def is_full_dim(self) -> bool:
        return self.dim() == self.dim_ambient

    def is_pointed(self) -> bool:
        return not self.lines

    def contains(self, x: Sequence) -> bool:
        v = as_vec(x)
        return all(dot(a, v) >= 0 for a in self.ineqs)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays)

    def interior_point(self) -> Vec:
        """A point in the relative interior."""
        if not self.extreme_rays and not self.lines:
            return zero(self.dim_ambient)
        total = zero(self.dim_ambient)
        for r in self.extreme_rays:
            total = tuple(a + b for a, b in zip(total, r))
        if is_zero(total) and self.lines:
            # pure linear space: the origin is interior
            return zero(self.dim_ambient)
        return total

    def relint_contains(self, x: Sequence) -> bool:
        v = as_vec(x)
        if not all(dot(e, v) == 0 for e in self.span_eqs):
            return False
        return all(dot(a, v) > 0 for a in self.facets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self.dim_ambient == other.dim_ambient
            and self.lines == other.lines
            and self.extreme_rays == other.extreme_rays
        )

    def __hash__(self) -> int:
        return hash((self.dim_ambient, self.lines, self.extreme_rays))


# ---------------------------------------------------------------------------
# operations


def dual_cone(c: Cone) -> Cone:
    """Polar dual {a : a.x >= 0 for all x in c}; swaps the two descriptions."""
    return Cone.from_ineqs(c.rays, dim=c.dim_ambient)


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    if c1.dim_ambient != c2.dim_ambient:
        raise ValueError("ambient dimensions differ")
    return Cone.from_ineqs(list(c1.ineqs) + list(c2.ineqs), dim=c1.dim_ambient)


def conic_sum(c1: Cone, c2: Cone) -> Cone:
    """Smallest cone containing both: generated by the union of the rays."""
    if c1.dim_ambient != c2.dim_ambient:
        raise ValueError("ambient dimensions differ")
    return Cone.from_rays(list(c1.rays) + list(c2.rays), dim=c1.dim_ambient)


def restrict_arrangement(support: Cone, normals: Iterable[Sequence]) -> list[Cone]:
    """Full-dimensional (within support) cells of a hyperplane arrangement.

    Each hyperplane {x : a.x = 0} splits every current cell into the two
    closed halves, keeping the pieces whose dimension matches the support.
    """
    sdim = support.dim()
    cells = [support]
    for raw in normals:
        a = as_vec(raw)
        if is_zero(a):
            continue
        nxt: list[Cone] = []
        for cell in cells:
            vals = [dot(a, r) for r in cell.rays]
            has_pos = any(v > 0 for v in vals)
            has_neg = any(v < 0 for v in vals)
            if not (has_pos and has_neg):
                nxt.append(cell)
                continue
            plus = Cone.from_ineqs(list(cell.ineqs) + [a], dim=cell.dim_ambient)
            minus = Cone.from_ineqs(list(cell.ineqs) + [neg(a)], dim=cell.dim_ambient)
            for half in (plus, minus):
                if half.dim() == sdim:
                    nxt.append(half)
        cells = nxt
    return _dedupe(cells)


def _dedupe(cones: list[Cone]) -> list[Cone]:
    seen = set()
    out = []
    for c in cones:
        key = (c.lines, c.extreme_rays)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def covers(region: Cone, pieces: list[Cone]) -> bool:
    """Does the union of pieces contain region?  Exact, by refinement.

    Refines region by every facet hyperplane of every piece and checks that
    each resulting cell (via an interior point) lies in some piece.
    """
    normals = [a for p in pieces for a in p.facets]
    for cell in restrict_arrangement(region, normals):
        w = cell.interior_point()
        if not any(p.contains(w) for p in pieces):
            return False
    return True


def union_is_convex(cones: list[Cone]) -> bool:
    """Is the union of the cones itself a convex cone?

    The union is convex iff it equals the conic sum of its members.
    """
    if not cones:
        return True
    hull = cones[0]
    for c in cones[1:]:
        hull = conic_sum(hull, c)
    return covers(hull, cones)


def maximal_convex_subfamilies(cones: list[Cone], cap: int = 20) -> list[list[int]]:
    """Index sets of maximal subfamilies whose union is convex.

    Exponential by nature; refuses inputs larger than the cap.
    """
    n = len(cones)
    if n > cap:
        raise SizeLimit(f"{n} cones exceeds cap {cap}")
    accepted: list[set[int]] = []
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if any(s <= big for big in accepted):
                continue
            if union_is_convex([cones[i] for i in combo]):
                accepted.append(s)
    return [sorted(s) for s in accepted]
