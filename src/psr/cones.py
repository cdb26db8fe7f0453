"""Rational polyhedral cones via the double description method.

A cone is stored in canonical double description.  Its extreme rays are
reduced modulo the lineality space and scaled to primitive integer
vectors (tuples of int); its facets are the same canonical rays of the
dual cone.  The lineality basis (`lines`) and the equations of the linear
span (`span_eqs`, the dual's lineality) are reduced row echelon rows of
Fraction, so `dim()` is `dim_ambient - len(span_eqs)`.  Two cones are
equal iff their canonical forms coincide, so structural equality is exact;
ints compare, hash and print like integral Fractions.

The double description method keeps, for every ray, an int bitset of the
inequalities tight on it: two rays are adjacent iff no third ray's bitset
contains the intersection of theirs (Fukuda & Prodon 1996).  A canonical
form takes one run, on one side of the duality; the other side is read
off the inputs' tight sets (`_describe`).

`Cone.from_ineqs` and `Cone.from_rays` are memoized, each in an LRU cache
of `_CACHE_SIZE` cones keyed on (dim, frozenset of the input vectors made
primitive, zero vectors dropped): order, duplicates and positive scaling
of the input change neither the key nor the cone.  The double description
method runs only on a miss; a cached `Cone` is a frozen dataclass of
tuples, shared by every caller.  Each cone computes its own two key sets
once (`ineq_key`, `ray_key`), so a derived cone (an intersection, a conic
sum, a half of an arrangement split, a facet) is looked up by the union
of its parents' keys, with no pass over their vectors.

Every sign test runs on ints: the query vector is made primitive once (a
positive multiple, so no sign changes) and dotted with the cone's int
rays or int inequalities.  `covers` is memoized in an LRU cache on
(region, set of pieces); `union_is_convex` is decided through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import SizeLimit
from .linalg import Vec, neg, primitive, reduce_mod, rref

_CACHE_SIZE = 512

IntVec = tuple[int, ...]


def _idot(a: IntVec, b: IntVec) -> int:
    return sum(x * y for x, y in zip(a, b))


def _dd_from_ineqs(dim: int, ineqs: Sequence[IntVec]) -> tuple[list[IntVec], list[IntVec], list[int]]:
    """Double description of {x : a.x >= 0 for a in ineqs}.

    The inequalities are nonzero primitive integer vectors.  Returns
    (lineality basis, extreme rays, incidence bitsets), the first two as
    primitive integer vectors; bit k of a ray's bitset is set iff
    ineqs[k] is tight on it.  Starts from all of R^dim and cuts one
    halfspace at a time; while lineality is present, a violated line is
    rotated into the ray set, after which the usual adjacency splitting
    applies in the pointed quotient.  All arithmetic is fraction-free:
    generators are scale-invariant, so every update may be rescaled.
    """
    lines: list[IntVec] = [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)
    ]
    rays: list[IntVec] = []
    zs: list[int] = []
    for k, a in enumerate(ineqs):
        bit = 1 << k
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
            # every old ray now lies on a.x = 0; the pivot, a former line,
            # is tight on every earlier inequality and not on a
            rays = new_rays + [pivot]
            zs = [z | bit for z in zs] + [bit - 1]
            continue
        vals = [_idot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            zs = [z | bit if v == 0 else z for z, v in zip(zs, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        nul = [i for i, v in enumerate(vals) if v == 0]
        negs = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [rays[i] for i in pos + nul]
        new_zs = [zs[i] for i in pos] + [zs[i] | bit for i in nul]
        # Two extreme rays (the list holds exactly those, modulo the
        # lineality) are adjacent iff no third ray is tight on every
        # inequality tight on both.  Adjacent rays span a 2-face, so at
        # least dim - len(lines) - 2 inequalities are tight on both.
        need = dim - len(lines) - 2
        for p, n in itertools.product(pos, negs):
            z = zs[p] & zs[n]
            if z.bit_count() < need or any(
                y & z == z for i, y in enumerate(zs) if i != p and i != n
            ):
                continue
            # combination on the hyperplane a.x = 0
            rp, rn = rays[p], rays[n]
            ap, an = vals[p], vals[n]
            cand = tuple(ap * x - an * y for x, y in zip(rn, rp))
            if any(x != 0 for x in cand):
                new_rays.append(primitive(cand))
                new_zs.append(z | bit)
        rays, zs = new_rays, new_zs
    return lines, rays, zs


def _key(vecs: Iterable[Sequence]) -> frozenset[IntVec]:
    """The memo key's vector set: primitive, nonzero, unordered."""
    return frozenset(p for p in (primitive(tuple(v)) for v in vecs) if any(p))


def _reduced(rays: list[IntVec], lin: list[Vec]) -> tuple[IntVec, ...]:
    """Sorted distinct nonzero primitive representatives modulo span(lin)."""
    if lin:
        rays = [primitive(reduce_mod(r, lin)) for r in rays]
    return tuple(sorted({r for r in rays if any(r)}))


def _describe(dim: int, vecs: list[IntVec]) -> tuple[tuple, tuple]:
    """Canonical (lineality, extreme generators) of C = cone(vecs) and of
    its dual D = {a : a.v >= 0 for v in vecs}, from one double description.

    The DD of D gives D's lineality and extreme rays (the facets of C),
    with the set of inputs each ray is tight on.  C's own description is
    read off those incidences, with no second DD:
    - every extreme ray of C, modulo its lineality, is among the inputs;
    - an input in the relative interior of a face of dimension >= 2
      (modulo the lineality) is tight on strictly fewer facets than an
      extreme ray of that face, which is also an input, so the extreme
      rays are the inputs whose tight sets are inclusion-maximal among
      those outside the lineality;
    - an input lies in the lineality iff it is tight on every facet, and
      these inputs span it: if sum(l_i v_i), l_i >= 0, lies in the
      lineality, every facet vanishes on it, hence on each v_i with
      l_i > 0.
    """
    d_lines, d_rays, zs = _dd_from_ineqs(dim, vecs)
    d_lin = rref(d_lines)
    # tight[k]: bitset of the extreme rays of D that are tight on vecs[k]
    tight = [sum(1 << j for j, z in enumerate(zs) if z >> k & 1) for k in range(len(vecs))]
    every = (1 << len(zs)) - 1
    lin = rref([v for v, t in zip(vecs, tight) if t == every])
    rest = {t for t in tight if t != every}
    top = {t for t in rest if not any(t != u and t & u == t for u in rest)}
    ext = _reduced([v for v, t in zip(vecs, tight) if t in top], lin)
    return (tuple(lin), ext), (tuple(d_lin), _reduced(d_rays, d_lin))


@lru_cache(maxsize=_CACHE_SIZE)
def _cone_from_ineqs(dim: int, key: frozenset[IntVec]) -> "Cone":
    (span_eqs, facets), (lin, ext) = _describe(dim, list(key))
    return Cone(dim, lin, ext, facets, span_eqs)


@lru_cache(maxsize=_CACHE_SIZE)
def _cone_from_rays(dim: int, key: frozenset[IntVec]) -> "Cone":
    (lin, ext), (span_eqs, facets) = _describe(dim, list(key))
    return Cone(dim, lin, ext, facets, span_eqs)


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

    @cached_property
    def rays(self) -> tuple[IntVec, ...]:
        """Generators: extreme rays plus both signs of each lineality vector."""
        both = tuple(primitive(l) for l in self.lines)
        return self.extreme_rays + both + tuple(neg(l) for l in both)

    @property
    def ineqs(self) -> tuple[Vec, ...]:
        """Full inequality description (facets plus span equalities, both signs)."""
        return self.facets + self.span_eqs + tuple(neg(e) for e in self.span_eqs)

    @cached_property
    def ineq_key(self) -> frozenset[IntVec]:
        """`_key(ineqs)`: this cone is `_cone_from_ineqs(dim_ambient, ineq_key)`."""
        return _key(self.ineqs)

    @cached_property
    def ray_key(self) -> frozenset[IntVec]:
        """`_key(rays)`: this cone is `_cone_from_rays(dim_ambient, ray_key)`."""
        return _key(self.rays)

    def dim(self) -> int:
        return self.dim_ambient - len(self.span_eqs)

    def is_full_dim(self) -> bool:
        return self.dim() == self.dim_ambient

    def is_pointed(self) -> bool:
        return not self.lines

    def contains(self, x: Sequence) -> bool:
        v = primitive(x)
        return all(_idot(a, v) >= 0 for a in self.ineq_key)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays)

    def in_dual(self, x: Sequence) -> bool:
        """Is l(x) >= 0 for every l in the cone?  (x lies in the dual cone.)"""
        v = primitive(x)
        return all(_idot(r, v) >= 0 for r in self.rays)

    def interior_point(self) -> IntVec:
        """A point in the relative interior, as ints: the sum of the extreme
        rays (the origin for a linear space, the origin cone included)."""
        total = (0,) * self.dim_ambient
        for r in self.extreme_rays:
            total = tuple(a + b for a, b in zip(total, r))
        return total

    def relint_contains(self, x: Sequence) -> bool:
        # ineq_key holds the facets and both signs of the span equations
        v = primitive(x)
        return all(_idot(a, v) >= 0 for a in self.ineq_key) and all(
            _idot(a, v) > 0 for a in self.facets)

    def __getstate__(self) -> dict:
        """Pickle the canonical fields only, not the cached `rays`,
        `ineq_key` and `ray_key`: they are recomputed where they are used."""
        return {f: self.__dict__[f] for f in self.__dataclass_fields__}

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
    return _cone_from_ineqs(c.dim_ambient, c.ray_key)


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    if c1.dim_ambient != c2.dim_ambient:
        raise ValueError("ambient dimensions differ")
    return _cone_from_ineqs(c1.dim_ambient, c1.ineq_key | c2.ineq_key)


def conic_sum(*cones: Cone) -> Cone:
    """Smallest cone containing all the cones: generated by all their rays."""
    dim = cones[0].dim_ambient
    if any(c.dim_ambient != dim for c in cones):
        raise ValueError("ambient dimensions differ")
    if len(cones) == 1:
        return cones[0]
    return _cone_from_rays(dim, frozenset().union(*(c.ray_key for c in cones)))


def restrict_arrangement(support: Cone, normals: Iterable[Sequence]) -> list[Cone]:
    """Full-dimensional (within support) cells of a hyperplane arrangement.

    Each hyperplane {x : a.x = 0} splits every current cell into the two
    closed halves, keeping the pieces whose dimension matches the support.
    """
    dim, sdim = support.dim_ambient, support.dim()
    cells = [support]
    for raw in normals:
        a = primitive(raw)
        if not any(a):
            continue
        na = neg(a)
        nxt: list[Cone] = []
        for cell in cells:
            vals = [_idot(a, r) for r in cell.rays]
            if not (any(v > 0 for v in vals) and any(v < 0 for v in vals)):
                nxt.append(cell)
                continue
            key = cell.ineq_key
            for half in (_cone_from_ineqs(dim, key | {a}), _cone_from_ineqs(dim, key | {na})):
                if half.dim() == sdim:
                    nxt.append(half)
        cells = nxt
    return list(dict.fromkeys(cells))  # distinct cells, first occurrence kept


def covers(region: Cone, pieces: list[Cone]) -> bool:
    """Does the union of pieces contain region?  Exact, by refinement.

    Refines region by every facet hyperplane of every piece and checks that
    each resulting cell (via an interior point) lies in some piece.
    """
    return _covers(region, frozenset(pieces))


@lru_cache(maxsize=_CACHE_SIZE)
def _covers(region: Cone, pieces: frozenset[Cone]) -> bool:
    normals = [a for p in pieces for a in p.facets]
    for cell in restrict_arrangement(region, normals):
        w = cell.interior_point()
        if not any(p.contains(w) for p in pieces):
            return False
    return True


def union_is_convex(cones: Iterable[Cone]) -> bool:
    """Is the union of the cones itself a convex cone?

    The union is convex iff it equals the conic sum of its members.
    """
    cones = list(cones)
    return not cones or covers(conic_sum(*cones), cones)


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
