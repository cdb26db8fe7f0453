"""Labelled fans at a vertex of the coefficient Minkowski sum, and local
compatible systems.

The normal cone of a vertex v of M is refined by two families of
displacement hyperplanes into a fan whose maximal cells carry primary
labels (pairs (i,j) whose displacement point can be a vertex of a v-local
solution with that cell as normal cone) and secondary labels (orderings of
two displacement points seen from the cell).  Local compatible systems are
selections of labelled cells satisfying the four gluing conditions, and
are the combinatorial core of the local solution theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cones import Cone, restrict_arrangement, union_is_convex
from .errors import BadIndex, NonGeneric, SizeLimit
from .linalg import Vec, as_vec, dot
from .polyhedra import inner_normal_cone
from .polynomials import (
    MSum,
    Pair,
    PolyPolynomial,
    arrangement_normals,
    coefficient_msum,
    displacement_normals,
)


@dataclass(frozen=True)
class LabelledCell:
    cone: Cone
    primary: frozenset[Pair]
    secondary: frozenset[tuple[int, int, int, int]]


@dataclass(frozen=True)
class LabelledFanFv:
    phi: PolyPolynomial
    vertex: Vec
    support: Cone  # N_M(v)
    cells: tuple[LabelledCell, ...]
    rho: dict[Pair, Vec]
    msum: MSum

    def is_generic_at_vertex(self) -> bool:
        vals = list(self.rho.values())
        return len(set(vals)) == len(vals)


def build_local_fan(phi: PolyPolynomial, v) -> LabelledFanFv:
    """Construct the labelled fan at a vertex v of the coefficient sum M.

    N_M(v) is cut by the displacement hyperplanes, and every label is the
    sign of one of those normals on a cell.  (i, j) is primary on a cell
    iff every family-one normal (v_k - v_i) + (k - i) rho_ij is >= 0 on it,
    that is mu(v_i + i rho) <= mu(v_k + k rho); p1 + p2 is secondary iff
    the family-two normal rho_p2 - rho_p1 is >= 0 on it.  Each nonzero
    normal cut the arrangement, so a cell lies on one closed side of it and
    the normal has one sign on the cell's relative interior: one int dot
    with an interior point decides the test for the whole cell.  A zero
    normal, or a cell inside the hyperplane, dots to 0 and passes.
    """
    msum = coefficient_msum(phi)
    key = as_vec(v)
    parts = msum.decomposition.get(key)
    if parts is None:
        raise BadIndex(f"{v} is not a vertex of the coefficient sum")
    support = inner_normal_cone(msum.value, key)
    pts, first, second = displacement_normals(msum.support, parts)
    cells = []
    for cone in restrict_arrangement(support, arrangement_normals(pts, first, second)):
        w = cone.interior_point()
        primary = frozenset(
            pair for pair in pts if all(dot(first[pair + (k,)], w) >= 0 for k in msum.support))
        secondary = frozenset(p1 + p2 for (p1, p2), h in second.items() if dot(h, w) >= 0)
        cells.append(LabelledCell(cone, primary, secondary))
    return LabelledFanFv(phi, key, support, tuple(cells), pts, msum)


@dataclass(frozen=True)
class LCS:
    """A local compatible system: cell indices into a fan with label pairs."""

    cells: tuple[int, ...]
    pairs: tuple[Pair, ...]

    def items(self) -> tuple[tuple[int, Pair], ...]:
        return tuple(zip(self.cells, self.pairs))


Incidence = tuple[list[list[tuple]], dict[tuple, list[int]]]


def _facet_incidence(fan: LabelledFanFv) -> Incidence:
    """Each cell's codimension-1 facets, in facet order, and for each such
    facet the cells that have it, in index order.

    A face of a cone has the cone's lineality, and its extreme rays are
    the cone's extreme rays on it, so (lineality, extreme rays on the
    facet hyperplane) names a facet exactly, with no cone built.
    """
    sdim = fan.support.dim()
    facets: list[list[tuple]] = []
    on: dict[tuple, list[int]] = {}
    for idx, cell in enumerate(fan.cells):
        c = cell.cone
        facets.append([] if c.dim() != sdim else [
            (c.lines, frozenset(r for r in c.extreme_rays if dot(f, r) == 0)) for f in c.facets])
        for f in facets[-1]:
            on.setdefault(f, []).append(idx)
    return facets, on


def _neighbour_violation(fan: LabelledFanFv, cand: LCS, incidence: Incidence) -> str | None:
    """Condition 4 on a system that satisfies conditions 1-3: no facet of a
    chosen cell l, shared with no other chosen cell, leads to a neighbour
    cell that carries l's pair as primary and all its secondary labels."""
    facets, on = incidence
    chosen = set(cand.cells)
    for l, pair in cand.items():
        for facet in facets[l]:
            cells = on[facet]
            if any(o != l and o in chosen for o in cells):
                continue  # a facet between two chosen cells
            neighbour = next((o for o in cells if o != l), None)
            if neighbour is None:
                continue  # boundary facet of the support: no constraint
            ncell = fan.cells[neighbour]
            if pair not in ncell.primary:
                continue
            if all(pair + pb in ncell.secondary for _, pb in cand.items() if pb != pair):
                return (
                    f"condition 4: neighbour cell {neighbour} of cell {l} "
                    f"carries primary {pair} and all secondary labels"
                )
    return None


def label_violation(fan: LabelledFanFv, cand: LCS) -> str | None:
    """The first of conditions 2, 3 and 1 that a structurally sound system
    violates, worded as `validate_lcs` reports it; None if all three hold.

    The label lookups of conditions 2 and 3 run before the convexity test
    of condition 1.
    """
    # Condition 2: primary labels
    for k, pair in cand.items():
        if pair not in fan.cells[k].primary:
            return f"condition 2: {pair} not primary on cell {k}"
    # Condition 3: pairwise secondary labels
    for (ka, pa), (kb, pb) in itertools.permutations(cand.items(), 2):
        if pa == pb:
            continue
        if pa + pb not in fan.cells[ka].secondary:
            return f"condition 3: {pa + pb} not secondary on cell {ka}"
    # Condition 1: per-vertex cone unions are convex
    groups: dict[Vec, list[int]] = {}
    for k, pair in cand.items():
        groups.setdefault(fan.rho[pair], []).append(k)
    for ks in groups.values():
        if len(ks) > 1 and not union_is_convex([fan.cells[k].cone for k in ks]):
            return f"condition 1: cells {ks} do not union to a convex cone"
    return None


def validate_lcs(fan: LabelledFanFv, cand: LCS) -> tuple[bool, str | None]:
    """Check the four compatibility conditions; returns (ok, violation)."""
    t = len(cand.cells)
    if t == 0 or t != len(cand.pairs):
        return False, "empty or mismatched system"
    if len(set(cand.cells)) != t:
        return False, "repeated cell"
    for k, pair in cand.items():
        if not (0 <= k < len(fan.cells)):
            return False, f"cell index {k} out of range"
        if tuple(sorted(pair)) not in {tuple(sorted(p)) for p in fan.rho}:
            return False, f"pair {pair} not in support pairs"
    violation = label_violation(fan, cand)
    if violation is None:
        violation = _neighbour_violation(fan, cand, _facet_incidence(fan))
    return violation is None, violation


def enumerate_lcs(
    fan: LabelledFanFv, cap_cells: int = 20, cap_candidates: int = 1_000_000
) -> list[LCS]:
    """All local compatible systems of a generic polynomial at a vertex.

    Exhaustive over cell subsets and primary-label assignments, with the
    pairwise secondary condition pruned during the search and the
    remaining conditions checked on complete candidates.
    """
    if not fan.is_generic_at_vertex():
        vals: dict[Vec, Pair] = {}
        for pair, pt in fan.rho.items():
            if pt in vals:
                raise NonGeneric(
                    f"displacement points of pairs {vals[pt]} and {pair} coincide at {pt}"
                )
            vals[pt] = pair
    n_cells = len(fan.cells)
    if n_cells > cap_cells:
        raise SizeLimit(f"{n_cells} cells exceeds cap {cap_cells}")
    total = 1
    for cell in fan.cells:
        total *= 1 + len(cell.primary)
        if total > cap_candidates:
            raise SizeLimit(f"candidate count exceeds cap {cap_candidates}")

    incidence = _facet_incidence(fan)
    out: list[LCS] = []

    def compatible(picked: list[tuple[int, Pair]], k: int, pair: Pair) -> bool:
        cell = fan.cells[k]
        for kp, pp in picked:
            if pp == pair:
                continue
            if pair + pp not in cell.secondary:
                return False
            if pp + pair not in fan.cells[kp].secondary:
                return False
        return True

    def dfs(idx: int, picked: list[tuple[int, Pair]]) -> None:
        if idx == n_cells:
            if picked:
                cand = LCS(tuple(k for k, _ in picked), tuple(p for _, p in picked))
                if (label_violation(fan, cand) is None
                        and _neighbour_violation(fan, cand, incidence) is None):
                    out.append(cand)
            return
        dfs(idx + 1, picked)
        for pair in sorted(fan.cells[idx].primary):
            if compatible(picked, idx, pair):
                picked.append((idx, pair))
                dfs(idx + 1, picked)
                picked.pop()

    dfs(0, [])
    out.sort(key=lambda s: (len(s.cells), s.cells, s.pairs))
    return out
