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

from .cones import Cone, _cone_from_ineqs, restrict_arrangement, union_is_convex
from .errors import BadIndex, NonGeneric, SizeLimit
from .linalg import Vec, as_vec, neg, sub
from .polyhedra import inner_normal_cone
from .polynomials import (
    MSum,
    PolyPolynomial,
    coefficient_msum,
    displacement_hyperplanes,
    rho_points,
)

Pair = tuple[int, int]


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
    """Construct the labelled fan at a vertex v of the coefficient sum M."""
    msum = coefficient_msum(phi)
    key = as_vec(v)
    if key not in msum.decomposition:
        raise BadIndex(f"{v} is not a vertex of the coefficient sum")
    support = inner_normal_cone(msum.value, key)
    normals = displacement_hyperplanes(phi, key, msum)
    cones = restrict_arrangement(support, normals)
    pts = rho_points(phi, key, msum)
    sup = msum.support
    parts = msum.decomposition[key]

    def part(i: int) -> Vec:
        return parts[sup.index(i)]

    cells = []
    for cone in cones:
        primary = set()
        for (i, j), r in pts.items():
            # (i,j) primary iff mu(v_i + i r) <= mu(v_k + k r) on the cell,
            # i.e. (v_k - v_i) + (k - i) r lies in the dual of the cell.
            ok = all(
                cone.in_dual(tuple(a - b + (k - i) * c for a, b, c in zip(part(k), part(i), r)))
                for k in sup
            )
            if ok:
                primary.add((i, j))
        secondary = set()
        for p1, p2 in itertools.permutations(pts, 2):
            if cone.in_dual(sub(pts[p2], pts[p1])):
                secondary.add(p1 + p2)
        cells.append(LabelledCell(cone, frozenset(primary), frozenset(secondary)))
    return LabelledFanFv(phi, key, support, tuple(cells), pts, msum)


@dataclass(frozen=True)
class LCS:
    """A local compatible system: cell indices into a fan with label pairs."""

    cells: tuple[int, ...]
    pairs: tuple[Pair, ...]

    def items(self) -> tuple[tuple[int, Pair], ...]:
        return tuple(zip(self.cells, self.pairs))


def _facet_cones(cell: Cone) -> list[Cone]:
    return [_cone_from_ineqs(cell.dim_ambient, cell.ineq_key | {f, neg(f)}) for f in cell.facets]


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
    if violation is not None:
        return False, violation
    # Condition 4: facets against outside neighbours
    chosen = set(cand.cells)
    sdim = fan.support.dim()
    facet_map = {k: _facet_cones(fan.cells[k].cone) for k in cand.cells}
    for l, pair in cand.items():
        for facet in facet_map[l]:
            if facet.dim() != sdim - 1:
                continue
            # must be a facet of l alone among the chosen cells
            if any(
                other != l and any(facet == f2 for f2 in facet_map[other])
                for other in cand.cells
            ):
                continue
            neighbour = None
            for idx, cell in enumerate(fan.cells):
                if idx in chosen or idx == l:
                    continue
                if any(facet == f2 for f2 in _facet_cones(cell.cone)):
                    neighbour = idx
                    break
            if neighbour is None:
                continue  # boundary facet of the support: no constraint
            ncell = fan.cells[neighbour]
            if pair not in ncell.primary:
                continue
            if all(pair + pb in ncell.secondary for _, pb in cand.items() if pb != pair):
                return False, (
                    f"condition 4: neighbour cell {neighbour} of cell {l} "
                    f"carries primary {pair} and all secondary labels"
                )
    return True, None


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
                ok, _ = validate_lcs(fan, cand)
                if ok:
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
