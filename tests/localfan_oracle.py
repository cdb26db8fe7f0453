"""The labelled fan as it was built before the one-pass construction:
kept as a differential oracle for `psr.localfan` and `psr.polynomials`.

`coefficient_msum` decomposes each vertex of M by an interior functional
of its normal cone; `build_local_fan` decides every label by `in_dual` on
Fraction normals; condition 4 rebuilds the facet cones of every fan cell
for every facet of every chosen cell.  Only `label_violation` (conditions
1-3) is shared with the library.
"""

from __future__ import annotations

import itertools

from psr.cones import Cone, _cone_from_ineqs, restrict_arrangement
from psr.errors import BadIndex, InvariantError, NonGeneric, SizeLimit
from psr.linalg import Vec, as_vec, neg, sub
from psr.localfan import LCS, LabelledCell, LabelledFanFv, Pair, label_violation
from psr.polyhedra import inner_normal_cone, minkowski_sum
from psr.polynomials import MSum, PolyPolynomial


def coefficient_msum(phi: PolyPolynomial) -> MSum:
    m = None
    for _, q in phi.terms:
        m = q if m is None else minkowski_sum(m, q)
    decomp: dict[Vec, tuple[Vec, ...]] = {}
    for nu in m.vertices:
        ell = inner_normal_cone(m, nu).interior_point()
        parts = []
        for _, q in phi.terms:
            mins = q.argmin_vertices(ell)
            if len(mins) != 1:
                raise InvariantError("interior functional exposes no unique vertex")
            parts.append(mins[0])
        if tuple(sum(c) for c in zip(*parts)) != nu:
            raise InvariantError("the exposed coefficient vertices do not sum to the vertex")
        decomp[nu] = tuple(parts)
    return MSum(m, phi.support, decomp)


def rho_points(msum: MSum, key: Vec) -> dict[Pair, Vec]:
    sup = msum.support
    parts = msum.decomposition[key]
    out = {}
    for i, j in itertools.combinations(sup, 2):
        nu_i = parts[sup.index(i)]
        nu_j = parts[sup.index(j)]
        out[(i, j)] = tuple(-(a - b) / (i - j) for a, b in zip(nu_i, nu_j))
    return out


def displacement_hyperplanes(msum: MSum, key: Vec) -> list[Vec]:
    sup = msum.support
    parts = msum.decomposition[key]
    pts = rho_points(msum, key)
    normals: list[Vec] = []
    for (i, j), r in pts.items():
        vi = parts[sup.index(i)]
        for k in sup:
            vk = parts[sup.index(k)]
            h = tuple(a - b + (k - i) * c for a, b, c in zip(vk, vi, r))
            if any(x != 0 for x in h):
                normals.append(h)
    for (p1, r1), (p2, r2) in itertools.combinations(pts.items(), 2):
        h = sub(r1, r2)
        if any(x != 0 for x in h):
            normals.append(h)
    return normals


def build_local_fan(phi: PolyPolynomial, v) -> LabelledFanFv:
    msum = coefficient_msum(phi)
    key = as_vec(v)
    if key not in msum.decomposition:
        raise BadIndex(f"{v} is not a vertex of the coefficient sum")
    support = inner_normal_cone(msum.value, key)
    normals = displacement_hyperplanes(msum, key)
    cones = restrict_arrangement(support, normals)
    pts = rho_points(msum, key)
    sup = msum.support
    parts = msum.decomposition[key]

    def part(i: int) -> Vec:
        return parts[sup.index(i)]

    cells = []
    for cone in cones:
        primary = set()
        for (i, j), r in pts.items():
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


def _facet_cones(cell: Cone) -> list[Cone]:
    return [_cone_from_ineqs(cell.dim_ambient, cell.ineq_key | {f, neg(f)}) for f in cell.facets]


def validate_lcs(fan: LabelledFanFv, cand: LCS) -> tuple[bool, str | None]:
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
