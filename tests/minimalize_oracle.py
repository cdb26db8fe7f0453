"""Reference `minimalize` for differential tests.

`psr.vcc.minimalize` as it was before it decided candidates by the LCS
label conditions: every candidate enlargement is built as a VCC and kept
iff its per-vertex cell unions are convex, it is valid and it is a root
(`vcc_is_root`), so phi is evaluated at every candidate.  When `verdicts`
is a list, each candidate the search decides is appended to it as
(assignment, kept), the assignment mapping each vertex to its cell set.
"""

from __future__ import annotations

import itertools

from psr.cones import conic_sum, union_is_convex
from psr.errors import SizeLimit
from psr.linalg import Vec, dot, primitive, sub
from psr.localfan import LabelledFanFv
from psr.vcc import VCC, _cells_meeting, completion, vcc_is_root


def minimalize(fan: LabelledFanFv, b0: VCC, cap_candidates: int = 1_000_000,
               verdicts: list | None = None) -> VCC:
    com = completion(fan, b0)
    assigned: dict[Vec, set[int]] = {}
    for gamma, c in com.pairs:
        assigned.setdefault(gamma, set()).update(_cells_meeting(fan, c))
    verts = sorted(assigned)
    used = set().union(*assigned.values())
    free = [k for k in range(len(fan.cells)) if k not in used]

    def admissible(k: int, gamma: Vec) -> bool:
        diffs = [primitive(sub(u, gamma)) for u in verts if u != gamma]
        return all(dot(r, d) >= 0 for r in fan.cells[k].cone.extreme_rays for d in diffs)

    options = [
        [len(verts)] + [i for i, g in enumerate(verts) if admissible(k, g)]
        for k in free
    ]
    n_options = 1
    for opts in options:
        n_options *= len(opts)
    if n_options > cap_candidates:
        raise SizeLimit(f"{n_options} enlargements exceed cap {cap_candidates}")

    def build(assignment: dict[Vec, set[int]]) -> VCC | None:
        pairs = []
        for gamma in verts:
            cones = [fan.cells[k].cone for k in sorted(assignment[gamma])]
            if len(cones) > 1 and not union_is_convex(cones):
                return None
            pairs.append((gamma, conic_sum(*cones)))
        cand = VCC.make(pairs)
        if not cand.is_valid()[0]:
            return None
        if not vcc_is_root(fan.phi, cand)[0]:
            return None
        return cand

    best = com
    best_cells = frozenset(used)
    for choice in itertools.product(*options):
        extra: dict[Vec, set[int]] = {g: set(ks) for g, ks in assigned.items()}
        for cell, pick in zip(free, choice):
            if pick < len(verts):
                extra[verts[pick]].add(cell)
        cells_now = frozenset().union(*extra.values())
        if cells_now == best_cells and best is not None:
            continue
        cand = build(extra)
        if verdicts is not None:
            verdicts.append((extra, cand is not None))
        if cand is not None and best_cells < cells_now:
            best, best_cells = cand, cells_now
    return best
