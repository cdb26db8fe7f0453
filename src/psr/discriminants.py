"""Polyhedralised discriminants and high-multiplicity cone roots.

A classical discriminant in the coefficients c_i is polyhedralised by
replacing every scalar coefficient with the origin polytope, turning it
into a polynomial over the polyhedral semiring in the variables Y_i.
Evaluating it at a coefficient tuple and running the vertex-sharing root
test yields a necessary criterion for a product-form polynomial to admit
a repeated factor; the constructive converse produces affine-cone roots
of sharing >= 3 with a guaranteed solid-angle lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .cones import Cone, dual_cone, restrict_arrangement
from .errors import InvariantError, NotDiscriminantRoot, UnknownSupport
from .linalg import Vec, sub, zero
from .metric import SolidAngle, solid_angle
from .polyhedra import Polyhedron, inner_normal_cone, normal_fan_support
from .polynomials import (
    MultiPolyPolynomial,
    PolyPolynomial,
    coefficient_msum,
    is_root,
    rho_points,
    sharing_count,
)


@dataclass(frozen=True)
class ClassicalDiscriminant:
    """Integer-coefficient discriminant in the coefficients c_i, i in Xi."""

    support: tuple[int, ...]
    monomials: tuple[tuple[tuple[int, ...], Fraction], ...]  # (exponents by support order, coeff)


_BUILTIN: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {
    # b^2 - 4ac for c2 y^2 + c1 y + c0, variables ordered (c0, c1, c2)
    (0, 1, 2): (((0, 2, 0), 1), ((1, 0, 1), -4)),
    # -4 c3 c1^3 - 27 c3^2 c0^2 for c3 y^3 + c1 y + c0, variables (c0, c1, c3)
    (0, 1, 3): (((0, 3, 1), -4), ((2, 0, 2), -27)),
    # 18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2 for a y^3 + b y^2 + c y + d,
    # variables ordered (c0, c1, c2, c3) = (d, c, b, a)
    (0, 1, 2, 3): (
        ((1, 1, 1, 1), 18),
        ((1, 0, 3, 0), -4),
        ((0, 2, 2, 0), 1),
        ((0, 3, 0, 1), -4),
        ((2, 0, 0, 2), -27),
    ),
}


def classical_discriminant(support: Sequence[int]) -> ClassicalDiscriminant:
    key = tuple(sorted(support))
    if key not in _BUILTIN:
        raise UnknownSupport(f"no built-in discriminant for support {key}")
    return ClassicalDiscriminant(
        key, tuple((e, Fraction(c)) for e, c in _BUILTIN[key])
    )


@dataclass(frozen=True)
class PolyhedralisedDiscriminant:
    """The scalar-free shadow: every monomial coefficient becomes {0}."""

    support: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]  # one per monomial, merged

    def to_multi(self, dim: int) -> MultiPolyPolynomial:
        origin = Polyhedron.point(zero(dim))
        return MultiPolyPolynomial.make(
            len(self.support), {e: origin for e in self.exponents}
        )


def build_polyhedralised_discriminant(
    source: Sequence[int] | ClassicalDiscriminant,
) -> PolyhedralisedDiscriminant:
    disc = source if isinstance(source, ClassicalDiscriminant) else classical_discriminant(source)
    # scalars polyhedralise to {0}; monomials with equal exponents merge
    exps = sorted({e for e, _ in disc.monomials})
    return PolyhedralisedDiscriminant(disc.support, tuple(exps))


def is_discriminant_root(
    disc: PolyhedralisedDiscriminant, qs: Sequence[Polyhedron]
) -> tuple[bool, dict[Vec, list]]:
    """Multivariate vertex-sharing root test of the discriminant at (Q_i)."""
    if len(qs) != len(disc.support):
        raise UnknownSupport(
            f"expected {len(disc.support)} coefficients, got {len(qs)}"
        )
    return is_root(disc.to_multi(qs[0].dim_ambient), tuple(qs))


# ---------------------------------------------------------------------------
# High-multiplicity cone roots


@dataclass(frozen=True)
class ConeRoot:
    root: Polyhedron
    anchor: Vec
    triple: tuple[int, int, int]
    vertex: Vec  # vertex of M whose normal cone was refined
    angle: SolidAngle


def find_high_multiplicity_cone_root(
    phi: PolyPolynomial, samples: int = 200_000, seed: int = 0
) -> list[ConeRoot]:
    """Affine-cone roots shared by three summands, with solid angles.

    Requires the coefficient tuple to be a root of the polyhedralised
    discriminant of the support.  For each vertex v of M the normal cone
    N_M(v) is refined by all displacement-point difference hyperplanes;
    a cell C qualifies for a triple i1 < i2 < i3 with coinciding
    displacement points rho when, on all of C, the common affine form
    i*y + ell(q_i) of the triple weakly minorises every other summand.
    Each qualifying (cell, triple) yields the root rho + dual(C).
    """
    disc = build_polyhedralised_discriminant(phi.support)
    qs = [phi.coefficient(i) for i in phi.support]
    ok, _ = is_discriminant_root(disc, qs)
    if not ok:
        raise NotDiscriminantRoot(
            "the coefficient tuple is not a root of the polyhedralised discriminant"
        )
    msum = coefficient_msum(phi)
    m = msum.value
    sup = msum.support
    out: list[ConeRoot] = []
    seen: set[tuple[Vec, Cone]] = set()
    for v in m.vertices:
        parts = msum.decomposition[v]
        q_of = {i: parts[sup.index(i)] for i in sup}
        rhos = rho_points(phi, v, msum)
        # coinciding points give zero normals, which split nothing
        normals = [sub(rhos[a], rhos[b]) for a, b in itertools.combinations(rhos, 2)]
        cells = restrict_arrangement(inner_normal_cone(m, v), normals)
        for cell in cells:
            for i1, i2, i3 in itertools.combinations(sup, 3):
                r = rhos[(i1, i2)]
                if rhos[(i2, i3)] != r or rhos[(i1, i3)] != r:
                    continue
                # ell((q_i - q_i1) + (i - i1) rho) >= 0 on the cell, all i
                good = all(
                    cell.in_dual(tuple(
                        (qi - q1) + (i - i1) * rr
                        for qi, q1, rr in zip(q_of[i], q_of[i1], r)
                    ))
                    for i in sup
                )
                if not good:
                    continue
                if (r, cell) in seen:
                    continue
                seen.add((r, cell))
                root = Polyhedron.from_generators([r], dual_cone(cell).rays)
                if not is_root(phi, root)[0] or sharing_count(phi, root) < 3:
                    raise InvariantError("a cone root is not a root of multiplicity >= 3")
                out.append(ConeRoot(root, r, (i1, i2, i3), v,
                                    solid_angle(cell, samples=samples, seed=seed)))
    out.sort(key=lambda cr: (cr.vertex, cr.triple, cr.anchor))
    return out


def delta_mu_bound(phi: PolyPolynomial, samples: int = 200_000, seed: int = 0) -> tuple[Fraction, SolidAngle]:
    """(delta, mu(M)) where delta = 1 / (C(|Supp|,3) * |V(M)|)."""
    m = coefficient_msum(phi).value
    delta = Fraction(1, comb(len(phi.support), 3) * len(m.vertices))
    return delta, solid_angle(normal_fan_support(m), samples=samples, seed=seed)


@dataclass(frozen=True)
class DegeneracyWitness:
    root: Polyhedron
    sharing: int
    degenerate: bool  # full support relative to M; else weakly degenerate


def degeneracy_witness(
    phi: PolyPolynomial,
    factors: Sequence[Polyhedron],
    samples: int = 200_000,
    seed: int = 0,
) -> DegeneracyWitness | None:
    """Search for a root with sharing >= 3 given a product-form factorisation.

    Candidates are the factor polyhedra themselves and the cone roots from
    the discriminant converse (when the coefficient tuple is a
    discriminant root).  Absence of a witness is not a proof of
    non-degeneracy.
    """
    m = coefficient_msum(phi).value
    full = normal_fan_support(m)
    candidates: list[Polyhedron] = list(factors)
    try:
        candidates.extend(
            cr.root for cr in find_high_multiplicity_cone_root(phi, samples, seed)
        )
    except NotDiscriminantRoot:
        pass
    best: DegeneracyWitness | None = None
    for p in candidates:
        ok, witness = is_root(phi, p)
        if not ok:
            continue
        sharing = min(len(ix) for ix in witness.values())
        if sharing < 3:
            continue
        degenerate = normal_fan_support(p) == full
        cand = DegeneracyWitness(p, sharing, degenerate)
        if best is None or (cand.degenerate, cand.sharing) > (best.degenerate, best.sharing):
            best = cand
    return best
