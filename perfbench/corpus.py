"""Seeded input generators and the canonical answer encoding.

The generators live with the benchmark, not in the test helpers, so that
editing a test cannot change what the benchmark measures.  Every input
class draws from its own ``random.Random`` seeded by (workload, class,
seed): the same seed always yields the same inputs, and adding a class
leaves the inputs of the others unchanged.

The canonical encoding is written here too, independently of
``psr.jsonio``, so that answer digests do not depend on the serialiser
under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from psr.polyhedra import Polyhedron
from psr.polynomials import PolyPolynomial, is_generic, product_expand


def class_rng(workload: str, cls: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{cls}/{seed}")


def polytope(rng: random.Random, n: int, npts: int, lo: int = -6, hi: int = 6) -> Polyhedron:
    """Convex hull of npts random integer points in [lo, hi]^n."""
    pts = [tuple(Fraction(rng.randint(lo, hi)) for _ in range(n)) for _ in range(npts)]
    return Polyhedron.from_generators(pts)


def generic_poly(
    rng: random.Random,
    n: int,
    support: tuple[int, ...],
    max_pts: int,
    min_pts: int = 1,
    lo: int = -6,
    hi: int = 6,
    n_points: int = 0,
) -> PolyPolynomial:
    """A polynomial whose displacement points are distinct at every vertex.

    Each coefficient is the hull of min_pts..max_pts random points, except
    n_points randomly placed coefficients, which are single points.
    """
    for _ in range(500):
        sizes = [rng.randint(min_pts, max_pts) for _ in support]
        for k in rng.sample(range(len(support)), n_points):
            sizes[k] = 1
        phi = PolyPolynomial.make({
            i: polytope(rng, n, k, lo, hi) for i, k in zip(support, sizes)
        })
        if is_generic(phi)[0]:
            return phi
    raise RuntimeError(f"no generic polynomial with support {support} in R^{n}")


def product_form(
    rng: random.Random, n: int, sizes: list[int]
) -> tuple[PolyPolynomial, list[Polyhedron]]:
    """q * prod_i (Y + P_i) for a point q and factors of sizes[i] points."""
    factors = [polytope(rng, n, k, -2, 2) for k in sizes]
    return product_expand(polytope(rng, n, 1, -2, 2), factors), factors


# ---------------------------------------------------------------------------
# canonical encoding


def vec(v) -> list[str]:
    return [str(Fraction(x)) for x in v]


def polyhedron(p: Polyhedron) -> dict:
    return {"vertices": [vec(v) for v in p.vertices], "rays": [vec(r) for r in p.rec_rays]}


def polynomial(phi: PolyPolynomial) -> list:
    return [[i, polyhedron(q)] for i, q in phi.terms]


def cone(c) -> dict:
    return {"lines": [vec(l) for l in c.lines], "rays": [vec(r) for r in c.extreme_rays]}


def vcc(g) -> list:
    return [[vec(v), cone(c)] for v, c in g.pairs]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        h.update(dumps(obj).encode())
        h.update(b"\n")
    return h.hexdigest()
