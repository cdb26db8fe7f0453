"""The one-pass labelled fan against `localfan_oracle`, the construction it
replaced: the same `MSum`, cells (in order), labels and rho points, the
same arrangement normals up to positive scaling, the same `validate_lcs`
verdicts and messages, and the same `enumerate_lcs` output."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import localfan_oracle as oracle
from genutil import random_generic_poly
from psr.linalg import primitive
from psr.localfan import LCS, build_local_fan, enumerate_lcs, validate_lcs
from psr.polyhedra import Polyhedron
from psr.polynomials import (
    PolyPolynomial,
    coefficient_msum,
    displacement_hyperplanes,
    is_generic,
)

CUBE_EDGE = PolyPolynomial.make({
    0: Polyhedron.from_generators([(0, 0, 0), (1, 0, 0)]),
    1: Polyhedron.from_generators([(0, 0, 0), (0, 1, 0)]),
    2: Polyhedron.from_generators([(0, 0, 0), (0, 0, 1)]),
    3: Polyhedron.point((-1, 1, 1)),
})


def _fields(fan):
    return (fan.phi, fan.vertex, fan.support, list(fan.rho.items()), fan.msum,
            [(c.cone, c.primary, c.secondary) for c in fan.cells])


def assert_same_fans(phi: PolyPolynomial) -> list:
    """Equal MSum and equal fans at every vertex of M; returns the fans."""
    msum = coefficient_msum(phi)
    assert msum == oracle.coefficient_msum(phi)
    fans = []
    for v in sorted(msum.value.vertices):
        fan = build_local_fan(phi, v)
        assert _fields(fan) == _fields(oracle.build_local_fan(phi, v)), (phi, v)
        old = oracle.displacement_hyperplanes(msum, v)
        assert displacement_hyperplanes(phi, v) == [primitive(h) for h in old]
        fans.append(fan)
    return fans


def _acceptance_polys():
    """The generic polynomials of acceptance criteria 4 (R^2) and 5 (R^1,
    R^2), a prefix of each seeded stream, and the cube-edge cubic of
    criterion 3 (R^3, not generic)."""
    out = [CUBE_EDGE]
    for seed, count, dims, supports in (
        (104, 15, (2,), ((0, 1, 2), (0, 1, 3), (0, 1, 2, 3))),
        (105, 25, (1, 2), ((0, 1, 2), (0, 1, 3))),
    ):
        rng = random.Random(seed)
        done = 0
        while done < count:
            support = rng.choice(supports)
            n = rng.choice(dims) if len(dims) > 1 else dims[0]
            try:
                out.append(random_generic_poly(rng, n, support, max_pts=2, tries=50))
            except RuntimeError:
                continue
            done += 1
    return out


ACCEPTANCE = _acceptance_polys()


@st.composite
def polys(draw):
    """Polynomials in R^1-R^3 on small lattices: point coefficients,
    polytopes of up to three points, and recession rays from the
    nonnegative orthant (so that every Minkowski sum stays pointed).  Some
    coefficients are the points b - i t of one line, which makes their rho
    points coincide at t (non-generic vertices)."""
    n = draw(st.integers(1, 3))
    support = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True))
    point = st.tuples(*[st.integers(-2, 2)] * n)
    ray = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    b, t = draw(point), draw(point)
    terms = {}
    for i in support:
        if draw(st.booleans()):
            terms[i] = Polyhedron.point(tuple(x - i * y for x, y in zip(b, t)))
            continue
        pts = draw(st.lists(point, min_size=1, max_size=3))
        rays = draw(st.lists(ray, max_size=1 if n < 3 else 0))
        terms[i] = Polyhedron.from_generators(pts, rays, dim=n)
    return PolyPolynomial.make(terms)


def test_fans_match_oracle_on_acceptance_corpora():
    for phi in ACCEPTANCE:
        assert_same_fans(phi)


def test_fans_match_oracle_on_non_generic_polynomials():
    """Three coefficients on one line b - i t share their rho point t; the
    fourth is a random polytope, sometimes with a recession ray."""
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        b, t = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(2))
        support = rng.sample(range(5), 4)
        terms = {i: Polyhedron.point(tuple(x - i * y for x, y in zip(b, t)))
                 for i in support[:3]}
        rays = [[rng.randint(0, 1) for _ in range(n)]] if rng.random() < 0.5 else []
        terms[support[3]] = Polyhedron.from_generators(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)],
            [r for r in rays if any(r)], dim=n)
        phi = PolyPolynomial.make(terms)
        assert not is_generic(phi)[0]
        assert_same_fans(phi)


@settings(max_examples=150, deadline=None)
@given(polys())
def test_fans_match_oracle_on_random_polynomials(phi):
    assert_same_fans(phi)


def _candidates(fan, rng: random.Random) -> list[LCS]:
    """Systems of one to three cells labelled from their primary labels or
    any support pair, plus structurally broken ones."""
    n = len(fan.cells)
    pairs = sorted(fan.rho)
    out = [LCS((), ()), LCS((0, 0), (pairs[0], pairs[0])), LCS((n,), (pairs[0],)),
           LCS((0,), ((9, 9),))]
    for size in range(1, min(n, 3) + 1):
        for cells in itertools.combinations(range(n), size):
            labels = [sorted(fan.cells[k].primary) or pairs for k in cells]
            for choice in itertools.product(*labels):
                out.append(LCS(cells, choice))
            out.append(LCS(cells, tuple(rng.choice(pairs) for _ in cells)))
    return out


def test_validate_and_enumerate_lcs_match_oracle():
    rng = random.Random(12)
    fans = [f for phi in ACCEPTANCE[1:] for f in assert_same_fans(phi) if len(f.cells) <= 6]
    messages = []
    for fan in fans:
        for lcs in _candidates(fan, rng):
            got = validate_lcs(fan, lcs)
            assert got == oracle.validate_lcs(fan, lcs), lcs
            messages.append(got[1])
        assert enumerate_lcs(fan) == oracle.enumerate_lcs(fan)
    # every condition, the fourth included, rejects some candidate
    for k in (1, 2, 3, 4):
        assert any(m and m.startswith(f"condition {k}:") for m in messages), k
    assert messages.count(None) > 0

