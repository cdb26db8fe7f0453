import random
from fractions import Fraction as F

import pytest

from genutil import poly, pt, random_generic_poly, random_polytope, seg, vertices_of_m
from psr.cones import Cone
from psr.errors import NotARoot, SupportMismatch
from psr.linalg import as_vec
from psr.localfan import LCS, build_local_fan, enumerate_lcs
from psr.polyhedra import Polyhedron, convex_hull, minkowski_sum
from psr.polynomials import PolyPolynomial, evaluate
from psr.vcc import (
    VCC,
    associated_polyhedron,
    associated_vcc,
    completion,
    enumerate_mw_minimal_local_solutions,
    lcs_to_vcc,
    minimalize,
    supports_equal,
    vcc_convex_hull,
    vcc_is_root,
    vcc_minkowski_sum,
    vcc_to_lcs,
)
from psr.vcc import _evaluate_shifted

QUAD = PolyPolynomial.make({0: pt(3), 1: pt(1), 2: pt(0)})
RGE0 = Cone.from_rays([(F(1),)], 1)
RLE0 = Cone.from_rays([(F(-1),)], 1)
RALL = Cone.full_space(1)


def V(*pairs):
    return VCC.make([(as_vec(v), c) for v, c in pairs])


def test_validity():
    ok, _ = V(((0,), RGE0), ((2,), RLE0)).is_valid()
    assert ok
    # swapped cones violate the separation inequality
    ok, why = V(((0,), RLE0), ((2,), RGE0)).is_valid()
    assert not ok
    # non-full-dimensional cone
    ok, _ = V(((0,), Cone.origin(1))).is_valid()
    assert not ok


def test_associated_vcc_roundtrip():
    p = poly((0, 0), (2, 0), (0, 2))
    g = associated_vcc(p)
    assert set(g.vertices) == set(p.vertices)
    assert g.is_valid()[0]


def test_vcc_convex_hull_examples():
    g = V(((0,), RGE0), ((2,), RLE0))
    assert vcc_convex_hull(g, g) == g
    h = V(((1,), RGE0), ((1,), RLE0))
    # pointwise hull: matches the polyhedral oracle conv([0,2] u {1}) = [0,2]
    assert vcc_convex_hull(g, h) == V(((0,), RGE0), ((2,), RLE0))


def test_vcc_hull_matches_polyhedral_oracle():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice([1, 2])
        p, q = random_polytope(rng, n, 4), random_polytope(rng, n, 4)
        got = vcc_convex_hull(associated_vcc(p), associated_vcc(q))
        assert got == associated_vcc(convex_hull(p, q))


def test_vcc_minkowski_examples():
    g = V(((0,), RGE0), ((2,), RLE0))
    assert vcc_minkowski_sum(g, V(((0,), RALL))) == g
    assert vcc_minkowski_sum(V(((0,), RGE0)), V(((5,), RGE0))) == V(((5,), RGE0))
    with pytest.raises(SupportMismatch):
        vcc_minkowski_sum(V(((0,), RGE0)), V(((0,), RLE0)))


def test_vcc_minkowski_matches_polyhedral_oracle():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.choice([1, 2])
        p, q = random_polytope(rng, n, 4), random_polytope(rng, n, 4)
        got = vcc_minkowski_sum(associated_vcc(p), associated_vcc(q))
        assert got == associated_vcc(minkowski_sum(p, q))


def test_vcc_evaluate_quadratic():
    # a constant term shifts the evaluation to phi * Y: the value gains the
    # argument's vertex 1, so phi(g) = (2, R>=0) reads (3, R>=0)
    total, summands, shift = _evaluate_shifted(QUAD, V(((1,), RGE0)))
    assert shift == 1
    assert total == V(((3,), RGE0))
    assert set(summands) == {0, 1, 2}


def test_vcc_evaluate_matches_restricted_polyhedral_oracle():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.choice([1, 2])
        phi = PolyPolynomial.make(
            {i: random_polytope(rng, n, 3) for i in (0, 1, 2)}
        )
        p = random_polytope(rng, n, 3)
        got, _, shift = _evaluate_shifted(phi, associated_vcc(p))
        want = associated_vcc(evaluate(phi.shift(shift), p)[0])
        assert got == want


def test_vcc_is_root_examples():
    assert vcc_is_root(QUAD, V(((1,), RGE0)))[0]
    assert not vcc_is_root(QUAD, V(((2,), RALL)))[0]
    assert not vcc_is_root(QUAD, V(((7,), RALL)))[0]


def quad_fan():
    return build_local_fan(QUAD, (F(4),))


def test_lcs_to_vcc_and_back():
    fan = quad_fan()
    idx = {c.cone: i for i, c in enumerate(fan.cells)}
    two_cell = LCS(
        tuple(sorted((idx[RGE0], idx[RLE0]))),
        ((1, 2), (0, 2)) if idx[RGE0] < idx[RLE0] else ((0, 2), (1, 2)),
    )
    g = lcs_to_vcc(fan, two_cell)
    assert g == V(((1,), RGE0), ((F(3, 2),), RLE0))
    assert vcc_is_root(QUAD, g)[0]
    assert vcc_to_lcs(fan, g) == two_cell


def test_every_enumerated_lcs_gives_a_root_vcc():
    fan = quad_fan()
    for lcs in enumerate_lcs(fan):
        g = lcs_to_vcc(fan, lcs)
        assert g.is_valid()[0]
        assert vcc_is_root(QUAD, g)[0]
        assert minimalize(fan, g) == g
        assert vcc_to_lcs(fan, g) == lcs


def test_completion_examples():
    fan = quad_fan()
    ray2 = Polyhedron.from_generators([(F(2),)], [(F(1),)])
    assert completion(fan, ray2) == V(((2,), RGE0))
    with pytest.raises(NotARoot):
        completion(fan, Polyhedron.point((F(7),)))


def test_minimalize_fixed_point():
    fan = quad_fan()
    b0 = V(((1,), RGE0))
    assert minimalize(fan, b0) == b0


def test_enumerate_solutions_quadratic():
    sols = enumerate_mw_minimal_local_solutions(QUAD, (F(4),))
    expected = {
        Polyhedron.from_generators([(F(2),)], [(F(1),)]),
        Polyhedron.from_generators([(F(1),)], [(F(1),)]),
        Polyhedron.from_generators([(F(3, 2),)], [(F(-1),)]),
        seg(1, F(3, 2)),
    }
    assert set(sols) == expected


def test_enumerate_solutions_linear():
    lin = PolyPolynomial.make({1: seg(-1, 1), 0: pt(0)})
    sols = enumerate_mw_minimal_local_solutions(lin, (F(-1),))
    assert sols == [Polyhedron.from_generators([(F(1),)], [(F(1),)])]


def test_generic_roundtrip_random():
    rng = random.Random(21)
    done = 0
    while done < 6:
        phi = random_generic_poly(rng, 2, (0, 1, 2), max_pts=2)
        for v in vertices_of_m(phi):
            fan = build_local_fan(phi, v)
            for lcs in enumerate_lcs(fan):
                g = lcs_to_vcc(fan, lcs)
                assert vcc_is_root(phi, g)[0]
                assert vcc_to_lcs(fan, g) == lcs
        done += 1
