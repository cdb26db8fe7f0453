import random
from fractions import Fraction as F

import pytest

from genutil import interval_is_root_oracle, poly, pt, ray1, seg
from psr.errors import BadIndex, BadSupport, NonGeneric, NotARoot, Unbounded
from psr.linalg import as_vec
from psr.polyhedra import OmegaOrder, Polyhedron
from psr.polynomials import (
    MultiPolyPolynomial,
    PolyPolynomial,
    TropPolynomial,
    affine_cone_root,
    coefficient_msum,
    evaluate,
    is_generic,
    is_root,
    power,
    product_expand,
    rho,
    rho_points,
    same_function,
    sharing_count,
    tropical_roots,
    tropicalize,
)

QUAD = PolyPolynomial.make({0: pt(3), 1: pt(1), 2: pt(0)})  # y^2 + y + 3 shadow
QUAD_DEG = PolyPolynomial.make({0: pt(2), 1: pt(1), 2: pt(0)})
LIN = PolyPolynomial.make({1: seg(-1, 1), 0: seg(-2, 2)})
LIN0 = PolyPolynomial.make({1: seg(-1, 1), 0: pt(0)})


def test_make_validation():
    with pytest.raises(Exception):
        PolyPolynomial.make({})
    with pytest.raises(Exception):
        PolyPolynomial.make({-1: pt(0)})
    with pytest.raises(Exception):
        PolyPolynomial.make({0: pt(0), 1: pt(0, 0)})


def test_evaluate_examples():
    total, summands = evaluate(LIN, seg(-1, 1))
    assert total == seg(-2, 2)
    assert summands[1] == seg(-2, 2) and summands[0] == seg(-2, 2)
    q = poly((0, 0), (1, 2))
    ident = PolyPolynomial.make({1: q, 0: q})
    total, summands = evaluate(ident, Polyhedron.point((F(0), F(0))))
    assert total == q and summands[0] == q == summands[1]
    total, _ = evaluate(QUAD, seg(1, F(3, 2)))
    assert total == seg(2, 3)


def test_is_root_examples():
    ok, witness = is_root(LIN, seg(-1, 1))
    assert ok
    assert witness == {(F(-2),): [0, 1], (F(2),): [0, 1]}
    assert is_root(LIN0, ray1(1, 1))[0]
    assert not is_root(PolyPolynomial.make({1: pt(0), 0: pt(1)}), pt(5))[0]


def test_sharing_count_examples():
    assert sharing_count(LIN, seg(-1, 1)) == 2
    assert sharing_count(QUAD_DEG, ray1(1, 1)) == 3
    assert sharing_count(QUAD, seg(1, F(3, 2))) == 2
    with pytest.raises(NotARoot):
        sharing_count(QUAD, pt(7))


def test_coefficient_msum_examples():
    sq = PolyPolynomial.make({0: poly((0, 0), (1, 0)), 1: poly((0, 0), (0, 1))})
    ms = coefficient_msum(sq)
    assert ms.decomposition[(F(1), F(1))] == ((F(1), F(0)), (F(0), F(1)))
    ms = coefficient_msum(LIN)
    assert ms.value == seg(-3, 3)
    assert ms.decomposition[(F(-3),)] == ((F(-2),), (F(-1),))
    ms = coefficient_msum(QUAD)
    assert ms.value == pt(4)
    assert ms.decomposition[(F(4),)] == ((F(3),), (F(1),), (F(0),))


def test_rho_examples():
    zero = PolyPolynomial.make({0: pt(0), 1: pt(0)})
    assert rho(zero, (F(0),), 0, 1) == (F(0),)
    assert rho(LIN0, (F(-1),), 0, 1) == (F(1),)
    assert rho_points(QUAD, (F(4),)) == {
        (0, 1): (F(2),), (0, 2): (F(3, 2),), (1, 2): (F(1),)
    }
    with pytest.raises(BadIndex):
        rho(QUAD, (F(4),), 1, 1)
    with pytest.raises(BadIndex):
        rho(QUAD, (F(9),), 0, 1)


def test_cube_edge_cubic_rho_coincidence():
    q0 = poly((0, 0, 0), (1, 0, 0))
    q1 = poly((0, 0, 0), (0, 1, 0))
    q2 = poly((0, 0, 0), (0, 0, 1))
    q3 = Polyhedron.point((F(-1), F(1), F(1)))
    phi = PolyPolynomial.make({0: q0, 1: q1, 2: q2, 3: q3})
    vhat = (F(0), F(2), F(2))
    rp = rho_points(phi, vhat)
    assert rp[(1, 3)] == rp[(0, 2)] == (F(1, 2), F(0), F(-1, 2))
    ok, _ = is_generic(phi)
    assert not ok


def test_is_generic():
    assert is_generic(LIN)[0]
    assert is_generic(QUAD)[0]
    ok, witness = is_generic(QUAD_DEG)
    assert not ok
    v, p1, p2 = witness
    assert v == (F(3),) and {p1, p2} <= {(0, 1), (0, 2), (1, 2)}


def test_affine_cone_root():
    omega = OmegaOrder(1)
    assert affine_cone_root(LIN0, omega) == ray1(1, 1)
    assert affine_cone_root(QUAD, omega) == ray1(1, 1)
    lin_pts = PolyPolynomial.make({1: pt(2), 0: pt(7)})
    assert affine_cone_root(lin_pts, omega) == pt(5)
    for phi in (LIN0, QUAD, lin_pts):
        assert is_root(phi, affine_cone_root(phi, omega))[0]


def test_tropicalize():
    psi = tropicalize(LIN, (F(1),))
    assert dict(psi.terms) == {0: F(-2), 1: F(-1)}
    psi = tropicalize(QUAD_DEG, (F(1),))
    assert dict(psi.terms) == {0: F(2), 1: F(1), 2: F(0)}
    with pytest.raises(Unbounded):
        tropicalize(PolyPolynomial.make({0: ray1(0, -1)}), (F(1),))


def test_tropical_roots():
    assert sorted(
        tropical_roots(TropPolynomial.make({0: F(3), 1: F(1), 2: F(0)}))
    ) == [(F(1), 1), (F(2), 1)]
    assert tropical_roots(TropPolynomial.make({0: F(2), 1: F(1), 2: F(0)})) == [
        (F(1), 2)
    ]
    assert tropical_roots(TropPolynomial.make({3: F(7)})) == []


def test_same_function():
    assert same_function(QUAD, QUAD)
    # with point middle coefficients the envelopes differ at negative
    # functionals (e.g. l = -1, y = 0: min(0,-1,0) vs min(0,-5,0))
    a = PolyPolynomial.make({2: pt(0), 1: pt(1), 0: pt(0)})
    b = PolyPolynomial.make({2: pt(0), 1: pt(5), 0: pt(0)})
    assert not same_function(a, b)
    # with upward-ray middle coefficients the common support is l >= 0 and
    # the middle term is never strictly active in either
    ar = PolyPolynomial.make({2: ray1(0, 1), 1: ray1(1, 1), 0: ray1(0, 1)})
    br = PolyPolynomial.make({2: ray1(0, 1), 1: ray1(5, 1), 0: ray1(0, 1)})
    assert same_function(ar, br)
    assert not same_function(
        PolyPolynomial.make({1: pt(0), 0: pt(0)}),
        PolyPolynomial.make({1: pt(0), 0: pt(1)}),
    )


def test_product_expand():
    phi = product_expand(pt(0), [pt(2), pt(5)])
    assert phi.coefficient(2) == pt(0)
    assert phi.coefficient(1) == seg(2, 5)
    assert phi.coefficient(0) == pt(7)
    p = seg(0, 1)
    phi = product_expand(pt(0), [p, p])
    assert phi.coefficient(1) == p and phi.coefficient(0) == power(p, 2)
    assert product_expand(seg(1, 2), []) == PolyPolynomial.make({0: seg(1, 2)})
    # every factor is a root of the expansion
    for factor in (pt(2), pt(5)):
        assert is_root(product_expand(pt(0), [pt(2), pt(5)]), factor)[0]


def test_polyhedralise():
    d = MultiPolyPolynomial.make(3, {(0, 2, 0): pt(0, 0), (1, 0, 1): pt(0, 0)})
    assert isinstance(d, MultiPolyPolynomial)
    assert d.support == ((0, 2, 0), (1, 0, 1))


def test_multivariate_root():
    d = MultiPolyPolynomial.make(3, {(0, 2, 0): pt(0), (1, 0, 1): pt(0)})
    p = seg(0, 1)
    assert is_root(d, (power(p, 2), p, pt(0)))[0]
    assert not is_root(d, (seg(0, 4), seg(0, 1), pt(0)))[0]


def test_is_root_against_interval_oracle():
    rng = random.Random(12)
    agree = 0
    for _ in range(300):
        support = rng.choice([(0, 1), (0, 1, 2), (0, 2, 3), (0, 1, 3)])
        def rand_poly():
            lo = rng.randint(-6, 6)
            if rng.random() < 0.3:
                return ray1(lo, rng.choice([-1, 1]))
            return seg(lo, lo + rng.randint(0, 4)) if rng.random() < 0.7 else pt(lo)
        phi = PolyPolynomial.make({i: rand_poly() for i in support})
        p = rand_poly()
        try:
            got = is_root(phi, p)[0]
        except ValueError:
            # opposite unbounded directions produce a line, which the
            # semiring excludes; the draw is outside both domains
            continue
        assert got == interval_is_root_oracle(phi, p), (phi, p)
        agree += 1
    assert agree >= 150
