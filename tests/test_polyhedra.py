import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import poly, pt, seg
from psr.cones import Cone, covers, dual_cone
from psr.errors import NotAVertex, Unbounded
from psr.linalg import as_vec
from psr.polyhedra import (
    OmegaOrder,
    Polyhedron,
    convex_hull,
    inner_normal_cone,
    intersect_polyhedra,
    minkowski_sum,
    normal_fan,
    normal_fan_support,
    omega_min_vertex,
)

ints = st.integers(-5, 5)
pt2 = st.tuples(ints, ints)


def test_canonicalization_drops_redundant_points():
    p = poly((0, 0), (2, 0), (1, 0), (0, 2), (1, 1))
    assert set(p.vertices) == {(F(0), F(0)), (F(2), F(0)), (F(0), F(2))}


def test_rejects_lines():
    with pytest.raises(Exception, match="line"):
        Polyhedron.from_generators([(F(0),)], [(F(1),), (F(-1),)])


def test_minkowski_sum_of_segments_is_square():
    sq = minkowski_sum(poly((0, 0), (1, 0)), poly((0, 0), (0, 1)))
    assert set(sq.vertices) == {
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))
    }


def test_convex_hull_of_intervals():
    assert convex_hull(seg(0, 1), seg(3, 4)) == seg(0, 4)
    assert convex_hull(pt(1), pt(1)) == pt(1)


def test_hull_absorbs_contained_summand():
    # in the semiring, a + a = a
    p = poly((0, 0), (3, 1), (-1, 2))
    assert convex_hull(p, p) == p


def test_intersection():
    assert intersect_polyhedra(seg(0, 3), seg(2, 5)) == seg(2, 3)
    assert intersect_polyhedra(seg(0, 1), seg(2, 3)) is None
    r1 = Polyhedron.from_generators([(F(0),)], [(F(1),)])
    r2 = Polyhedron.from_generators([(F(4),)], [(F(-1),)])
    assert intersect_polyhedra(r1, r2) == seg(0, 4)


def test_inner_normal_cone_square():
    sq = poly((0, 0), (1, 0), (0, 1), (1, 1))
    c = inner_normal_cone(sq, (F(0), F(0)))
    assert c == Cone.from_rays([as_vec((1, 0)), as_vec((0, 1))], 2)
    with pytest.raises(NotAVertex):
        inner_normal_cone(sq, (F(1, 2), F(1, 2)))


def test_normal_fan_support_is_dual_of_recession():
    r = Polyhedron.from_generators([(F(0), F(0))], [(F(1), F(0)), (F(0), F(1))])
    assert normal_fan_support(r) == Cone.from_rays(
        [as_vec((1, 0)), as_vec((0, 1))], 2
    )


def test_support_value_unbounded():
    r = Polyhedron.from_generators([(F(0),)], [(F(1),)])
    assert r.support_value((F(1),)) == 0
    with pytest.raises(Unbounded):
        r.support_value((F(-1),))


def test_omega_min_vertex_ties_break_lexicographically():
    # square: functional (0, 1) ties the bottom edge; omega falls back on x
    sq = poly((0, 0), (1, 0), (0, 1), (1, 1))
    omega = OmegaOrder(2)
    assert omega_min_vertex(sq, omega) == (F(0), F(0))
    assert min(sq.argmin_vertices((F(0), F(1))), key=omega.key) == (F(0), F(0))


def test_omega_positive():
    omega = OmegaOrder(1)
    assert Polyhedron.from_generators([(F(0),)], [(F(1),)]).is_omega_positive(omega)
    assert not Polyhedron.from_generators([(F(0),)], [(F(-1),)]).is_omega_positive(omega)


@settings(max_examples=50, deadline=None)
@given(st.lists(pt2, min_size=1, max_size=6))
def test_normal_fan_covers_space_for_polytopes(points):
    p = poly(*points)
    cells = [c for _, c in normal_fan(p)]
    assert covers(Cone.full_space(2), cells)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(pt2, min_size=1, max_size=4),
    st.lists(pt2, min_size=1, max_size=4),
)
def test_semiring_laws_on_polytopes(a, b):
    p, q = poly(*a), poly(*b)
    assert convex_hull(p, q) == convex_hull(q, p)
    assert minkowski_sum(p, q) == minkowski_sum(q, p)
    # distributivity: r*(p (+) q) = r*p (+) r*q
    r = poly((1, 0), (0, 1))
    assert minkowski_sum(r, convex_hull(p, q)) == convex_hull(
        minkowski_sum(r, p), minkowski_sum(r, q)
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(pt2, min_size=1, max_size=5))
def test_vertex_decomposition_of_sums(a):
    p = poly(*a)
    q = poly((0, 0), (2, 1))
    s = minkowski_sum(p, q)
    for v in s.vertices:
        ell = inner_normal_cone(s, v).interior_point()
        vp = p.argmin_vertices(ell)
        vq = q.argmin_vertices(ell)
        assert len(vp) == 1 and len(vq) == 1
        assert tuple(x + y for x, y in zip(vp[0], vq[0])) == v


def test_pickled_polyhedron_carries_its_cone():
    p = Polyhedron.from_generators([(F(1, 2), F(0)), (F(0), F(1))], [(F(1), F(1))])
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.cone == p.cone
    assert not {"rays", "ineq_key", "ray_key"} & set(vars(back.cone))
