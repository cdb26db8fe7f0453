"""The key operations on homogenisation cones against the reference
operations in `polyhedra_oracle`, on hypothesis inputs in R^1-R^3: points,
lower-dimensional polytopes, recession rays and `Fraction` vertices."""

import itertools
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhedra_oracle as oracle
from psr.polyhedra import (
    Polyhedron,
    convex_hull,
    intersect_polyhedra,
    minkowski_sum,
    power,
)

coord = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def polyhedra(draw, n, count=1, rays=True):
    """`count` polyhedra in R^n, each with one to four points and, if
    `rays`, up to two recession rays; None where the rays hold a line."""
    out = []
    for _ in range(count):
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
        rs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=2 if rays else 0))
        try:
            out.append(Polyhedron.from_generators(pts, rs, dim=n))
        except ValueError:
            out.append(None)
    return out


dims = st.integers(1, 3)


def same(new, old):
    """Equal V-descriptions, and the stored cone is the one that
    `from_generators` builds from them."""
    assert new == old
    if new is not None:
        assert new.cone == Polyhedron.from_generators(new.vertices, new.rec_rays, dim=new.dim_ambient).cone


def both(new_op, old_op, *args):
    """The two operations agree, or both refuse a line."""
    try:
        old = old_op(*args)
    except ValueError:
        with pytest.raises(ValueError, match="line"):
            new_op(*args)
        return
    same(new_op(*args), old)


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(lambda n: polyhedra(n)), st.integers(0, 3))
def test_power_matches_fold(ps, k):
    (p,) = ps
    if p is not None:
        same(power(p, k), oracle.power(p, k))


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(lambda n: polyhedra(n, 3)))
def test_minkowski_sum_matches_fraction_sum(ps):
    if None in ps:
        return
    p, q, r = ps
    both(minkowski_sum, oracle.minkowski_sum, p, q)
    both(minkowski_sum, lambda *xs: reduce(oracle.minkowski_sum, xs), p, q, r)


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(lambda n: polyhedra(n, 3)), st.integers(1, 3))
def test_convex_hull_matches_pairwise(ps, m):
    ps = [p for p in ps[:m] if p is not None]
    if ps:
        both(convex_hull, lambda *xs: reduce(oracle.convex_hull, xs), *ps)


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(polyhedra(n), st.tuples(*[coord] * n))))
def test_contains_matches_rebuilt_cone(args):
    (p,), x = args
    if p is None:
        return
    for y in (x, *p.vertices, tuple(a + b for a, b in zip(p.vertices[0], x))):
        assert p.contains(y) == oracle.contains(p, y)
    assert all(p.contains(v) for v in p.vertices)


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(lambda n: polyhedra(n, 2)))
def test_intersection_matches_rebuilt_cones(ps):
    if None not in ps:
        same(intersect_polyhedra(*ps), oracle.intersect_polyhedra(*ps))


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(lambda n: polyhedra(n, 2, rays=False)))
def test_disjoint_intersection_is_none(ps):
    p, q = ps
    far = q.translate((20,) + (0,) * (q.dim_ambient - 1))
    assert intersect_polyhedra(p, far) is None
    assert oracle.intersect_polyhedra(p, far) is None


def test_power_edge_cases():
    p = Polyhedron.from_generators([(F(1, 2), F(0)), (F(0), F(1, 3))], [(1, 1)])
    assert power(p, 0) == Polyhedron.point((0, 0))
    assert power(p, 1) is p
    assert power(p, 6).vertices == ((0, 2), (3, 0))


def test_variadic_minkowski_sum_of_segments_is_cube():
    e = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    cube = minkowski_sum(*(Polyhedron.from_generators([(0, 0, 0), v]) for v in e))
    assert set(cube.vertices) == set(itertools.product((0, 1), repeat=3))
