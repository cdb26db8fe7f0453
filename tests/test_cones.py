import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_oracle
from psr.cones import (
    Cone,
    _cone_from_ineqs,
    _cone_from_rays,
    _covers,
    _dd_from_ineqs,
    _key,
    conic_sum,
    covers,
    dual_cone,
    intersect_cones,
    maximal_convex_subfamilies,
    restrict_arrangement,
    union_is_convex,
)
from psr.errors import SizeLimit
from psr.linalg import as_vec, dot, rank
from psr.polyhedra import Polyhedron, intersect_polyhedra

ints = st.integers(-4, 4)
ray2 = st.tuples(ints, ints)
ray3 = st.tuples(ints, ints, ints)


def C(*rays, dim=None):
    return Cone.from_rays([as_vec(r) for r in rays], dim=dim or len(rays[0]))


# -- double description oracles (hand-derived) -------------------------------


def test_quadrant_facets():
    q = C((1, 0), (0, 1))
    assert set(q.facets) == {(F(1), F(0)), (F(0), F(1))}
    assert set(q.extreme_rays) == {(F(1), F(0)), (F(0), F(1))}
    assert q.lines == ()


def test_halfplane_has_lineality():
    h = Cone.from_ineqs([as_vec([1, 0])], 2)
    assert h.lines == ((F(0), F(1)),)
    assert h.extreme_rays == ((F(1), F(0)),)
    assert h.facets == ((F(1), F(0)),)


def test_octant_from_ineqs():
    o = Cone.from_ineqs([as_vec(r) for r in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]], 3)
    assert set(o.extreme_rays) == {
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    }


def test_icecream_like_simplicial_cone():
    c = Cone.from_ineqs(
        [as_vec(r) for r in [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]], 3
    )
    # square-based cone over z = 1 with apex at the origin
    assert len(c.extreme_rays) == 4
    assert all(r[2] > 0 for r in c.extreme_rays)
    assert c.is_pointed()


def test_full_space_and_origin():
    f = Cone.full_space(2)
    assert f.facets == () and len(f.lines) == 2
    o = Cone.origin(2)
    assert o.extreme_rays == () and o.lines == () and o.dim() == 0


def test_plane_inside_r3():
    c = C((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    assert len(c.lines) == 2
    assert c.extreme_rays == ()
    assert c.dim() == 2
    assert c.span_eqs == ((F(0), F(0), F(1)),)


# -- duality -----------------------------------------------------------------


def test_dual_of_quadrant():
    assert dual_cone(C((1, 0), (0, 1))) == C((1, 0), (0, 1))


def test_dual_swaps_halfplane_and_ray():
    h = Cone.from_ineqs([as_vec([1, 0])], 2)
    assert dual_cone(h) == C((1, 0), dim=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(ray3, min_size=1, max_size=5))
def test_dual_involution(rays):
    c = Cone.from_rays([as_vec(r) for r in rays], dim=3)
    assert dual_cone(dual_cone(c)) == c


@settings(max_examples=40, deadline=None)
@given(st.lists(ray2, min_size=1, max_size=4), st.lists(ray2, min_size=1, max_size=4))
def test_dual_antitone(r1, r2):
    c1 = Cone.from_rays([as_vec(r) for r in r1], dim=2)
    c2 = Cone.from_rays([as_vec(r) for r in r2], dim=2)
    big = conic_sum(c1, c2)
    assert dual_cone(big).contains_cone(dual_cone(big)) is True
    assert big.contains_cone(c1)
    assert dual_cone(c1).contains_cone(dual_cone(big))


# -- operations ---------------------------------------------------------------


def test_intersect_and_conic_sum():
    q1 = C((1, 0), (0, 1))
    q2 = C((0, 1), (-1, 0))
    assert intersect_cones(q1, q2) == C((0, 1), dim=2)
    assert conic_sum(q1, q2) == Cone.from_ineqs([as_vec([0, 1])], 2)


def test_contains_cone_and_points():
    q = C((1, 0), (0, 1))
    assert q.contains(as_vec([2, 3]))
    assert not q.contains(as_vec([-1, 0]))
    assert q.contains_cone(C((1, 1), dim=2))
    assert not q.contains_cone(C((1, -1), dim=2))


def test_interior_point_in_relative_interior():
    q = C((1, 0), (0, 1))
    p = q.interior_point()
    assert q.relint_contains(p)


def test_interior_point_is_int_and_relatively_interior():
    cones = [
        Cone.origin(2),
        Cone.full_space(3),
        Cone.from_rays([(1, 0, 0), (-1, 0, 0)]),  # a line
        Cone.from_rays([(1, 0), (-1, 0), (0, 1)]),  # a half-plane
        Cone.from_rays([(1, 0, 0), (-1, 0, 0), (F(1, 2), 1, 0), (0, 1, 1)]),
        Cone.from_rays([(F(1, 3), 2), (5, F(-1, 2))]),
    ]
    assert any(c.lines for c in cones)
    for c in cones:
        w = c.interior_point()
        assert all(type(x) is int for x in w)
        assert len(w) == c.dim_ambient
        assert c.relint_contains(w)
    assert Cone.origin(2).interior_point() == (0, 0)


def test_restrict_arrangement_splits_quadrant():
    q = C((1, 0), (0, 1))
    cells = restrict_arrangement(q, [as_vec([1, -1])])
    assert len(cells) == 2
    assert covers(q, cells)
    assert union_is_convex(cells)


def test_restrict_arrangement_skips_nonfulldim_cells():
    q = C((1, 0), (0, 1))
    # a hyperplane touching the cone only at the boundary splits nothing
    cells = restrict_arrangement(q, [as_vec([1, 0])])
    assert cells == [q]


def test_union_convexity():
    q1 = C((1, 0), (0, 1))
    q2 = C((0, 1), (-1, 0))
    q3 = C((-1, 0), (0, -1))
    assert union_is_convex([q1, q2])
    assert not union_is_convex([q1, q3])
    assert union_is_convex([q1, q2, q3, C((0, -1), (1, 0))])


def test_maximal_convex_subfamilies():
    q1 = C((1, 0), (0, 1))
    q2 = C((0, 1), (-1, 0))
    q3 = C((-1, 0), (0, -1))
    fams = maximal_convex_subfamilies([q1, q2, q3])
    assert sorted(map(sorted, fams)) == [[0, 1], [1, 2]]
    with pytest.raises(SizeLimit):
        maximal_convex_subfamilies([q1] * 25)


@settings(max_examples=40, deadline=None)
@given(st.lists(ray2, min_size=1, max_size=4), st.lists(st.tuples(ints, ints), max_size=2))
def test_arrangement_cells_cover_support(rays, normals):
    support = Cone.from_rays([as_vec(r) for r in rays], dim=2)
    cells = restrict_arrangement(support, [as_vec(h) for h in normals if any(h)])
    assert covers(support, cells) or support.dim() < 2 and cells == [support]
    for cell in cells:
        assert support.contains_cone(cell)


# -- differential test against the Fraction-based reference --------------------


def _fields(c):
    return c.lines, c.extreme_rays, c.facets, c.span_eqs


def _no_float(c):
    return all(type(x) in (int, F) for vs in _fields(c) for v in vs for x in v)


@st.composite
def cone_inputs(draw):
    """(dim, vectors, variant): vectors with lineality, zero vectors and
    duplicates; variant is the same set permuted, positively rescaled and
    with ints and Fractions mixed."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    vecs = draw(st.lists(vec, max_size=6))
    if vecs and draw(st.booleans()):  # a line
        vecs.append(tuple(-x for x in vecs[0]))
    if draw(st.booleans()):
        vecs.append((0,) * dim)
    if vecs and draw(st.booleans()):
        vecs.append(draw(st.sampled_from(vecs)))
    return dim, vecs, _variant(draw, vecs)


@st.composite
def msum_inputs(draw):
    """(dim, vectors, variant) at the scale of Minkowski sums in is_root: the
    homogenised points of P + Q for lattice polytopes P, Q in R^2 or R^3,
    9 to 30 of them (|P + Q| >= |P| + |Q| - 1), sometimes with a
    recession ray."""
    d = draw(st.integers(2, 3))
    pt = st.tuples(*[st.integers(-3, 3)] * d)
    ps = draw(st.lists(pt, min_size=5, max_size=6, unique=True))
    qs = draw(st.lists(pt, min_size=5, max_size=5, unique=True))
    vecs = sorted({tuple(x + y for x, y in zip(p, q)) + (1,) for p in ps for q in qs})
    if draw(st.booleans()):
        vecs.append(draw(pt) + (0,))
    return d + 1, vecs, _variant(draw, vecs)


def _variant(draw, vecs):
    """The same vectors permuted, positively rescaled, ints and Fractions mixed."""
    scale = st.one_of(st.integers(1, 5), st.builds(F, st.integers(1, 5), st.integers(1, 4)))
    variant = []
    for v in draw(st.permutations(vecs)):
        c = draw(scale)
        variant.append(tuple(F(c * x) if draw(st.booleans()) else c * x for x in v))
    return variant


@settings(max_examples=150, deadline=None)
@given(st.one_of(cone_inputs(), msum_inputs()), st.sampled_from(["rays", "ineqs"]))
def test_canonical_form_matches_reference(inp, kind):
    dim, vecs, variant = inp
    build, cache = {
        "rays": (Cone.from_rays, _cone_from_rays),
        "ineqs": (Cone.from_ineqs, _cone_from_ineqs),
    }[kind]
    oracle = {"rays": cone_oracle.from_rays, "ineqs": cone_oracle.from_ineqs}[kind]
    cache.cache_clear()
    miss = build(vecs, dim=dim)
    hit = build(variant, dim=dim)
    info = cache.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert hit is miss
    assert _fields(miss) == oracle(vecs, dim) == oracle(variant, dim)
    assert miss.dim() == rank(list(miss.extreme_rays) + list(miss.lines))
    assert _no_float(miss)
    if kind == "rays":  # the facets back through the H-side constructor
        assert _fields(Cone.from_ineqs(miss.ineqs, dim)) == cone_oracle.from_ineqs(
            miss.ineqs, dim) == _fields(miss)


@settings(max_examples=100, deadline=None)
@given(st.one_of(cone_inputs(), msum_inputs()))
def test_dd_bitsets_are_tight_sets(inp):
    dim, vecs, _ = inp
    ineqs = list(_key(vecs))
    lines, rays, zs = _dd_from_ineqs(dim, ineqs)
    assert len(zs) == len(rays)
    for r, z in zip(rays, zs):
        assert z == sum(1 << k for k, a in enumerate(ineqs) if dot(a, r) == 0)


# -- key-union construction and int predicates against Fraction references ----


def _fit(vecs, dim):
    """The vectors cut or zero-padded to length dim."""
    return [tuple(v[:dim]) + (0,) * (dim - len(v)) for v in vecs]


@st.composite
def cone_pairs(draw):
    """(dim, c1, c2, normals): two cones in one R^dim, each built from rays
    or from inequalities, and arrangement normals with a zero normal, a
    non-primitive normal and Fraction entries."""
    dim, vecs1, _ = draw(st.one_of(cone_inputs(), msum_inputs()))
    _, vecs2, variant2 = draw(st.one_of(cone_inputs(), msum_inputs()))
    vecs2, variant2 = _fit(vecs2, dim), _fit(variant2, dim)
    cones = [
        draw(st.sampled_from([Cone.from_rays, Cone.from_ineqs]))(vs, dim=dim)
        for vs in (vecs1, vecs2)
    ]
    normals = draw(st.lists(st.sampled_from(variant2), max_size=3)) if variant2 else []
    normals.append((0,) * dim)
    normals.append(tuple(3 * x for x in draw(st.tuples(*[st.integers(-2, 2)] * dim))))
    return dim, cones[0], cones[1], draw(st.permutations(normals))


@settings(max_examples=80, deadline=None)
@given(cone_pairs())
def test_key_union_construction_matches_reference(inp):
    dim, c1, c2, normals = inp
    assert _fields(intersect_cones(c1, c2)) == cone_oracle.from_ineqs(
        list(c1.ineqs) + list(c2.ineqs), dim)
    assert _fields(conic_sum(c1, c2)) == cone_oracle.from_rays(
        list(c1.rays) + list(c2.rays), dim)
    cells = restrict_arrangement(c1, normals)
    expected = cone_oracle.restrict_arrangement(c1, normals)
    assert [_fields(c) for c in cells] == [_fields(c) for c in expected]


@settings(max_examples=80, deadline=None)
@given(st.one_of(cone_inputs(), msum_inputs()), st.sampled_from(["rays", "ineqs"]), st.data())
def test_int_predicates_match_fraction_dots(inp, kind, data):
    dim, vecs, _ = inp
    c = (Cone.from_rays if kind == "rays" else Cone.from_ineqs)(vecs, dim=dim)
    frac = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    points = [(0,) * dim, c.interior_point()]
    points += [tuple(F(x, 3) for x in r) for r in c.rays]  # boundary points
    points += data.draw(st.lists(st.tuples(*[frac] * dim), min_size=1, max_size=4))
    points.append(tuple(6 * x for x in points[-1]))  # non-primitive
    fd = cone_oracle.fdot
    for x in points:
        assert c.contains(x) == all(fd(a, x) >= 0 for a in c.ineqs)
        assert c.relint_contains(x) == (
            all(fd(e, x) == 0 for e in c.span_eqs) and all(fd(a, x) > 0 for a in c.facets))
        assert c.in_dual(x) == all(fd(r, x) >= 0 for r in c.rays)
    assert c.relint_contains(c.interior_point())
    assert all(type(x) is int for x in c.interior_point())


@settings(max_examples=60, deadline=None)
@given(st.lists(ray2, min_size=1, max_size=4),
       st.lists(st.tuples(ints, ints), max_size=3), st.data())
def test_covers_ignores_piece_order_and_duplicates(rays, normals, data):
    support = Cone.from_rays(rays, dim=2)
    cells = restrict_arrangement(support, normals)
    pieces = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells)))
    shuffled = data.draw(st.permutations(pieces + pieces[:1]))
    _covers.cache_clear()
    first = covers(support, pieces)
    _covers.cache_clear()
    assert covers(support, shuffled) == first == cone_oracle.covers(support, shuffled)
    assert covers(support, cells)


@settings(max_examples=60, deadline=None)
@given(st.one_of(cone_inputs(), msum_inputs()), st.sampled_from(["rays", "ineqs"]))
def test_cached_properties_keep_equality_and_hash(inp, kind):
    dim, vecs, _ = inp
    build = Cone.from_rays if kind == "rays" else Cone.from_ineqs
    c = build(vecs, dim=dim)
    assert (c.ineq_key, c.ray_key) == (_key(c.ineqs), _key(c.rays))
    assert {"rays", "ineq_key", "ray_key"} <= vars(c).keys()  # cached on the instance
    _cone_from_ineqs.cache_clear()
    _cone_from_rays.cache_clear()
    fresh = build(vecs, dim=dim)
    assert fresh is not c
    assert fresh == c and hash(fresh) == hash(c) and _fields(fresh) == _fields(c)
    assert _cone_from_ineqs(dim, c.ineq_key) == c == _cone_from_rays(dim, c.ray_key)


def test_entries_other_than_int_and_fraction_are_exact():
    c = Cone.from_rays([("1/3", 0.5), (1.0, 0)])
    assert c == Cone.from_rays([(2, 3), (1, 0)])
    assert _no_float(c)


def test_polyhedron_vertices_are_fractions():
    p = Polyhedron.from_generators([(F(1, 3),), (2,)])
    assert p.vertices == ((F(1, 3),), (F(2),))
    assert all(type(x) is F for v in p.vertices for x in v)
    q = intersect_polyhedra(p, Polyhedron.from_generators([(0,), (F(1, 2),)]))
    assert q.vertices == ((F(1, 3),), (F(1, 2),))
    assert all(type(x) is F for v in q.vertices for x in v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
                          st.integers(-3, 3)), min_size=1, max_size=5))
def test_polyhedron_coordinates_are_never_float(points):
    p = Polyhedron.from_generators(points, [(1, 0)])
    assert all(type(x) is F for v in p.vertices for x in v)
    assert all(type(x) in (int, F) for r in p.rec_rays for x in r)


def test_pickle_keeps_canonical_fields_only():
    c = Cone.from_rays([(1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 1)], dim=3)
    assert c.rays and c.ineq_key and c.ray_key  # fill the caches
    back = pickle.loads(pickle.dumps(c))
    assert back == c and (back.facets, back.span_eqs) == (c.facets, c.span_eqs)
    assert not {"rays", "ineq_key", "ray_key"} & set(vars(back))
    assert (back.rays, back.ineq_key, back.ray_key) == (c.rays, c.ineq_key, c.ray_key)
