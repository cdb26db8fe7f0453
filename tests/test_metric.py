import math
import random
from fractions import Fraction as F

from genutil import poly, pt, seg
from psr.cones import Cone
from psr.linalg import as_vec
from psr.metric import (
    SolidAngle,
    hausdorff_angle_distance,
    point_polytope_sqdist,
    polytope_hausdorff_sq,
    solid_angle,
)


def C(*rays, dim=None):
    return Cone.from_rays([as_vec(r) for r in rays], dim=dim or len(rays[0]))


# -- solid angles -------------------------------------------------------------


def test_solid_angle_exact_low_dim():
    assert solid_angle(Cone.from_rays([(F(1),)], 1)).value == 0.5
    assert solid_angle(Cone.full_space(1)).value == 1.0
    assert solid_angle(C((1, 0), (0, 1))).value == 0.25
    assert solid_angle(Cone.from_ineqs([as_vec([1, 0])], 2)).value == 0.5
    assert solid_angle(Cone.origin(2)).value == 0.0
    assert solid_angle(C((1, 0), (1, 1))).value == 0.125


def test_solid_angle_octant_monte_carlo():
    sa = solid_angle(C((1, 0, 0), (0, 1, 0), (0, 0, 1)), samples=60_000, seed=3)
    assert abs(sa.value - 0.125) <= 3 * sa.std_error + 1e-9
    assert sa.std_error > 0


def test_solid_angle_seed_reproducible():
    c = C((1, 0, 0), (0, 1, 0), (1, 1, 3))
    a = solid_angle(c, samples=5000, seed=11)
    b = solid_angle(c, samples=5000, seed=11)
    assert a == b


# -- exact polytope Hausdorff -------------------------------------------------


def test_solid_angle_monte_carlo_values_are_pinned():
    # the float rows are converted once before sampling; the random stream
    # and every product are unchanged, so the values repeat bit for bit
    c = Cone.from_rays([(1, 0, 0), (1, 2, 0), (0, 1, 3), (2, -1, 1)])
    assert solid_angle(c, samples=20000, seed=0) == SolidAngle(0.10945, 0.00220760840617171)
    wedge = Cone.from_ineqs([(1, 0, 0), (0, 1, 0)], dim=3)
    assert solid_angle(wedge, samples=20000, seed=3) == SolidAngle(
        0.24705, 0.0030497237374883645)


def test_point_polytope_sqdist():
    tri = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))
    assert point_polytope_sqdist((F(1), F(0)), tri) == 0
    assert point_polytope_sqdist((F(3), F(0)), tri) == 1
    assert point_polytope_sqdist((F(2), F(2)), tri) == 2  # nearest is (1,1)


def test_polytope_hausdorff_sq_values():
    a = ((F(0),), (F(1),))
    b = ((F(0),), (F(3),))
    assert polytope_hausdorff_sq(a, b) == 4
    assert polytope_hausdorff_sq(a, a) == 0
    sq = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    assert polytope_hausdorff_sq(sq, ((F(0), F(0)),)) == 2


def test_distance_of_translates():
    p = poly((0, 0), (1, 0))
    q = poly((0, 3), (1, 3))
    assert hausdorff_angle_distance(p, q) == 3.0


def test_distance_mixes_cone_part():
    r1 = Polyhedron_ray((0,), (1,))
    p1 = seg(0, 1)
    d = hausdorff_angle_distance(r1, p1)
    assert d > 0  # same vertices but different recession slice


def Polyhedron_ray(anchor, direction):
    from psr.polyhedra import Polyhedron

    return Polyhedron.from_generators([as_vec(anchor)], [as_vec(direction)])


def test_metric_axioms_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([1, 2])
        pts = lambda: poly(*[
            tuple(rng.randint(-5, 5) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ])
        p, q = pts(), pts()
        assert hausdorff_angle_distance(p, p) == 0.0
        d1 = hausdorff_angle_distance(p, q)
        d2 = hausdorff_angle_distance(q, p)
        assert math.isclose(d1, d2, abs_tol=1e-12)
        assert (d1 == 0.0) == (p == q)
