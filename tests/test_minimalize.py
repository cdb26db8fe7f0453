"""`minimalize` decides its candidates by LCS conditions 1-3; the reference
in `minimalize_oracle` evaluates phi at every candidate.  Both must keep
the same candidates and return the same collection."""

import itertools
import random
import re

import minimalize_oracle
from genutil import poly, pt, random_generic_poly, vertices_of_m
from psr.localfan import LCS, build_local_fan, enumerate_lcs, label_violation, validate_lcs
from psr.polynomials import PolyPolynomial
from psr.vcc import (
    VCC,
    associated_vcc,
    completion,
    enumerate_mw_minimal_local_solutions,
    lcs_to_vcc,
    minimalize,
    vcc_is_root,
)


def _lcs(fan, assignment) -> LCS:
    rho_to_pair = {p: pair for pair, p in fan.rho.items()}
    items = sorted((k, rho_to_pair[g]) for g, ks in assignment.items() for k in ks)
    return LCS(tuple(k for k, _ in items), tuple(p for _, p in items))


def _check_against_oracle(fan, b0) -> tuple[bool, int]:
    """Same verdict on every candidate and the same result.  Returns whether
    the result enlarges the completion, and how many kept candidates the
    full `validate_lcs` rejects by condition 4."""
    assert fan.is_generic_at_vertex()
    assert all(g in fan.rho.values() for g, _ in completion(fan, b0).pairs)
    verdicts = []
    expected = minimalize_oracle.minimalize(fan, b0, verdicts=verdicts)
    by_cond4 = 0
    for assignment, kept in verdicts:
        lcs = _lcs(fan, assignment)
        assert (label_violation(fan, lcs) is None) == kept, assignment
        if kept:
            ok, why = validate_lcs(fan, lcs)
            by_cond4 += not ok
            assert ok or why.startswith("condition 4:")
    assert minimalize(fan, b0) == expected
    return expected != completion(fan, b0), by_cond4


def test_minimalize_matches_oracle_on_lcs_vccs():
    # the inputs of acceptance criterion 4
    rng = random.Random(104)
    done = 0
    while done < 50:
        support = rng.choice([(0, 1, 2), (0, 1, 3), (0, 1, 2, 3)])
        try:
            phi = random_generic_poly(rng, 2, support, max_pts=2, tries=50)
        except RuntimeError:
            continue
        for v in vertices_of_m(phi):
            fan = build_local_fan(phi, v)
            for lcs in enumerate_lcs(fan):
                assert _check_against_oracle(fan, lcs_to_vcc(fan, lcs)) == (False, 0)
        done += 1


def test_minimalize_matches_oracle_on_mw_minimal_solutions():
    rng = random.Random(1)
    inputs = enlarged = by_cond4 = 0
    for _ in range(60):
        n = rng.choice([1, 2])
        support = rng.choice([(0, 1, 2), (0, 1, 3), (0, 1, 2, 3)])
        try:
            phi = random_generic_poly(rng, n, support, max_pts=2, tries=50)
        except RuntimeError:
            continue
        for v in vertices_of_m(phi):
            fan = build_local_fan(phi, v)
            if len(fan.cells) > 6:
                continue
            for p in enumerate_mw_minimal_local_solutions(phi, v):
                inputs += 1
                grew, rejected = _check_against_oracle(fan, associated_vcc(p))
                enlarged += grew
                by_cond4 += rejected
    # the enlargement branch stays covered, and so do roots that condition 4
    # rejects, which is why candidates are not decided by `validate_lcs`
    assert inputs > 300 and enlarged >= 1 and by_cond4 >= 1


# phi = (-6,5) + [(-3,-6),(-2,-4)] Y + [(-5,-2),(-2,-5)] Y^2 + [(-4,0),(-2,5)] Y^3
CUBIC = PolyPolynomial.make({
    0: pt(-6, 5),
    1: poly((-3, -6), (-2, -4)),
    2: poly((-5, -2), (-2, -5)),
    3: poly((-4, 0), (-2, 5)),
})


def test_condition_4_rejects_a_root_that_minimalize_enlarges():
    fan = build_local_fan(CUBIC, (-18, -3))
    cell = fan.cells[0]
    assert cell.cone.extreme_rays == ((1, 1), (17, 8))
    assert fan.rho[(1, 2)] == (2, -4)
    g = VCC.make([((2, -4), cell.cone)])
    assert g.is_valid()[0]
    assert vcc_is_root(CUBIC, g)[0]
    lcs = LCS((0,), ((1, 2),))
    assert label_violation(fan, lcs) is None
    ok, why = validate_lcs(fan, lcs)
    assert not ok and why.startswith("condition 4:")
    m = minimalize(fan, g)
    assert len(m.pairs) == 1
    vertex, cone = m.pairs[0]
    assert vertex == (2, -4)
    assert cone.extreme_rays == ((1, 1), (3, 1)) and not cone.lines
    assert m == minimalize_oracle.minimalize(fan, g)


STRUCTURAL = re.compile(
    r"empty or mismatched system$|repeated cell$|cell index -?\d+ out of range$"
    r"|pair \(-?\d+, -?\d+\) not in support pairs$")


def test_validate_lcs_messages_name_their_condition():
    fans = [build_local_fan(CUBIC, (-18, -3))]
    rng = random.Random(7)
    while len(fans) < 8:
        phi = random_generic_poly(rng, 2, (0, 1, 2, 3), max_pts=2)
        fans += [f for f in (build_local_fan(phi, v) for v in vertices_of_m(phi))
                 if len(f.cells) <= 6]
    seen = set()
    for fan in fans:
        n = len(fan.cells)
        pairs = sorted(fan.rho) + [(9, 9)]
        systems = [LCS((), ()), LCS((0, 0), (pairs[0], pairs[0])), LCS((n,), (pairs[0],))]
        for size in range(1, min(n, 3) + 1):
            for cells in itertools.combinations(range(n), size):
                for labels in itertools.product(pairs, repeat=size):
                    systems.append(LCS(cells, labels))
        for lcs in systems:
            ok, why = validate_lcs(fan, lcs)
            if ok:
                assert why is None
                continue
            m = re.match(r"condition ([1-4]): ", why)
            assert m or STRUCTURAL.match(why), why
            if m:
                seen.add(int(m.group(1)))
                assert (label_violation(fan, lcs) == why) == (m.group(1) != "4")
    assert seen == {1, 2, 3, 4}
