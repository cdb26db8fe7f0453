from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psr.linalg import (
    as_vec,
    dot,
    primitive,
    rank,
    reduce_mod,
    rref,
    solve,
    sub,
)
from psr.polyhedra import OmegaOrder

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 7))
vec3 = st.tuples(rationals, rationals, rationals)


def test_primitive_scales_to_coprime_integers():
    assert primitive(as_vec([F(2, 3), F(-4, 3)])) == (F(1), F(-2))
    assert primitive(as_vec([0, 0, F(5)])) == (F(0), F(0), F(1))


@given(vec3, rationals)
def test_primitive_is_scale_invariant(v, c):
    if all(x == 0 for x in v) or c <= 0:
        return
    assert primitive(v) == primitive(tuple(c * x for x in v))


def test_rref_and_rank():
    rows = [as_vec([2, 4]), as_vec([1, 2]), as_vec([0, 1])]
    r = rref(rows)
    assert r == [as_vec([1, 0]), as_vec([0, 1])]
    assert rank(rows) == 2


@given(st.lists(vec3, max_size=4))
def test_rref_idempotent(rows):
    rows = [as_vec(r) for r in rows]
    once = rref(rows)
    assert rref(list(once)) == list(once)


@given(st.lists(vec3, min_size=1, max_size=3), vec3)
def test_in_span_consistent_with_rank(rows, v):
    rows = [as_vec(r) for r in rows]
    v = as_vec(v)
    # v lies in the span iff it reduces to zero modulo the RREF basis
    in_span = not any(reduce_mod(v, rref(rows)))
    assert in_span == (rank(rows + [v]) == rank(rows))


def test_reduce_mod_kills_span_component():
    span = [as_vec([1, 0, 0])]
    red = reduce_mod(as_vec([5, 2, 3]), span)
    assert red == as_vec([0, 2, 3])
    assert reduce_mod(red, span) == red


def test_solve_exact_and_inconsistent():
    a = [as_vec([1, 1]), as_vec([1, -1])]
    x = solve(a, as_vec([3, 1]))
    assert x == as_vec([2, 1])
    assert solve([as_vec([1, 1]), as_vec([2, 2])], as_vec([1, 3])) is None


@given(st.lists(vec3, min_size=3, max_size=3), vec3)
def test_solve_verifies(rows, b):
    rows = [as_vec(r) for r in rows]
    b = as_vec(b)
    x = solve(rows, b)
    if x is not None:
        assert all(dot(r, x) == bi for r, bi in zip(rows, b))


def test_lex_positive():
    # the omega order with a zero base functional is plain lex positivity
    lex = OmegaOrder(3, base=(0, 0, 0))
    assert lex.is_positive(as_vec([0, 1, -5]))
    assert not lex.is_positive(as_vec([0, -1, 5]))
    assert not lex.is_positive(as_vec([0, 0, 0]))
