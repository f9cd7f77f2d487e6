"""Randomized law checking.

Each algebraic law gets at least a thousand generated cases; the permutation
action homomorphism is checked exhaustively over all 24 x 24 composition
pairs instead of by sampling.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from xratio.autos import perm_automorphism
from xratio.exprparse import parse_expression
from xratio.fields import prime_field, rationals
from xratio.perms import all_perms, compose
from xratio.poly import Ring
from xratio.ratfunc import RatFunc, rat, rf_eq

FIELDS = (rationals(), prime_field(5), prime_field(7))
RINGS = tuple(Ring(f, ("x", "y")) for f in FIELDS)

LAW_CASES = settings(max_examples=1000, deadline=None)

term_lists = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3)),
    min_size=0, max_size=4)


def _build(ring, terms):
    return ring.poly({(e1, e2): c for c, e1, e2 in reversed(terms)})


@st.composite
def polys(draw, count):
    ring = RINGS[draw(st.integers(0, len(RINGS) - 1))]
    return ring, [_build(ring, draw(term_lists)) for _ in range(count)]


@LAW_CASES
@given(polys(3))
def test_ring_laws(data):
    ring, (f, g, h) = data
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + ring.zero == f
    assert f * ring.one == f
    assert f - f == ring.zero


@LAW_CASES
@given(polys(2), st.integers(-5, 5), st.integers(-5, 5))
def test_substitution_is_a_homomorphism(data, a, b):
    ring, (f, g) = data
    target = Ring(ring.field, ("s",))
    s = target.var("s")
    images = {"x": s + target.const(ring.field.from_int(a)),
              "y": target.const(ring.field.from_int(b))}
    sub = lambda p: p.substitute(images, target)
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(f * g) == sub(f) * sub(g)


@LAW_CASES
@given(polys(2))
def test_derivative_leibniz_rule(data):
    ring, (f, g) = data
    d = lambda p: p.derivative("x")
    assert d(f * g) == d(f) * g + f * d(g)
    assert d(f + g) == d(f) + d(g)


@LAW_CASES
@given(polys(3))
def test_rational_equality_is_a_congruence(data):
    ring, (a, b, c) = data
    if b.is_zero() or (b + c).is_zero():
        return
    f = RatFunc(ring, a, b)
    g = RatFunc(ring, a * (b + c), b * (b + c))   # same value, different pair
    h = RatFunc(ring, c, b)
    assert rf_eq(f, g)
    assert rf_eq(f + h, g + h)
    assert rf_eq(f * h, g * h)
    assert rf_eq(f - g, 0)


@LAW_CASES
@given(polys(2))
def test_nonzero_inverse_law(data):
    ring, (a, b) = data
    if a.is_zero() or b.is_zero():
        return
    f = RatFunc(ring, a, b)
    assert rf_eq(f * f.inv(), 1)
    assert rf_eq(f.inv().inv(), f)


@LAW_CASES
@given(polys(1))
def test_display_parses_back_to_the_same_value(data):
    ring, (f,) = data
    assert parse_expression(str(f), ring) == rat(ring, f)


@LAW_CASES
@given(st.integers(0, len(FIELDS) - 1), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_field_laws(idx, a, b, c):
    field = FIELDS[idx]
    x, y, z = (field.from_int(v) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if not x.is_zero():
        assert x * field.inv(x) == field.one
    assert x - x == field.zero


def test_permutation_action_homomorphism_exhaustive():
    ring = Ring(prime_field(5), ("x1", "x2", "x3", "x4"))
    autos = {p: perm_automorphism(ring, p) for p in all_perms()}
    checked = 0
    for p, ap in autos.items():
        for q, aq in autos.items():
            composite = autos[compose(p, q)]
            pointwise = ap * aq
            for name in ring.variables:
                v = rat(ring, ring.var(name))
                assert composite.apply(v) == pointwise.apply(v)
            checked += 1
    assert checked == 576
