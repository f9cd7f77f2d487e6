"""Payload arithmetic in MultiPoly against a FieldElement-level reference.

`MultiPoly.terms` holds raw coefficient payloads and reduces them once per
output monomial.  Each operation below is recomputed term by term with
FieldElement arithmetic (plain double loops, written here), on seeded random
sparse polynomials over every kind of coefficient field, and every stored
payload must be canonical and nonzero.  Products by one and by a single term
take their own path in `MultiPoly.__mul__`, so they get explicit operands.
"""

import random
from fractions import Fraction

import pytest

from xratio.exprparse import parse_expression
from xratio.fields import FieldElement, field_by_name, gaussian_rationals, rationals
from xratio.poly import Ring

FIELDS = ("Q", "Q(i)", "F2", "F5", "F3(i)", "F7(i)")
CASES = 40


def _scalar(field, rng):
    if field.is_finite:
        return rng.choice(list(field.elements()))
    re, im = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
    return FieldElement(field, field.reduce(re if field.name == "Q" else (re, im)))


def _random_poly(ring, rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        terms[e] = _scalar(ring.field, rng)
    return ring.poly(terms)


# -- the reference: {exponents: FieldElement}, zeros dropped ------------------


def _ref(p):
    return {e: FieldElement(p.ring.field, c) for e, c in p.terms.items()}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_neg(a):
    return {e: -c for e, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_pow(a, n, one):
    out = one
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, images, one):
    out = {}
    for e, c in a.items():
        t = {k: c * v for k, v in one.items()}
        for img, k in zip(images, e):
            t = _ref_mul(t, _ref_pow(img, k, one))
        out = _ref_add(out, t)
    return out


def _canonical_scalar(x, field):
    if type(x) is int:
        return True
    return field.characteristic == 0 and type(x) is Fraction and x.denominator > 1


def _assert_canonical(p):
    field = p.ring.field
    pair = isinstance(field.raw_one, tuple)
    for c in p.terms.values():
        assert isinstance(c, tuple) == pair
        assert all(_canonical_scalar(x, field) for x in (c if pair else (c,))), c
        assert field.reduce(c) == c
        assert c != field.raw_zero


@pytest.mark.parametrize("name", FIELDS)
def test_payload_arithmetic_matches_field_elements(name):
    field = field_by_name(name)
    rng = random.Random(f"payloads-{name}")
    ring = Ring(field, ("x", "y", "z"))
    target = Ring(field, ("s", "t"))
    one = _ref(ring.one)
    tone = _ref(target.one)
    for _ in range(CASES):
        a, b = _random_poly(ring, rng), _random_poly(ring, rng)
        ra, rb = _ref(a), _ref(b)
        n = rng.randint(0, 3)
        images = [_random_poly(target, rng, max_terms=3, max_exp=2) for _ in range(3)]
        results = [
            (a + b, _ref_add(ra, rb)),
            (a - b, _ref_add(ra, _ref_neg(rb))),
            (-a, _ref_neg(ra)),
            (a * b, _ref_mul(ra, rb)),
            (a ** n, _ref_pow(ra, n, one)),
            (a.substitute(dict(zip(ring.variables, images)), target),
             _ref_substitute(ra, [_ref(g) for g in images], tone)),
        ]
        for got, expected in results:
            _assert_canonical(got)
            assert _ref(got) == expected


def _scalar_not_one(field, rng):
    """A nonzero scalar other than 1; None over F2, which has none."""
    if field.order == 2:
        return None
    c = _scalar(field, rng)
    while c.is_zero() or c.is_one():
        c = _scalar(field, rng)
    return c


def _single_terms(ring, rng):
    """ring.one, a constant c != 1, x^e and c*x^e: one term each."""
    c = _scalar_not_one(ring.field, rng)
    e = (1, 0, 2)
    out = [ring.one, ring.poly({e: 1})]
    if c is not None:
        out += [ring.const(c), ring.poly({e: c}), ring.poly({(0, 3, 1): c})]
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_products_by_one_and_by_a_monomial(name):
    # random operands seldom have exactly one term, and almost never equal 1
    field = field_by_name(name)
    rng = random.Random(f"monomial-{name}")
    ring = Ring(field, ("x", "y", "z"))
    singles = _single_terms(ring, rng)
    others = [ring.zero] + singles + [_random_poly(ring, rng) for _ in range(CASES)]
    for m in singles:
        for a in others:
            for got in (a * m, m * a):
                _assert_canonical(got)
                assert _ref(got) == _ref_mul(_ref(a), _ref(m))


@pytest.mark.parametrize("name", FIELDS)
def test_embed_into_own_and_larger_ring(name):
    field = field_by_name(name)
    rng = random.Random(f"embed-{name}")
    ring = Ring(field, ("x", "y"))
    bigger = Ring(field, ("w", "y", "x", "z"))
    for _ in range(CASES):
        p = _random_poly(ring, rng)
        assert p.embed(p.ring) == p
        assert p.embed(Ring(field, ("x", "y"))) == p
        big = p.embed(bigger)
        assert big.ring == bigger
        _assert_canonical(big)
        assert big == p.substitute({}, bigger)
        assert big.substitute({}, ring) == p


@pytest.mark.parametrize("name", FIELDS)
def test_cancellation_leaves_no_zero_payload(name):
    field = field_by_name(name)
    rng = random.Random(f"cancel-{name}")
    ring = Ring(field, ("x", "y"))
    x, y = ring.vars()
    for _ in range(CASES):
        a = _random_poly(ring, rng)
        assert (a - a).terms == {}
        assert ((a + x) * (a - x) - (a * a - x * x)).terms == {}
        # a partial substitution into the same ring
        b = a.substitute({"x": y + 1})
        _assert_canonical(b)
        assert _ref(b) == _ref_substitute(_ref(a), [_ref(y + 1), _ref(y)], _ref(ring.one))


def test_division_goes_through_fraction_not_float():
    q = rationals()
    third = q.from_int(3) ** -1
    assert type(third.v) is Fraction and third.v == Fraction(1, 3)
    assert type((third * 3).v) is int
    assert str(parse_expression("x/(2*y)", Ring(q, ("x", "y")))) == "(1/2*x)/(y)"
    g = gaussian_rationals()
    z = 1 / (g.one + g.sqrt_minus_one())
    assert z.v == (Fraction(1, 2), Fraction(-1, 2))
    assert all(type(x) is Fraction for x in z.v)
    assert all(type(x) is int for x in (z * 2 * (g.one + g.sqrt_minus_one())).v)
