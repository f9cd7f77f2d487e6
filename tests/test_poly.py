import operator
import random
import re
from fractions import Fraction
from itertools import islice

import pytest

from xratio.conic import tail_remainder
from xratio.exprparse import parse_expression
from xratio.fields import (FieldElement, FieldMismatchError, PrimeField, XratioError,
                           field_by_name, gaussian_rationals, prime_field, rationals)
from xratio.poly import MultiPoly, Ring, RingMismatchError
from xratio.ratfunc import RatFunc


@pytest.fixture
def qring():
    return Ring(rationals(), ("x", "y", "z"))


def test_ring_accessors(qring):
    x = qring.var("x")
    assert x.degree_in("x") == 1 and x.total_degree() == 1
    assert qring.zero.is_zero()
    assert qring.one.terms == {(0, 0, 0): rationals().raw_one}
    with pytest.raises(XratioError):
        qring.var("nope")


def test_canonical_form_drops_zero_terms(qring):
    x, y, _ = qring.vars()
    f = (x + y) + (x - y)
    assert f == x * 2
    assert (x - x).is_zero()
    assert len((x + y - y).terms) == 1


def test_structural_equality_is_semantic(qring):
    x, y, _ = qring.vars()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1


def test_display_graded_lex(qring):
    x, y, _ = qring.vars()
    assert str((x + y) * (x + y)) == "x^2 + 2*x*y + y^2"
    assert str(x - y) == "x - y"
    assert str(qring.zero) == "0"
    assert str(-x + 1) == "-x + 1"
    q = rationals()
    assert str(qring.const(q.from_int(2) / q.from_int(3)) * x) == "2/3*x"


def test_coefficient_extraction(qring):
    x, y, _ = qring.vars()
    f = x * x * y + 3 * x * y + y
    assert f.coefficient_of("x", 1) == 3 * y
    assert f.coefficient_of("x", 2) == y
    assert f.coefficient_of("x", 0) == y
    assert f.coefficient_of("y", 1) == x * x + 3 * x + 1


def test_monomial_content_and_division(qring):
    x, y, _ = qring.vars()
    f = x * x * y + x * y
    assert f.monomial_content() == (1, 1, 0)
    assert f.divide_monomial((1, 1, 0)) == x + 1
    assert qring.zero.monomial_content() == (0, 0, 0)


def test_substitute_homomorphism(qring):
    x, y, z = qring.vars()
    target = Ring(rationals(), ("s",))
    s = target.var("s")
    img = {"x": s + 1, "y": s * s, "z": target.one}
    f, g = x * y + z, x - y
    assert (f * g).substitute(img, target) == \
        f.substitute(img, target) * g.substitute(img, target)
    assert (f + g).substitute(img, target) == \
        f.substitute(img, target) + g.substitute(img, target)


def test_substitute_unused_variables_need_no_image(qring):
    x = qring.var("x")
    target = Ring(rationals(), ("s",))
    assert (x * x).substitute({"x": target.var("s")}, target) == \
        target.var("s") ** 2


def test_substitute_rejects_unknown_keys(qring):
    x = qring.var("x")
    with pytest.raises(XratioError):
        x.substitute({"w": qring.one})


def test_substitute_used_variable_missing_from_target(qring):
    x, y, _ = qring.vars()
    target = Ring(rationals(), ("s",))
    with pytest.raises(XratioError):
        (x + y).substitute({"x": target.var("s")}, target)


def test_substitute_int_and_element_images(qring):
    x, y, _ = qring.vars()
    f = x * y + y
    val = f.substitute({"x": 2, "y": rationals().from_int(3)})
    assert val == qring.const(9)


@pytest.mark.parametrize("var", ["x", "z"])  # x occurs in f, z does not
def test_substitute_refuses_images_that_are_not_polynomials_of_the_target(qring, var):
    x, y, _ = qring.vars()
    f = x * y + 1
    other = Ring(rationals(), ("x", "y", "z", "w"))
    with pytest.raises(RingMismatchError, match="an image must be a polynomial"):
        f.substitute({var: other.var("x")})
    for image in (RatFunc(qring, y, y + 1), "y", 0.5):
        with pytest.raises(XratioError, match=re.escape(f"not {image!r}")) as caught:
            f.substitute({var: image})
        assert type(caught.value) is XratioError


def test_derivative_leibniz_spot(qring):
    x, y, _ = qring.vars()
    f = x * x * y + y
    g = x + y * y
    assert (f * g).derivative("x") == \
        f.derivative("x") * g + f * g.derivative("x")
    assert (x * x * x).derivative("x") == 3 * x * x
    assert qring.one.derivative("y").is_zero()


def test_derivative_in_positive_characteristic():
    r = Ring(prime_field(3), ("x",))
    x = r.var("x")
    assert (x ** 3).derivative("x").is_zero()


def test_embed(qring):
    x = qring.var("x")
    big = Ring(rationals(), ("x", "y", "z", "w"))
    f = (x + 1).embed(big)
    assert f.ring == big
    assert f == big.var("x") + 1


def test_embed_maps_exponent_slots_without_substituting(qring, monkeypatch):
    x, y, z = qring.vars()
    f = 3 * x ** 2 * z - x + 5
    monkeypatch.setattr(MultiPoly, "substitute", None)  # embed must not call it
    # slots follow the names; a variable that does not occur may be dropped
    small = f.embed(Ring(rationals(), ("z", "x")))
    assert small.terms == {(1, 2): 3, (0, 1): -1, (0, 0): 5}
    big = f.embed(Ring(rationals(), ("w", "z", "y", "x")))
    assert big.terms == {(0, 1, 0, 2): 3, (0, 0, 0, 1): -1, (0, 0, 0, 0): 5}
    with pytest.raises(RingMismatchError, match="cannot change the coefficient field"):
        f.embed(Ring(prime_field(5), ("x", "y", "z")))
    with pytest.raises(XratioError, match="'z' is not a variable of"):
        f.embed(Ring(rationals(), ("x", "y")))
    assert (y - 1).embed(Ring(rationals(), ("y",))) == Ring(rationals(), ("y",)).var("y") - 1


def test_permute_renames_exponent_slots(qring):
    x, y, z = qring.vars()
    f = 3 * x ** 2 * y + z - 1
    # slot j of the image takes slot src[j]: x -> y, y -> z, z -> x
    assert f.permute((2, 0, 1)) == 3 * y ** 2 * z + x - 1
    assert f.permute((0, 1, 2)) is f


def test_ring_mismatch_rejected(qring):
    other = Ring(rationals(), ("x",))
    with pytest.raises(RingMismatchError):
        qring.var("x") + other.var("x")


def test_rings_are_interned_per_field_name_and_variables():
    f5 = prime_field(5)
    ring = Ring(f5, ("x", "y"))
    assert Ring(f5, ("x", "y")) is ring
    assert Ring(f5, ["x", "y"]) is ring
    # fields compare by name, so a separately built F5 gives the same ring
    assert PrimeField(5) is not f5
    assert Ring(PrimeField(5), ("x", "y")) is ring
    assert Ring(f5, ("y", "x")) is not ring
    assert Ring(prime_field(7), ("x", "y")) is not ring
    with pytest.raises(XratioError, match="duplicate ring variables"):
        Ring(f5, ("x", "y", "x"))
    with pytest.raises(RingMismatchError):
        ring.var("x") * Ring(f5, ("x", "z")).var("x")
    with pytest.raises(RingMismatchError):
        RatFunc(ring, Ring(f5, ("x",)).var("x"))


def test_pow(qring):
    x, y, _ = qring.vars()
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert (x + y) ** 0 == qring.one


def test_finite_field_coefficients_wrap():
    r = Ring(prime_field(5), ("x",))
    x = r.var("x")
    assert 3 * x + 2 * x == r.zero
    assert str(x * x * 7) == "2*x^2"


def test_foreign_field_scalar_rejected(qring):
    # an F5 element is not a rational number: it must not be read as 3
    three = prime_field(5).from_int(3)
    x = qring.var("x")
    with pytest.raises(FieldMismatchError):
        qring.const(three)
    with pytest.raises(FieldMismatchError):
        qring.poly({(1, 0, 0): three})
    with pytest.raises(FieldMismatchError):
        x + three
    with pytest.raises(FieldMismatchError):
        x.substitute({"y": three})


def test_foreign_field_scalar_is_never_equal(qring):
    three_mod5 = prime_field(5).from_int(3)
    assert not qring.const(3) == three_mod5
    assert qring.const(3) != three_mod5
    assert qring.const(3) == rationals().from_int(3)


def test_payloads_and_coefficients(qring):
    f5 = prime_field(5)
    ring = Ring(f5, ("x",))
    x = ring.var("x")
    p = (x + 3) * (x + 4)  # x^2 + 7x + 12 = x^2 + 2x + 2 over F5
    assert p.terms == {(2,): 1, (1,): 2, (0,): 2}
    assert {e: FieldElement(f5, c) for e, c in p.terms.items()} == {
        (2,): f5.one, (1,): f5.from_int(2), (0,): f5.from_int(2)}
    assert p.leading() == ((2,), f5.one)
    assert ring.poly({(0,): 5, (1,): f5.from_int(7)}).terms == {(1,): 2}


@pytest.mark.parametrize("terms", [
    {(1,): 1}, {(-1, 0): 1}, {(1, 2, 3): 2}, {(): 1},
    {(1.0, 0): 1}, {(True, 0): 1}, {("1", 0): 1}, {(0, 0): 1, (2, -3): 4},
])
def test_ring_poly_refuses_malformed_exponent_tuples(terms):
    ring = Ring(prime_field(5), ("x", "y"))
    bad = next(e for e in terms if e != (0, 0))
    message = f"{bad!r} is not an exponent tuple of Ring(F5[x, y])"
    with pytest.raises(XratioError, match=f"^{re.escape(message)}$"):
        ring.poly(terms)


def test_ring_poly_keeps_well_formed_tuples_and_const_skips_the_check(monkeypatch):
    ring = Ring(prime_field(5), ("x", "y"))
    assert ring.poly({(1, 0): 1, (0, 2): 3, (0, 0): 5}).terms == {(1, 0): 1, (0, 2): 3}
    assert ring.poly({(2 ** 70, 0): 2}).terms == {(2 ** 70, 0): 2}
    monkeypatch.setattr(Ring, "poly", None)  # constants build the zero key themselves
    assert ring.const(7).terms == {(0, 0): 2}
    assert ring.const(5).terms == {}
    assert str(parse_expression("3*x + 2 - y^2", ring).num) == "4*y^2 + 3*x + 2"


@pytest.mark.parametrize("n", range(10))
def test_exponent_adder_sums_every_slot_for_every_arity(n):
    # the exponent sums now live inside the generated product kernels; every
    # ring of one arity and field shares one kernel set, and fields of one
    # payload kind share its code
    names = tuple(f"v{k}" for k in range(n))
    ring = Ring(rationals(), names)
    assert Ring(rationals(), names).product is ring.product
    assert (Ring(prime_field(3), names).product.__code__
            is Ring(prime_field(5), names).product.__code__)
    rng = random.Random(n)
    for _ in range(20):
        a, b = (tuple(rng.choice((0, 1, 2, 7, 2 ** 64 - 1, 2 ** 64, 3 ** 90))
                      for _ in range(n)) for _ in range(2))
        (e,) = ring.monomial_product({a: 2}, b, 3)
        (f,) = ring.product({a: 2}, {b: 3})
        (g,) = ring.accumulate_product({}, {a: 2}, {b: 3})
        assert e == f == g == tuple(map(operator.add, a, b)) and type(e) is tuple


def test_huge_exponents_stay_exact():
    ring = Ring(rationals(), ("x1", "x2"))
    x1, x2 = ring.vars()
    assert (x1 ** 100000).terms == {(100000, 0): 1}
    assert ((x1 + x2) * x1 ** (2 ** 64)).terms == {(2 ** 64 + 1, 0): 1, (2 ** 64, 1): 1}


def _schoolbook(p, q):
    """p*q by one FieldElement sum per term pair, exponents added by map."""
    field, out = p.ring.field, {}
    for e1, c1 in ((e, FieldElement(field, c)) for e, c in p.terms.items()):
        for e2, c2 in ((e, FieldElement(field, c)) for e, c in q.terms.items()):
            e = tuple(map(operator.add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return p.ring.poly(out)


KERNEL_FIELDS = ("Q", "Q(i)", "F2", "F5", "F101", "F3(i)", "F7(i)")


def _random_scalar(field, rng):
    """A random nonzero element; over Q about half the parts are fractions
    like 3/2 and 4/3, whose pairwise products are often integral."""
    def part():
        return (Fraction(rng.choice((-3, -2, 2, 3, 4, 9)), rng.choice((2, 3)))
                if rng.random() < 0.5 else rng.randint(-9, 9))

    while True:
        if field.characteristic:
            c = rng.choice(list(islice(field.elements(), 200)))
        else:
            c = FieldElement(field, field.reduce((part(), part()) if field.name == "Q(i)"
                                                 else part()))
        if not c.is_zero():
            return c


def _random_poly(ring, rng, terms):
    n = len(ring.variables)
    return ring.poly({tuple(rng.choice((0, 0, 1, 2, 3, 2 ** 64)) for _ in range(n)):
                      _random_scalar(ring.field, rng) for _ in range(terms)})


def _typed(terms):
    # repr tells the canonical int 1 from Fraction(1, 1), which compare equal
    return {e: repr(c) for e, c in terms.items()}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", KERNEL_FIELDS)
def test_kernels_match_the_schoolbook_product(name, n):
    ring = Ring(field_by_name(name), tuple(f"v{k}" for k in range(n)))
    rng = random.Random(f"{name}-{n}")
    for _ in range(25):
        p, q = (_random_poly(ring, rng, rng.randint(2, 6)) for _ in range(2))
        want = _typed(_schoolbook(p, q).terms)
        assert _typed((p * q).terms) == want
        raw = ring.accumulate_product({}, p.terms, q.terms)
        assert _typed(ring.canonical(raw)) == want
        # raw sums that cancel to zero: p*q - p*q, accumulated unreduced
        assert ring.canonical(ring.accumulate_product(raw, (-p).terms, q.terms)) == {}
        m = _random_poly(ring, rng, 1)
        assert len(m.terms) == 1  # the monomial branch, from either side
        want = _typed(_schoolbook(p, m).terms)
        assert _typed((p * m).terms) == want == _typed((m * p).terms)
        (c,) = m.terms.values()
        scaled = ring.canonical(ring.accumulate_scaled({}, p.terms, c))
        assert _typed(scaled) == _typed(_schoolbook(p, ring.const(FieldElement(ring.field, c))).terms)
        assert p * ring.one is p and p * 1 is p
        # one * p is p too, unless p is a monomial: then one is the operand
        # that takes the general side of the monomial branch
        assert (ring.one * p is p) == (len(p.terms) > 1) and ring.one * p == p
    # terms that cancel: (v0 + v1)(v0 - v1) has no v0*v1 term, or at arity 1
    # (v0 + 1)(v0 - 1) none in v0
    v = ring.vars() + (ring.one,)
    s, d = v[0] + v[1], v[0] - v[1]
    assert (s * d).terms == _schoolbook(s, d).terms == (v[0] * v[0] - v[1] * v[1]).terms


@pytest.mark.parametrize("field", [rationals(), prime_field(7), gaussian_rationals()],
                         ids=lambda f: f.name)
def test_products_in_the_tail_remainder_ring_match_the_schoolbook_product(field):
    rem = tail_remainder(field)
    ring = rem.ring
    assert len(ring.variables) == 8
    x, a0, a1, ar, b0, br, c0, cr = ring.vars()
    A, B, C = a0 + a1 * x + x * x * ar, b0 + x * br, c0 + x * cr
    for p, q in [(A, A), (B, C), (A * B, C - 3 * x), (rem, A + B), (rem, x * x)]:
        assert (p * q).terms == _schoolbook(p, q).terms
