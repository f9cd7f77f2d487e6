import pytest

from xratio.fields import FieldMismatchError, XratioError, prime_field, rationals
from xratio.poly import MultiPoly, Ring, RingMismatchError


@pytest.fixture
def qring():
    return Ring(rationals(), ("x", "y", "z"))


def test_ring_accessors(qring):
    x = qring.var("x")
    assert x.degree_in("x") == 1 and x.total_degree() == 1
    assert qring.zero.is_zero()
    assert qring.one.constant_value().is_one()
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


def test_eval(qring):
    x, y, z = qring.vars()
    q = rationals()
    point = {"x": q.from_int(2), "y": q.from_int(-1), "z": q.from_int(5)}
    assert (x * y + z).eval(point) == q.from_int(3)


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


def test_ring_mismatch_rejected(qring):
    other = Ring(rationals(), ("x",))
    with pytest.raises(RingMismatchError):
        qring.var("x") + other.var("x")


def test_pow(qring):
    x, y, _ = qring.vars()
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert (x + y) ** 0 == qring.one


def test_finite_field_coefficients_wrap():
    r = Ring(prime_field(5), ("x",))
    x = r.var("x")
    assert 3 * x + 2 * x == r.zero
    assert str(x * x * 7) == "2*x^2"


def test_constant_value_requires_constant(qring):
    with pytest.raises(XratioError):
        qring.var("x").constant_value()
    assert qring.const(4).constant_value() == rationals().from_int(4)


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
    assert dict(p.coefficients()) == {(2,): f5.one, (1,): f5.from_int(2),
                                      (0,): f5.from_int(2)}
    assert p.leading() == ((2,), f5.one)
    assert ring.poly({(0,): 5, (1,): f5.from_int(7)}).terms == {(1,): 2}
