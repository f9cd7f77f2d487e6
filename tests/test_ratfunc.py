import pytest

from xratio.fields import (XratioError, field_by_name, gaussian_rationals, prime_field,
                           rationals)
from xratio.poly import Ring, RingMismatchError
from xratio.ratfunc import (DegenerateSubstitutionError, RatFunc,
                            ZeroDenominatorError, jacobian_rank, rat, rf_eq,
                            rvar)


@pytest.fixture
def ring():
    return Ring(rationals(), ("x", "y"))


def test_zero_denominator_rejected(ring):
    with pytest.raises(ZeroDenominatorError):
        RatFunc(ring, ring.one, ring.zero)
    x = ring.var("x")
    with pytest.raises(ZeroDenominatorError):
        RatFunc(ring, x, x - x)


def test_equality_is_semantic_not_structural(ring):
    x, y = ring.vars()
    f = RatFunc(ring, x, y)
    g = RatFunc(ring, x * (x + 1), y * (x + 1))
    assert f.num != g.num
    assert rf_eq(f, g)
    assert not rf_eq(f, RatFunc(ring, y, x))


def test_equal_denominators_compare_numerators(ring):
    x, y = ring.vars()
    d = x * x + y
    assert not rf_eq(RatFunc(ring, x, d), RatFunc(ring, y, d))
    assert rf_eq(RatFunc(ring, x * y + 1, d), RatFunc(ring, 1 + y * x, d))
    # different denominators still meet by cross-multiplication
    assert rf_eq(RatFunc(ring, -x, -d), RatFunc(ring, x, d))
    assert not rf_eq(RatFunc(ring, -x, -d), RatFunc(ring, y, d))


def test_arithmetic(ring, rvars):
    x, y = rvars(ring)
    half = rat(ring, 1) / 2
    assert rf_eq(half + half, 1)
    assert rf_eq(x / y + y / x, (x.num * x.num + y.num * y.num) / (x * y))
    assert rf_eq((x + y) * (x - y), x * x - y * y)
    assert rf_eq(1 / (1 / x), x)
    assert rf_eq(x - x, 0)


def test_inverse_of_zero_rejected(ring):
    with pytest.raises(ZeroDivisionError):
        rat(ring, 0).inv()


def test_unreduced_pairs_never_cancel_silently(ring):
    x = rvar(ring, "x")
    f = x * x / x
    assert f.num == (ring.var("x")) ** 2
    assert f.den == ring.var("x")
    assert rf_eq(f, x)


def test_substitute_clears_denominators(ring, rvars):
    x, y = rvars(ring)
    f = (x + y) / (x - y)
    target = Ring(rationals(), ("s",))
    s = rvar(target, "s")
    g = f.substitute({"x": s / (s + 1), "y": s * s}, target)
    expected = (s / (s + 1) + s * s) / (s / (s + 1) - s * s)
    assert rf_eq(g, expected)


def test_substitute_degenerate_denominator(ring, rvars):
    x, y = rvars(ring)
    f = (x + y) / (x - y)
    with pytest.raises(DegenerateSubstitutionError):
        f.substitute({"x": rvar(ring, "y"), "y": rvar(ring, "y")})


def test_substitute_unused_vars_and_unknown_keys(ring):
    x = rvar(ring, "x")
    target = Ring(rationals(), ("s",))
    assert rf_eq((x / (x + 1)).substitute({"x": 3}, target), rat(target, 3) / 4)
    with pytest.raises(XratioError):
        x.substitute({"q": 1})
    # "y" does not occur, but its image must still live in the target ring
    other = Ring(rationals(), ("s", "r"))
    for image in (rvar(other, "r"), other.var("r"), prime_field(5).from_int(3)):
        with pytest.raises(XratioError):
            (x / (x + 1)).substitute({"x": 3, "y": image}, target)


@pytest.mark.parametrize("name", ["F5", "Q(i)"])
def test_substitute_refuses_another_coefficient_field(ring, rvars, name):
    x, y = rvars(ring)
    target = Ring(field_by_name(name), ("x", "y"))
    with pytest.raises(RingMismatchError, match="cannot change the coefficient field"):
        (x / 2 + y).substitute({}, target)
    with pytest.raises(RingMismatchError):
        (x / 2 + y).substitute({"x": rvar(target, "y")}, target)


def test_display_normalized(ring, rvars):
    x, y = rvars(ring)
    f = (2 * x * y) / (2 * y * y)
    shown = f.display_normalized()
    assert str(shown) == "(x)/(y)"
    assert rf_eq(shown, f)


def test_jacobian_rank_full(rvars):
    r = Ring(rationals(), ("x1", "x2"))
    x1, x2 = rvars(r)
    assert jacobian_rank([x1 + x2, x1 * x2], ("x1", "x2")) == 2


def test_jacobian_rank_detects_dependence(rvars):
    r = Ring(rationals(), ("x1", "x2"))
    x1, _ = rvars(r)
    assert jacobian_rank([x1, x1 * x1], ("x1", "x2")) == 1
    assert jacobian_rank([x1 / (x1 + 1), x1 * x1], ("x1", "x2")) == 1


def test_jacobian_rank_char0_only(rvars):
    r = Ring(prime_field(5), ("x1", "x2"))
    x1, x2 = rvars(r)
    with pytest.raises(XratioError):
        jacobian_rank([x1, x2], ("x1", "x2"))


@pytest.mark.parametrize("field", [rationals(), prime_field(5), gaussian_rationals()],
                         ids=lambda f: f.name)
def test_polynomials_add_and_multiply_without_products_by_one(field):
    ring = Ring(field, ("x1", "x2"))
    x1, x2 = ring.vars()
    polys = [x1 + 2 * x2, x1 * x2 - 3, ring.zero, ring.const(4), x2 ** 3 - x1 * x2 + x1]
    for P in polys:
        for Q in polys:
            # a denominator equal to one need not be the ring's own `one`
            p, q = RatFunc(ring, P), RatFunc(ring, Q, ring.const(1))
            cross = {"+": p.num * q.den + q.num * p.den,
                     "-": p.num * q.den + (-q.num) * p.den,
                     "*": p.num * q.num}
            for op, got in (("+", p + q), ("-", p - q), ("*", p * q)):
                assert got.den == ring.one
                assert list(got.num.terms.items()) == list(cross[op].terms.items()), op


def test_a_fraction_plus_a_polynomial_keeps_its_denominator(rvars):
    ring = Ring(rationals(), ("x1", "x2"))
    x1, x2 = rvars(ring)
    got = (x1 / 2) + x2
    assert got.num == ring.var("x1") + 2 * ring.var("x2")
    assert got.den == ring.const(2)
    assert str(got) == "1/2*x1 + x2"


def test_a_polynomial_and_a_fraction_compare_the_same_either_way_round():
    R = Ring(rationals(), ("x",))
    x = R.var("x")
    assert x == rat(R, x) and rat(R, x) == x
    assert x != rat(R, x) + 1 and rat(R, x) + 1 != x
    S = Ring(rationals(), ("x", "y"))
    for a, b in ((x, rat(S, S.var("x"))), (rat(R, x), S.var("x")),
                 (rat(R, x), rat(S, S.var("x")))):
        assert a != b and b != a
        assert not a == b and not b == a
    with pytest.raises(RingMismatchError):
        rat(R, x) + S.var("x")
