import random

import pytest

from xratio.autos import Automorphism, perm_automorphism
from xratio.exprparse import parse_expression
from xratio.fields import XratioError, field_by_name, rationals
from xratio.perms import all_perms, compose, parse_perm
from xratio.poly import Ring
from xratio.tables import derived_values, point_ring
from xratio.ratfunc import DegenerateSubstitutionError, RatFunc, rf_eq, rvar

NINE_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101")


@pytest.fixture
def ring():
    return Ring(rationals(), ("x1", "x2", "x3", "x4"))


def test_requires_image_for_every_variable(ring):
    with pytest.raises(XratioError):
        Automorphism(ring, {"x1": rvar(ring, "x2")})


def test_perm_automorphism_moves_variables(ring, rvars):
    c = parse_perm("(1 2 3 4)")
    s = perm_automorphism(ring, c)
    assert rf_eq(s.apply(rvar(ring, "x1")), rvar(ring, "x2"))
    assert rf_eq(s.apply(rvar(ring, "x4")), rvar(ring, "x1"))
    x1, x2, _, _ = rvars(ring)
    assert rf_eq(s.apply(x1 / (x1 + x2)), x2 / (x2 + rvar(ring, "x3")))


def test_perm_automorphism_is_homomorphism(ring):
    p = parse_perm("(1 2)")
    q = parse_perm("(2 3 4)")
    f = (rvar(ring, "x1") + 2 * rvar(ring, "x3")) / rvar(ring, "x4")
    lhs = perm_automorphism(ring, compose(p, q)).apply(f)
    rhs = perm_automorphism(ring, p).apply(perm_automorphism(ring, q).apply(f))
    assert rf_eq(lhs, rhs)


def test_perm_automorphism_refuses_a_non_permutation(ring):
    with pytest.raises(XratioError, match=r"not a permutation of 1\.\.4: \(1, 1, 2, 3\)"):
        perm_automorphism(ring, (1, 1, 2, 3))
    for p in ((1, 2, 3), (0, 1, 2, 3), (2, 3, 4, 5), (1, 2, 3, 4, 5)):
        with pytest.raises(XratioError, match="not a permutation"):
            perm_automorphism(ring, p)


def _same(f, g):
    return f.num == g.num and f.den == g.den


@pytest.mark.parametrize("name", ("Q", "F2", "F7(i)"))
def test_perm_automorphism_matches_the_generic_map(name):
    """The map built from its source slots agrees with the Automorphism built
    from the same images: images (built on first use) and action.  A product
    of two such maps is again one, with no images built; a product with a
    generic map, on either side, acts as the composed map."""
    field = field_by_name(name)
    ring = point_ring(field)
    values = derived_values(field)
    quantities = [values[n] for n in ("w", "y", "z", "a")]
    vs = ring.variables
    autos, generics = {}, {}
    for p in all_perms():
        s = autos[p] = perm_automorphism(ring, p)
        generic = generics[p] = Automorphism(
            ring, {v: rvar(ring, vs[p[k] - 1]) for k, v in enumerate(vs)})
        for f in quantities:
            assert _same(s.apply(f), generic.apply(f))
        assert s._images is None  # applying the map built no images
        assert list(s.images) == list(vs)
        assert all(_same(s.images[v], generic.images[v]) for v in vs)
        assert repr(s) == repr(generic)
        assert s.is_identity() == (p == (1, 2, 3, 4))
    for p in all_perms():
        for q in all_perms():
            product, composed = autos[p] * autos[q], autos[compose(p, q)]
            assert product._images is None and product._src == composed._src
            assert all(_same(product.images[v], composed.images[v]) for v in vs)
            for mixed in (autos[p] * generics[q], generics[p] * autos[q]):
                assert all(_same(mixed.apply(f), composed.apply(f)) for f in quantities)


def test_orders(ring):
    identity = Automorphism(ring, {v: rvar(ring, v) for v in ring.variables})
    assert identity.identity_power(1) == 1
    cycle = perm_automorphism(ring, parse_perm("(1 2 3 4)"))
    assert cycle.identity_power(24) == 4
    assert cycle.identity_power(3) is None
    assert perm_automorphism(ring, parse_perm("(1 2)")).identity_power(24) == 2
    orders = {perm_automorphism(ring, p).identity_power(24) for p in all_perms()}
    assert orders == {1, 2, 3, 4}


def test_a_shift_has_no_identity_power_up_to_the_bound():
    r = Ring(rationals(), ("u",))
    shift = Automorphism(r, {"u": rvar(r, "u") + 1})
    assert shift.identity_power(24) is None


def test_degenerate_map_fails_order_check():
    r = Ring(rationals(), ("u",))
    collapse = Automorphism(r, {"u": rvar(r, "u") * 0 + 1})
    assert collapse.identity_power(8) is None


def test_identity_power_composes_at_most_m_minus_1_times(monkeypatch):
    r = Ring(rationals(), ("u",))
    shift = Automorphism(r, {"u": rvar(r, "u") + 1})
    products = []
    compose = Automorphism.__mul__
    monkeypatch.setattr(Automorphism, "__mul__",
                        lambda s, t: products.append(t) or compose(s, t))
    for m in (1, 2, 5):
        products.clear()
        assert shift.identity_power(m) is None
        assert len(products) == m - 1


def test_negate_invert_action(rvars):
    r = Ring(rationals(), ("b", "u"))
    b, u = rvars(r)
    s = Automorphism(r, {"b": -b, "u": -1 / u})
    assert s.identity_power(1) is None and s.identity_power(2) == 2
    assert s.fixes(b * b)
    assert s.fixes(b * (u * u + 1) / (2 * u))
    assert s.fixes((u * u - 1) / (2 * u))
    assert not s.fixes(u)
    assert not s.fixes(b)


def test_moebius_composition_reverses_matrix_order():
    r = Ring(rationals(), ("u",))
    u = rvar(r, "u")
    m1 = Automorphism(r, {"u": u + 1})
    m2 = Automorphism(r, {"u": 2 * u})
    assert rf_eq((m1 * m2).apply(u), 2 * (u + 1))
    assert rf_eq((m2 * m1).apply(u), 2 * u + 1)


def test_apply_accepts_polynomials(ring):
    s = perm_automorphism(ring, parse_perm("(1 2)"))
    assert rf_eq(s.apply(ring.var("x1")), rvar(ring, "x2"))


@pytest.fixture
def substitutions(monkeypatch):
    """The rational functions RatFunc.substitute is called on, in order."""
    calls = []
    original = RatFunc.substitute

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "substitute", counted)
    return calls


def _random_ratfunc(ring, rng):
    def poly():
        return ring.poly({tuple(rng.randrange(4) for _ in ring.variables):
                          rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))})
    den = poly()
    while den.is_zero():
        den = poly()
    return RatFunc(ring, poly(), den)


@pytest.mark.parametrize("name", NINE_FIELDS)
def test_permutations_rename_like_the_substitution(name, substitutions):
    ring = Ring(field_by_name(name), ("x1", "x2", "x3", "x4"))
    rng = random.Random(f"renaming-{name}")
    fs = [_random_ratfunc(ring, rng) for _ in range(5)]
    for p in all_perms():
        s = perm_automorphism(ring, p)
        for f in fs:
            expected = f.substitute(s.images)
            substitutions.clear()
            got = s.apply(f)
            assert not substitutions
            assert got.num == expected.num and got.den == expected.den


def test_renaming_orientation_on_the_four_cycle(ring, substitutions):
    s = perm_automorphism(ring, parse_perm("(1 2 3 4)"))
    x1, x2, x3, x4 = ring.vars()
    assert s.apply(x1).num == x2
    got = s.apply(RatFunc(ring, 5 * x1 ** 3 * x2 * x4 ** 2 + x3, x2 * x3 ** 2))
    assert got.num == 5 * x2 ** 3 * x3 * x1 ** 2 + x4
    assert got.den == x3 * x4 ** 2
    assert not substitutions


@pytest.mark.parametrize("image", ["2*x1", "x1 + x2", "x2/x3", "x2"])
def test_other_images_stay_on_the_substitution_path(ring, substitutions, image,
                                                     rvars):
    images = {v: rvar(ring, v) for v in ring.variables}
    images["x1"] = parse_expression(image, ring)
    s = Automorphism(ring, images)   # "x2": x1 -> x2, x2 -> x2 is not injective
    x1, x2, x3, x4 = rvars(ring)
    f = (x1 * x1 + x3) / (x2 + x4)
    got = s.apply(f)
    assert len(substitutions) == 1
    assert rf_eq(got, f.substitute(images))


def test_a_collapsing_image_map_still_finds_a_vanishing_denominator(ring, rvars):
    x1, x2, _, _ = rvars(ring)
    collapse = Automorphism(ring, {"x1": x2, "x2": x2, "x3": rvar(ring, "x3"),
                                   "x4": rvar(ring, "x4")})
    with pytest.raises(DegenerateSubstitutionError):
        collapse.apply(1 / (x1 - x2))
