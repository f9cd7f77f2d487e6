from itertools import combinations

import pytest

from xratio.fields import (FieldElement, FieldMismatchError, XratioError, field_by_name,
                           prime_field, rationals)
from xratio.poly import Ring
from xratio.projline import AffineMap, ProjPoint1, borel_stabilizer


def pts(field, values):
    out = []
    for v in values:
        out.append(ProjPoint1.infinity(field) if v == "inf"
                   else ProjPoint1.affine(field, field.from_int(v)))
    return out


def p1_points(field):
    """All q+1 points, affine in field enumeration order, then infinity."""
    pts = [ProjPoint1.affine(field, v) for v in field.elements()]
    pts.append(ProjPoint1.infinity(field))
    return pts


def borel_elements(field):
    """The q*(q-1) upper-triangular elements s -> alpha*s + beta."""
    for alpha in field.elements():
        if alpha.is_zero():
            continue
        for beta in field.elements():
            yield AffineMap(field, alpha, beta)


def elements(field, *payloads):
    """The payloads held by points and maps, as elements for the reference
    arithmetic below."""
    return (FieldElement(field, v) for v in payloads)


def apply(m, p):
    """The image of the point p under the affine map m, which fixes infinity."""
    if p.infinite:
        return p
    alpha, value, beta = elements(m.field, m.alpha, p.value, m.beta)
    return ProjPoint1.affine(m.field, alpha * value + beta)


def compose(m, o):
    """(m*o)(s) = m(o(s))."""
    alpha, beta, o_alpha, o_beta = elements(m.field, m.alpha, m.beta, o.alpha, o.beta)
    return AffineMap(m.field, alpha * o_alpha, alpha * o_beta + beta)


def coefficients(maps):
    """(alpha, beta) payloads of each map, in order; an AffineMap has no equality."""
    return [(m.alpha, m.beta) for m in maps]


def test_point_construction_and_display():
    f5 = prime_field(5)
    assert str(ProjPoint1.affine(f5, f5.from_int(7))) == "2"
    assert str(ProjPoint1.infinity(f5)) == "inf"


def test_p1_has_q_plus_one_points():
    f3 = prime_field(3)
    assert [str(p) for p in p1_points(f3)] == ["0", "1", "2", "inf"]


def test_moebius_action():
    f7 = prime_field(7)
    m = AffineMap(f7, 3, 2)  # s -> 3s + 2
    assert apply(m, ProjPoint1.infinity(f7)) == ProjPoint1.infinity(f7)
    assert apply(m, ProjPoint1.affine(f7, f7.from_int(2))) == \
        ProjPoint1.affine(f7, f7.from_int(1))
    assert coefficients([m]) == [(3, 2)]
    assert str(compose(m, AffineMap(f7, 2, 1))) == "s -> 6*s + 5"  # 3(2s + 1) + 2
    assert str(compose(AffineMap(f7, 5, 0), AffineMap(f7, 3, 0))) == "s -> s"
    with pytest.raises(XratioError):
        AffineMap(f7, 0, 1)
    with pytest.raises(XratioError):
        AffineMap(f7, f7.from_int(7), 1)


def test_affine_map_display_keeps_a_composite_alpha_one_factor():
    f = field_by_name("F3(i)")
    one_plus_i = f.one + f.sqrt_minus_one()
    assert str(AffineMap(f, one_plus_i, 0)) == "s -> (1 + i)*s"
    assert str(AffineMap(f, one_plus_i, 1)) == "s -> (1 + i)*s + 1"
    assert str(AffineMap(f, 2, 1)) == "s -> 2*s + 1"
    assert str(AffineMap(f, 1, 2)) == "s -> s + 2"
    assert str(AffineMap(f, 1, 0)) == "s -> s"


def test_group_element_counts():
    f5 = prime_field(5)
    assert len(list(borel_elements(f5))) == 5 * 4


def test_borel_stabilizer_frozen_cases_f101():
    f = prime_field(101)
    stab = borel_stabilizer(pts(f, (0, 1, 2, 3)), f)
    assert sorted(str(m) for m in stab) == ["s -> 100*s + 3", "s -> s"]
    generic = borel_stabilizer(pts(f, (0, 1, 2, 4)), f)
    assert [str(m) for m in generic] == ["s -> s"]
    stab_inf = borel_stabilizer(pts(f, (0, 1, 2, "inf")), f)
    assert sorted(str(m) for m in stab_inf) == ["s -> 100*s + 2", "s -> s"]


def test_borel_stabilizer_is_subgroup():
    f7 = prime_field(7)
    stab = borel_stabilizer(pts(f7, (0, 1, 2, 3)), f7)
    assert sorted(str(m) for m in stab) == ["s -> 6*s + 3", "s -> s"]
    strs = {str(m) for m in stab}
    for m1 in stab:
        for m2 in stab:
            assert str(compose(m1, m2)) in strs


def test_borel_fast_path_matches_generic_enumeration():
    f13 = prime_field(13)
    fixtures = [(0, 1, 2, 3), (0, 2, 5, 11), (1, 4, 6, 12), (0, 3, 6, 9)]
    for raw in fixtures:
        sample = pts(f13, raw)
        fast = borel_stabilizer(sample, f13)
        names = {str(p) for p in sample}
        slow = [m for m in borel_elements(f13)
                if {str(apply(m, p)) for p in sample} == names]
        assert [str(m) for m in fast] == [str(m) for m in slow]
    mixed = pts(f13, (0, 1, 2, "inf"))
    assert any(str(m) != "s -> s" for m in borel_stabilizer(mixed, f13))


@pytest.mark.parametrize("name", ["F5", "F7", "F3(i)"])
def test_borel_stabilizer_matches_filter_over_every_4_subset(name):
    field = field_by_name(name)
    elements = list(borel_elements(field))
    for sample in combinations(p1_points(field), 4):
        members = set(sample)
        scanned = [m for m in elements
                   if all(apply(m, p) in members for p in sample)]
        assert coefficients(borel_stabilizer(sample, field)) == \
            coefficients(scanned), sample


@pytest.mark.parametrize("name, values", [
    ("F101", (0, 1, 2, 3)), ("F101", (0, 1, 2, "inf")), ("F13", (0, 3, 6, 9)),
    ("F7(i)", (0, 1, 2, 3)), ("F3(i)", (0, 1, 2, "inf")),
])
def test_borel_stabilizer_inverts_once_per_call(name, values, monkeypatch):
    field = field_by_name(name)
    sample = pts(field, values)
    expected = borel_stabilizer(sample, field)
    calls = []
    inv = field.raw_inv

    def counted(v):
        calls.append(v)
        return inv(v)

    monkeypatch.setattr(field, "raw_inv", counted)
    assert coefficients(borel_stabilizer(sample, field)) == coefficients(expected)
    assert len(calls) == 1  # of s1 - s0, not one per candidate


def test_stabilizer_input_validation():
    f101 = prime_field(101)
    with pytest.raises(XratioError, match="distinct"):
        f2 = prime_field(2)
        borel_stabilizer(pts(f2, (0, 1, 2, 3)), f2)
    with pytest.raises(XratioError, match="4-set"):
        borel_stabilizer(pts(f101, (0, 1, 2)), f101)
    f1009 = field_by_name("F1009")
    assert [str(m) for m in borel_stabilizer(pts(f1009, (0, 1, 2, 3)), f1009)] == \
        ["s -> s", "s -> 1008*s + 3"]
    with pytest.raises(XratioError, match="finite field"):
        borel_stabilizer(pts(rationals(), (0, 1, 2, 3)), rationals())
    with pytest.raises(XratioError):
        borel_stabilizer(pts(prime_field(5), (0, 1, 2, 3)), prime_field(7))


def test_points_and_maps_take_only_ints_and_elements_of_their_field():
    f5, f7 = prime_field(5), prime_field(7)
    cases = [
        (lambda: ProjPoint1.affine(f5, f7.from_int(6)), "<F7: 6>"),
        (lambda: ProjPoint1.affine(f5, "x"), "'x'"),
        (lambda: AffineMap(f5, 2.5, 1), "2.5"),
        # the F5 set {1, 2, 3, 6} built from F7 elements: refused at each point
        (lambda: borel_stabilizer([ProjPoint1.affine(f5, f7.from_int(v))
                                   for v in (1, 2, 3, 6)], f5), "<F7: 1>"),
    ]
    for build, shown in cases:
        with pytest.raises(FieldMismatchError) as info:
            build()
        assert str(info.value) == f"{shown} is not a scalar of F5"  # Ring.const's message
    with pytest.raises(FieldMismatchError, match=r"^<F7: 6> is not a scalar of F5$"):
        Ring(f5, ("x",)).const(f7.from_int(6))


def test_points_and_maps_hold_canonical_payloads():
    f5, f3i = prime_field(5), field_by_name("F3(i)")
    assert ProjPoint1.affine(f5, 7).value == ProjPoint1.affine(f5, f5.from_int(2)).value == 2
    i = f3i.sqrt_minus_one()
    m = AffineMap(f3i, i, -1)
    assert (m.alpha, m.beta) == ((0, 1), (2, 0))
    assert str(m) == "s -> i*s + 2"
    assert str(ProjPoint1.affine(f3i, i + 1)) == "1 + i"
