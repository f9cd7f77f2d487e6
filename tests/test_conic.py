from itertools import product

import pytest

from xratio.conic import (SEARCH_BUDGET, DegenerateConicError, ProjPoint2,
                          SearchBudgetError, TernaryForm, _clear_denominators,
                          _coeff_list, bounded_point_search, char2_form,
                          criterion_form, decide_isotropy, form_from_text,
                          parametrize, searchable_degree, standard_form)
from xratio.exprparse import parse_expression
from xratio.fields import XratioError, field_by_name, prime_field, rationals
from xratio.poly import Ring
from xratio.ratfunc import CharacteristicError, rat, rf_eq, rvar


def test_standard_form_structure():
    form = standard_form(rationals())
    x = rvar(form.ring, "x")
    assert rf_eq(form.coeff("Y", "Y"), 1)
    assert rf_eq(form.coeff("Z", "Z"), -x)
    assert rf_eq(form.coeff("W", "W"), -x)
    assert rf_eq(form.coeff("Y", "Z"), 0)
    assert form.is_smooth()
    with pytest.raises(CharacteristicError):
        standard_form(prime_field(2))


def test_char2_form_structure():
    form = char2_form(prime_field(2))
    assert form.is_smooth()
    with pytest.raises(CharacteristicError):
        char2_form(rationals())


def test_criterion_form_dispatch():
    assert criterion_form(prime_field(2)).coeffs.keys() == \
        char2_form(prime_field(2)).coeffs.keys()
    assert criterion_form(prime_field(5)).coeffs.keys() == \
        standard_form(prime_field(5)).coeffs.keys()


def test_degenerate_forms_are_not_smooth():
    ring = Ring(rationals(), ("x",))
    x = rat(ring, ring.var("x"))
    rank2 = TernaryForm(ring, {("Y", "Y"): rat(ring, 1), ("Z", "Z"): -x})
    assert not rank2.is_smooth()
    ring2 = Ring(prime_field(2), ("x",))
    x2 = rat(ring2, ring2.var("x"))
    no_cross = TernaryForm(ring2, {("Z", "Z"): rat(ring2, 1), ("W", "W"): x2})
    assert not no_cross.is_smooth()


def test_projpoint2_scaling():
    form = standard_form(prime_field(5))
    p = ProjPoint2(form.ring, (0, 2, 1))
    q = ProjPoint2(form.ring, (0, 4, 2))
    assert p.same_point(q)
    assert not p.same_point(ProjPoint2(form.ring, (0, 1, 2)))
    assert str(p) == "(0 : 2 : 1)"
    with pytest.raises(XratioError):
        ProjPoint2(form.ring, (0, 0, 0))


def test_is_point():
    f5 = prime_field(5)
    form = standard_form(f5)
    assert form.is_point(ProjPoint2(form.ring, (0, 2, 1)))
    assert not form.is_point(ProjPoint2(form.ring, (1, 1, 1)))


def test_form_from_text_round_trip():
    q = rationals()
    form = form_from_text(q, "Y^2 - x*Z^2 - x*W^2")
    ref = standard_form(q)
    for pair in (("Y", "Y"), ("Z", "Z"), ("W", "W"), ("Y", "Z")):
        assert rf_eq(form.coeff(*pair), ref.coeff(*pair))
    with pytest.raises(XratioError):
        form_from_text(q, "Y^3 - x*W^2 *Y^0")
    with pytest.raises(XratioError):
        form_from_text(q, "Y^2/Z - W^2")


@pytest.mark.parametrize("name, degree, expected", [
    ("F5", 0, "(0 : 2 : 1)"),
    ("F5", 2, "(0 : 2 : 1)"),
    ("F3", 2, None),
    ("F2", 1, "(1 : 0 : 0)"),
    ("F101", 0, "(0 : 10 : 1)"),
    ("F7", 0, None),
])
def test_bounded_search_frozen_results(name, degree, expected):
    field = field_by_name(name)
    form = criterion_form(field)
    found = bounded_point_search(form, degree)
    if expected is None:
        assert found is None
    else:
        assert str(found) == expected
        assert form.is_point(found)


def _reference_search(form, degree_bound):
    """The plain triple loop over (W, Z, Y): the search's defining order."""
    field = form.ring.field
    cleared = dict(zip(form.coeffs, _clear_denominators(list(form.coeffs.values()))))
    maxdeg = max(0, *(p.total_degree() for p in cleared.values()))
    cl = {pair: _coeff_list(p, maxdeg) for pair, p in cleared.items()}

    zero = field.zero
    elems = list(field.elements())
    polys = [tuple(reversed(t)) for t in product(elems, repeat=degree_bound + 1)]

    def lmul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return out

    def ladd(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, bj in enumerate(b):
            out[j] = out[j] + bj
        return out

    def is_zero_list(a):
        return all(x.is_zero() for x in a)

    sq = [lmul(p, p) for p in polys]
    tY = [lmul(cl[("Y", "Y")], s) for s in sq]
    tZ = [lmul(cl[("Z", "Z")], s) for s in sq]
    tW = [lmul(cl[("W", "W")], s) for s in sq]
    cYZ, cYW, cZW = cl[("Y", "Z")], cl[("Y", "W")], cl[("Z", "W")]
    use_cross = not (is_zero_list(cYZ) and is_zero_list(cYW) and is_zero_list(cZW))
    memo = {}

    def cross(i, j):
        key = (i, j) if i <= j else (j, i)
        v = memo.get(key)
        if v is None:
            v = lmul(polys[i], polys[j])
            memo[key] = v
        return v

    rng_ = range(len(polys))
    for iw in rng_:
        pw = tW[iw]
        for iz in rng_:
            pzw = ladd(pw, tZ[iz])
            if use_cross:
                pzw = ladd(pzw, lmul(cZW, cross(iz, iw)))
            for iy in rng_:
                if iy == 0 and iz == 0 and iw == 0:
                    continue
                val = ladd(pzw, tY[iy])
                if use_cross:
                    val = ladd(val, lmul(cYZ, cross(iy, iz)))
                    val = ladd(val, lmul(cYW, cross(iy, iw)))
                if is_zero_list(val):
                    coords = []
                    for idx in (iy, iz, iw):
                        terms = {(k,): c for k, c in enumerate(polys[idx])}
                        coords.append(form.ring.poly(terms))
                    return ProjPoint2(form.ring, coords)
    return None


# None stands for criterion_form; the rest carry Y*Z, Y*W or Z*W cross terms
SEARCH_FORMS = (
    None,
    "Y^2 + Y*Z - x*Z^2 - x*W^2",
    "x*Y^2 + Y*Z + Z^2 + x^2*W^2 + Y*W",
    "Y*Z + x*Y*W + x*Z^2 + (x + 1)*W^2",
    "Y^2/x + Y*W - Z^2 + Z*W",
    "Z^2 - x*W^2",
)

SEARCH_CASES = [
    (name, text, d)
    for name in ("F2", "F3", "F5", "F7", "F3(i)")
    for text in SEARCH_FORMS
    for d in range(7)
    if (field_by_name(name).order ** (d + 1)) ** 3 <= 2 * 10 ** 6
]


@pytest.mark.slow
@pytest.mark.parametrize("name, text, degree", SEARCH_CASES)
def test_search_matches_reference_triple_loop(name, text, degree):
    field = field_by_name(name)
    form = criterion_form(field) if text is None else form_from_text(field, text)
    found = bounded_point_search(form, degree)
    expected = _reference_search(form, degree)
    assert str(found) == str(expected)
    if found is not None:
        assert form.is_point(found)


def test_searchable_degree():
    assert searchable_degree(prime_field(2), 9) == 6
    assert searchable_degree(prime_field(3), 2) == 2
    assert searchable_degree(prime_field(7), 4) == 1
    assert searchable_degree(field_by_name("F7(i)"), 2) == 0
    assert searchable_degree(prime_field(1009), 2) == -1
    assert searchable_degree(prime_field(5), -1) == -1
    for name in ("F2", "F3", "F5", "F7", "F101"):
        q = field_by_name(name).order
        d = searchable_degree(field_by_name(name), 9)
        assert (q ** (d + 1)) ** 3 <= SEARCH_BUDGET < (q ** (d + 2)) ** 3


def test_search_budget_guard():
    form = criterion_form(prime_field(101))
    with pytest.raises(SearchBudgetError):
        bounded_point_search(form, 1)


def test_negative_degree_bound_is_rejected():
    with pytest.raises(XratioError, match="degree bound must be >= 0"):
        bounded_point_search(criterion_form(prime_field(3)), -1)
    with pytest.raises(XratioError, match="degree bound must be >= 0"):
        decide_isotropy(rationals(), -1)
    with pytest.raises(XratioError, match="degree bound must be >= 0"):
        decide_isotropy(prime_field(5), -1)


def test_search_rejects_infinite_fields():
    with pytest.raises(XratioError):
        bounded_point_search(standard_form(rationals()), 1)


@pytest.mark.parametrize("name, isotropic", [
    ("Q", False), ("Q(i)", True), ("F3", False), ("F5", True),
    ("F7", False), ("F101", True), ("F3(i)", True), ("F7(i)", True),
])
def test_isotropy_decision_matches_sqrt_criterion(name, isotropic):
    field = field_by_name(name)
    dec = decide_isotropy(field, 4)
    assert dec.isotropic == isotropic
    if isotropic:
        assert dec.witness is not None
        assert criterion_form(field).is_point(dec.witness)
        s = field.sqrt_minus_one()
        expected = ProjPoint2(criterion_form(field).ring, (0, s, 1))
        assert dec.witness.same_point(expected)
    else:
        rec = dec.obstruction
        assert rec.verified
        assert len(rec.steps) == 4
        assert rec.degree_bound == 4
        assert "bounded-degree" in rec.note or "degree" in rec.note


def test_isotropy_decision_needs_odd_characteristic():
    with pytest.raises(CharacteristicError):
        decide_isotropy(prime_field(2), 4)


def test_parametrize_gaussian_worked_example():
    qi = field_by_name("Q(i)")
    form = standard_form(qi)
    i = qi.sqrt_minus_one()
    base = ProjPoint2(form.ring, (0, i, 1))
    pm = parametrize(form, base)
    assert pm.chart == "W"
    fy, fz, fw = pm.forward
    pring = pm.param_ring
    x, s = pring.var("x"), pring.var("s")
    two_i = pring.const(qi.from_int(2) * i)
    assert fy == two_i * x * s
    assert fz == pring.const(i) * x * s * s + pring.const(i)
    assert fw == -(x * s * s) + 1
    assert pm.point_at(0).same_point(base)
    for k in (-3, 1, 2, 7):
        assert form.is_point(pm.point_at(k))


def test_parametrize_char2_worked_example():
    f2 = prime_field(2)
    form = char2_form(f2)
    x = rvar(form.ring, "x")
    base = ProjPoint2(form.ring, (x, 1, 1))
    pm = parametrize(form, base)
    assert pm.chart == "W"
    fy, fz, fw = pm.forward
    pring = pm.param_ring
    xv, s = pring.var("x"), pring.var("s")
    assert fy == xv * s * s + s + 1
    assert fz == s
    assert fw == s * s
    assert pm.point_at(1).same_point(base)
    assert str(pm.point_at(0)) == "(1 : 0 : 0)"


def test_parametrize_rejects_bad_inputs():
    f5 = prime_field(5)
    form = standard_form(f5)
    off = ProjPoint2(form.ring, (1, 1, 1))
    with pytest.raises(XratioError, match="does not lie"):
        parametrize(form, off)
    ring = form.ring
    rank2 = TernaryForm(ring, {("Y", "Y"): rat(ring, 1),
                               ("Z", "Z"): rat(ring, -1)})
    with pytest.raises(DegenerateConicError):
        parametrize(rank2, ProjPoint2(ring, (1, 1, 0)))


def test_parametrize_inverse_recovers_parameter():
    f5 = prime_field(5)
    form = standard_form(f5)
    base = ProjPoint2(form.ring, (0, f5.from_int(2), 1))
    pm = parametrize(form, base)
    n1, n2 = pm.affine_names
    q = f5
    for k in (1, 2, 3, 4):
        pt = pm.point_at(q.from_int(k))
        y, z, w = pt.coords
        x_val = q.from_int(3)
        chart = {n1: (y / w).eval({"x": x_val}), n2: (z / w).eval({"x": x_val})}
        assert pm.inverse.eval({**chart, "x": x_val}) == q.from_int(k)
