import random
import re
from itertools import product

import pytest

from xratio import conic
from xratio.conic import (SEARCH_BUDGET, DegenerateConicError, ObstructionRecord,
                          ObstructionStep, ParametrizationMap, ProjPoint2, SearchBudgetError, TernaryForm, base_ring,
                          bounded_point_search, char2_form, criterion_form,
                          decide_isotropy, known_point, parametrize,
                          searchable_degree, standard_form, tail_remainder,
                          valuation_obstruction)
from xratio.exprparse import parse_expression
from xratio.fields import (FieldElement, FieldMismatchError, XratioError, field_by_name,
                           prime_field, rationals)
from xratio.poly import MultiPoly, Ring, RingMismatchError
from xratio.ratfunc import CharacteristicError, RatFunc, rf_eq, rvar


def form_from_text(field, text):
    """Parse e.g. 'Y^2 - x*Z^2 - x*W^2' (reserved names Y, Z, W, x).

    An x-only denominator is dropped: it scales the form, not its conic.
    """
    f = parse_expression(text, Ring(field, ("x", "Y", "Z", "W")))
    if any(f.den.degree_in(v) for v in ("Y", "Z", "W")):
        raise XratioError("form denominator must not involve Y, Z, W")
    terms = {}  # pair -> {(x exponent,): payload}; distinct terms never collide
    for (ex, ey, ez, ew), c in f.num.terms.items():
        if ey + ez + ew != 2:
            raise XratioError("form must be homogeneous of degree 2 in Y, Z, W")
        names = "Y" * ey + "Z" * ez + "W" * ew
        terms.setdefault((names[0], names[1]), {})[(ex,)] = c
    ring = base_ring(field)
    return TernaryForm(ring, {p: MultiPoly(ring, t) for p, t in terms.items()})


def same_point(p, q):
    """Projective equality: all 2x2 minors of the coordinate pair vanish."""
    a, b = p.coords, q.coords
    for i in range(3):
        for j in range(i + 1, 3):
            if not (a[i] * b[j] - a[j] * b[i]).is_zero():
                return False
    return True


def test_standard_form_structure():
    form = standard_form(rationals())
    x = form.ring.var("x")
    assert form.coeff("Y", "Y") == 1
    assert form.coeff("Z", "Z") == -x
    assert form.coeff("W", "W") == -x
    assert form.coeff("Y", "Z") == 0
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
    rank2 = TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Z"): -ring.var("x")})
    assert not rank2.is_smooth()
    ring2 = Ring(prime_field(2), ("x",))
    no_cross = TernaryForm(ring2, {("Z", "Z"): 1, ("W", "W"): ring2.var("x")})
    assert not no_cross.is_smooth()


def test_projpoint2_scaling():
    form = standard_form(prime_field(5))
    p = ProjPoint2(form.ring, (0, 2, 1))
    q = ProjPoint2(form.ring, (0, 4, 2))
    assert same_point(p, q)
    assert not same_point(p, ProjPoint2(form.ring, (0, 1, 2)))
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
    """The plain triple loop over (W, Z, Y): the search's defining order.

    An oracle independent of the code it checks: it reads only the payloads
    `.v` of the form's coefficients and does its own arithmetic, on ints mod
    p, or over F_p(i) on its own (re, im) pairs with i^2 = -1.  It never calls
    the field arithmetic of the package.  Each part of the form at a candidate
    is a flat int list (re, im interleaved over F_p(i)) padded to one length,
    so the candidate is a zero when every sum of entries is 0 mod p.
    """
    field = form.ring.field
    p, pairs = field.characteristic, field.name.endswith("(i)")
    if pairs:
        scalars = [(a, b) for a in range(p) for b in range(p)]  # the search order
        zero = (0, 0)

        def add(a, b):
            return (a[0] + b[0]) % p, (a[1] + b[1]) % p

        def mul(a, b):
            return (a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p
    else:
        scalars, zero = range(p), 0

        def add(a, b):
            return (a + b) % p

        def mul(a, b):
            return a * b % p

    maxdeg = max(0, *(c.total_degree() for c in form.coeffs.values()))
    size = 2 * degree_bound + maxdeg + 1  # coefficients of any part of the form

    def lmul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
        return out

    def flat(a):
        a = a + [zero] * (size - len(a))
        return [x for c in a for x in c] if pairs else a

    cl = {}
    for pair, poly in form.coeffs.items():
        cl[pair] = [zero] * (maxdeg + 1)
        for (k,), c in poly.terms.items():
            cl[pair][k] = c
    polys = [list(reversed(t)) for t in product(scalars, repeat=degree_bound + 1)]
    tY, tZ, tW = ([flat(lmul(cl[c, c], lmul(q, q))) for q in polys] for c in "YZW")
    rows = {}

    def cross_row(pair, j):
        """c_pair * Y * (polynomial j) for every Y, built on first use."""
        if (pair, j) not in rows:
            rows[pair, j] = [flat(lmul(cl[pair], lmul(q, polys[j]))) for q in polys]
        return rows[pair, j]

    for iw, w in enumerate(polys):
        yw = cross_row(("Y", "W"), iw)
        for iz, z in enumerate(polys):
            yz = cross_row(("Y", "Z"), iz)
            zw = flat(lmul(cl["Z", "W"], lmul(z, w)))
            rest = [a + b + c for a, b, c in zip(tW[iw], tZ[iz], zw)]
            for iy in range(len(polys)):
                if (iy or iz or iw) and all((r + a + b + c) % p == 0 for r, a, b, c
                                            in zip(rest, tY[iy], yz[iy], yw[iy])):
                    coords = [MultiPoly(form.ring, {(k,): c for k, c in enumerate(polys[i])
                                                    if c != zero})
                              for i in (iy, iz, iw)]
                    return ProjPoint2(form.ring, coords)
    return None


# None stands for criterion_form; the rest carry Y*Z, Y*W or Z*W cross terms.
# Between them they meet every branch of the search loop: no Y*Z and no Y*W
# term (one Y table), with and without a Z*W term; Y*Z alone, Y*W alone and
# both; a Z*W term or none.  The last three have no zero with W = 0, and
# their first zeros (where there are any) have Y != 0, so the Y table and the
# cross terms decide those cases.
SEARCH_FORMS = (
    None,
    "Y^2 + Y*Z - x*Z^2 - x*W^2",
    "x*Y^2 + Y*Z + Z^2 + x^2*W^2 + Y*W",
    "Y*Z + x*Y*W + x*Z^2 + (x + 1)*W^2",
    "Y^2/x + Y*W - Z^2 + Z*W",
    "Z^2 - x*W^2",
    "Y^2 + Z*W - x*Z^2 - x*W^2",
    "Y^2 + x*Y*W - x*Z^2 + W^2",
    "Y^2 + Y*Z + x*Y*W - x*Z^2 + W^2",
)


def _triples(name, d):
    return (field_by_name(name).order ** (d + 1)) ** 3


# up to 2*10^4 candidate triples the reference loop is quick enough for the
# fast loop; the larger cases are marked slow
SEARCH_CASES = [
    pytest.param(name, text, d, marks=() if _triples(name, d) <= 2 * 10 ** 4
                 else pytest.mark.slow)
    for name in ("F2", "F3", "F5", "F7", "F13", "F3(i)", "F7(i)")
    for text in SEARCH_FORMS
    for d in range(7)
    if _triples(name, d) <= 2 * 10 ** 6
]


@pytest.mark.parametrize("name, text, degree", SEARCH_CASES)
def test_search_matches_reference_triple_loop(name, text, degree):
    field = field_by_name(name)
    form = criterion_form(field) if text is None else form_from_text(field, text)
    found = bounded_point_search(form, degree)
    expected = _reference_search(form, degree)
    assert str(found) == str(expected)
    if found is not None:
        assert form.is_point(found)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 2 ** 31 - 1])
def test_packed_digit_reduction_at_the_boundaries(p):
    digits = 5
    w, red, neg = conic._digit_ops(p, digits)
    assert w == p.bit_length() + 2

    def packed(xs):
        return sum(x << w * k for k, x in enumerate(xs))

    top = packed([p - 1] * digits)
    assert red(top + top) == packed([(2 * p - 2) % p] * digits)  # (p-1) + (p-1)
    assert red(0 + 0) == 0 and neg(0) == 0
    assert neg(top) == packed([1] * digits) and red(top + neg(top)) == 0
    for k in range(digits):  # a full digit sum carries nothing into its neighbours
        one = packed([p - 1 if j == k else 0 for j in range(digits)])
        assert red(one + one) == packed([(2 * p - 2) % p if j == k else 0
                                         for j in range(digits)])
    rng = random.Random(p)
    for _ in range(200):
        xs, ys = ([rng.randrange(p) for _ in range(digits)] for _ in range(2))
        assert red(packed(xs) + packed(ys)) == packed([(x + y) % p for x, y in zip(xs, ys)])
        assert neg(packed(xs)) == packed([-x % p for x in xs])


@pytest.mark.parametrize("name, d", [("F2", 3), ("F3", 2), ("F7", 1), ("F13", 1),
                                     ("F3(i)", 1), ("F7(i)", 1)])
def test_packed_products_match_polynomial_products(name, d):
    field = field_by_name(name)
    ring = conic.base_ring(field)
    packed = conic._PackedPolys(field, d, 2 * d + 3)
    rng = random.Random(name)
    elems = list(field.elements())
    assert [e.v for e in elems] == packed.elems
    Y = [ring.poly({(k,): FieldElement(field, c) for k, c in enumerate(t)})
         for t in packed.polys]

    def packed_poly(f):
        coeffs = [f.terms.get((k,), field.raw_zero) for k in range(f.total_degree() + 1)]
        assert packed.unpack(packed.pack(coeffs)) == coeffs
        return packed.pack(coeffs)

    for v in ([field.raw_zero], [field.raw_one], [field.raw_zero, field.raw_one],
              [rng.choice(elems).v for _ in range(3)]):
        f = ring.poly({(k,): FieldElement(field, c) for k, c in enumerate(v)})
        assert packed.times_all(v) == [packed_poly(f * y) for y in Y]
        assert packed.times_squares(v) == [packed_poly(f * y * y) for y in Y]
        assert packed.times_all(v, 5) == packed.times_all(v)[:5]


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


def test_searchable_degree_counts_up_from_a_huge_bound():
    assert searchable_degree(prime_field(2), 10 ** 6) == 6
    assert searchable_degree(prime_field(101), 10 ** 9) == 0


def test_search_budget_guard():
    form = criterion_form(prime_field(101))
    with pytest.raises(SearchBudgetError):
        bounded_point_search(form, 1)
    # the count is stated as a power, never expanded
    with pytest.raises(SearchBudgetError, match=r"^2\^3000003 candidate triples"):
        bounded_point_search(criterion_form(prime_field(2)), 10 ** 6)


def test_negative_degree_bound_is_rejected():
    with pytest.raises(XratioError, match="degree bound must be >= 0"):
        bounded_point_search(criterion_form(prime_field(3)), -1)


def test_search_rejects_infinite_fields():
    with pytest.raises(XratioError):
        bounded_point_search(standard_form(rationals()), 1)


@pytest.mark.parametrize("name, isotropic", [
    ("Q", False), ("Q(i)", True), ("F3", False), ("F5", True),
    ("F7", False), ("F101", True), ("F3(i)", True), ("F7(i)", True),
    ("F1000003", False),
])
def test_isotropy_decision_matches_sqrt_criterion(name, isotropic):
    field = field_by_name(name)
    dec = decide_isotropy(field)
    assert dec.isotropic == isotropic
    if isotropic:
        assert dec.witness is not None
        assert criterion_form(field).is_point(dec.witness)
        s = field.sqrt_minus_one()
        expected = ProjPoint2(criterion_form(field).ring, (0, s, 1))
        assert same_point(dec.witness, expected)
    else:
        rec = dec.obstruction
        assert rec.verified
        assert len(rec.steps) == 4
        assert "every degree" in rec.render()
        for step in rec.steps[:2]:
            assert step.method == "identity mod x^2 with opaque tails"
        if field.is_finite:  # one power, whatever q is
            assert rec.steps[3].method == f"Euler's criterion in {name}: (-1)^((q-1)/2) = -1"


def test_isotropy_decision_needs_odd_characteristic():
    with pytest.raises(CharacteristicError):
        decide_isotropy(prime_field(2))


def _low_part_removed(A, B, C):
    """E - A0^2 - x(2 A0 A1 - B0^2 - C0^2), E = A^2 - x(B^2 + C^2), built
    directly from coordinates whose low coefficients are the ring's A0, A1,
    B0, C0."""
    ring = A.ring
    x, a0, a1, b0, c0 = (ring.var(v) for v in ("x", "A0", "A1", "B0", "C0"))
    E = A * A - x * (B * B + C * C)
    return E - a0 * a0 - x * (2 * a0 * a1 - b0 * b0 - c0 * c0)


def _x_order_at_least_two(p):
    return all(e[0] >= 2 for e in p.terms)


@pytest.mark.parametrize("name", ["Q", "F3", "F7"])
def test_tail_remainder_covers_random_tails(name):
    field = field_by_name(name)
    rest = tail_remainder(field)
    assert rest.terms and _x_order_at_least_two(rest)
    ring = rest.ring
    x, a0, a1, b0, c0 = (ring.var(v) for v in ("x", "A0", "A1", "B0", "C0"))
    elems = (list(field.elements()) if field.is_finite
             else [field.from_int(k) for k in range(-4, 5)])
    rng = random.Random(f"tails-{name}")
    for _ in range(6):
        tails = {v: ring.poly({(k,) + (0,) * 7: rng.choice(elems) for k in range(4)})
                 for v in ("Ar", "Br", "Cr")}
        plugged = rest.substitute(tails)
        assert _x_order_at_least_two(plugged)
        A = a0 + a1 * x + x * x * tails["Ar"]
        assert plugged == _low_part_removed(A, b0 + x * tails["Br"],
                                            c0 + x * tails["Cr"])


def test_tail_remainder_is_derived_from_the_standard_form(monkeypatch):
    assert valuation_obstruction(rationals()).verified

    def bent(field):  # Y^2 - x*Z^2 - x^2*W^2
        ring = base_ring(field)
        x = ring.var("x")
        return TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Z"): -x, ("W", "W"): -x * x})

    monkeypatch.setattr(conic, "standard_form", bent)
    assert not valuation_obstruction(rationals()).verified


def test_each_obstruction_record_starts_with_its_own_step_list():
    first, second = ObstructionRecord("Q"), ObstructionRecord("Q")
    first.steps.append(ObstructionStep("a step", "by hand", True))
    assert first.verified
    assert second.steps == [] and not second.verified


@pytest.mark.parametrize("name", ["Q", "F3", "F7"])
def test_tail_remainder_covers_degree_four_templates(name):
    # the coordinate templates A = A0 + A1 x + ... + A4 x^4 (B, C alike) that
    # the obstruction replay once checked coefficient by coefficient
    field = field_by_name(name)
    rest = tail_remainder(field)
    big = Ring(field, ("x",) + tuple(f"{t}{k}" for t in "ABC" for k in range(5)))
    x = big.var("x")

    def template(tag, start):
        return sum((big.var(f"{tag}{k}") * x ** (k - start)
                    for k in range(start, 5)), big.zero)

    tails = {"Ar": template("A", 2), "Br": template("B", 1), "Cr": template("C", 1)}
    plugged = rest.substitute(tails, big)
    assert _x_order_at_least_two(plugged)
    assert plugged == _low_part_removed(template("A", 0), template("B", 0),
                                        template("C", 0))


@pytest.mark.parametrize("name", ["Q", "Q(i)", "F2", "F3", "F5", "F7",
                                  "F3(i)", "F7(i)", "F101"])
def test_known_point(name):
    field = field_by_name(name)
    known = known_point(field)
    s = field.sqrt_minus_one()
    if field.characteristic != 2 and s is None:
        assert known is None
        return
    form, point = known
    assert form.is_point(point)
    if field.characteristic == 2:
        assert form.coeffs.keys() == char2_form(field).coeffs.keys()
        expected = (form.ring.var("x"), 1, 1)
    else:
        assert form.coeff("Z", "Z") == -form.ring.var("x")
        expected = (0, s, 1)
    assert same_point(point, ProjPoint2(form.ring, expected))


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
    assert same_point(pm.point_at(0), base)
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
    assert same_point(pm.point_at(1), base)
    assert str(pm.point_at(0)) == "(1 : 0 : 0)"


def test_parametrize_rejects_bad_inputs():
    f5 = prime_field(5)
    form = standard_form(f5)
    off = ProjPoint2(form.ring, (1, 1, 1))
    with pytest.raises(XratioError, match="does not lie"):
        parametrize(form, off)
    ring = form.ring
    rank2 = TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Z"): -1})
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
        x_val = q.from_int(3)
        specialized = [c.substitute({"x": x_val}) for c in pt.coords]
        assert all(set(c.terms) <= {(0,)} for c in specialized)  # constants
        y, z, w = (FieldElement(q, c.terms.get((0,), q.raw_zero)) for c in specialized)
        chart = {n1: y / w, n2: z / w}
        assert pm.inverse.substitute({**chart, "x": x_val}) == q.from_int(k)


def test_form_coefficients_must_be_polynomials():
    ring = standard_form(rationals()).ring
    x = rvar(ring, "x")
    with pytest.raises(XratioError, match="coefficient ZZ"):
        TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Z"): -x})


def test_form_accepts_a_cross_term_in_either_order():
    ring = base_ring(prime_field(5))
    form = TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Y"): 1, ("W", "W"): -1})
    assert form.coeff("Y", "Z") == 1
    assert str(form) == "Y^2 + (4)*W^2 + Y*Z"
    assert form.is_smooth()


@pytest.mark.parametrize("key", [("Y", "X"), ("Y",), "YZ", ("Y", "Z", "W")])
def test_form_rejects_an_unknown_key(key):
    with pytest.raises(XratioError, match="unknown coefficient key " + re.escape(repr(key))):
        TernaryForm(base_ring(prime_field(5)), {("Y", "Y"): 1, key: 1})


def test_form_rejects_a_pair_given_in_both_orders():
    with pytest.raises(XratioError, match=r"key \('W', 'Z'\) is also given as \('Z', 'W'\)"):
        TernaryForm(base_ring(prime_field(5)), {("Z", "W"): 1, ("W", "Z"): 2})


def test_form_from_text_drops_an_x_only_denominator():
    form = form_from_text(rationals(), "Y^2/x + Y*W - Z^2")
    x = form.ring.var("x")
    assert form.coeff("Y", "Y") == 1
    assert form.coeff("Y", "W") == x and form.coeff("Z", "Z") == -x


def test_rational_point_scales_to_polynomial_coordinates():
    qi = field_by_name("Q(i)")
    form = standard_form(qi)
    coords = [parse_expression(t, form.ring) for t in ("0", "i/x", "1/x")]
    assert all(isinstance(c, RatFunc) for c in coords)
    point = ProjPoint2(form.ring, coords)
    assert all(isinstance(c, MultiPoly) for c in point.coords)
    plain = ProjPoint2(form.ring, (0, qi.sqrt_minus_one(), 1))
    assert same_point(point, plain)
    scaled, direct = parametrize(form, point), parametrize(form, plain)
    assert [str(p) for p in scaled.forward] == [str(p) for p in direct.forward]
    assert str(scaled.inverse) == str(direct.inverse)


def test_parametrize_from_a_rescaled_point():
    f5 = prime_field(5)
    form = standard_form(f5)
    scaled = parametrize(form, ProjPoint2(form.ring, (0, 4, 2)))
    direct = parametrize(form, ProjPoint2(form.ring, (0, 2, 1)))
    c = scaled.forward[2].leading()[1] / direct.forward[2].leading()[1]
    assert not c.is_zero()
    assert list(scaled.forward) == [p * c for p in direct.forward]
    assert str(scaled.inverse) == str(direct.inverse)
    for v in f5.elements():
        assert form.is_point(scaled.point_at(v))


def _param_values(field):
    """The parameter values PARAM samples."""
    return (list(field.elements()) if field.is_finite
            else [field.from_int(k) for k in (-3, -1, 0, 1, 2, 5)])


@pytest.mark.parametrize("name", ["Q(i)", "F2", "F5", "F3(i)", "F7(i)", "F101"])
def test_point_at_matches_substituting_the_parameter(name):
    field = field_by_name(name)
    form, point = known_point(field)
    pm = parametrize(form, point)
    base = form.ring
    for v in _param_values(field):
        expected = [p.substitute({"s": base.const(v)}, base) for p in pm.forward]
        assert list(pm.point_at(v).coords) == expected
    with pytest.raises(FieldMismatchError, match="is not a scalar of " + re.escape(name)):
        pm.point_at(field_by_name("F7" if name == "F5" else "F5").from_int(1))


def test_point_at_refuses_the_degenerate_fiber():
    # the forward map of a smooth conic is never zero at a field value, so
    # the test map shares the factor s - 1 in every coordinate
    field = prime_field(5)
    pm = parametrize(*known_point(field))
    s = pm.param_ring.var("s")
    shared = ParametrizationMap(pm.form, pm.base_point, pm.chart, pm.param_ring,
                                [p * (s - 1) for p in pm.forward], pm.chart_ring,
                                pm.affine_names, pm.inverse)
    base = pm.form.ring
    assert all(p.substitute({"s": base.const(1)}, base).is_zero()
               for p in shared.forward)
    with pytest.raises(DegenerateConicError, match="parameter 1 hits the degenerate fiber"):
        shared.point_at(1)
    assert same_point(shared.point_at(2), pm.point_at(2))


def _coordinates(field, ring):
    """Mixed coordinates in `ring`: an int, a scalar and two polynomials."""
    x = ring.var("x")
    two = field.from_int(2)
    out = [3, two, x * x + two * x + 1, ring.zero]
    if "s" in ring.variables:
        s = ring.var("s")
        out += [s * x - 1, two * s * s + x]
    return out


@pytest.mark.parametrize("name", ["F3", "F5", "Q(i)", "F2"])
@pytest.mark.parametrize("text", SEARCH_FORMS)
def test_eval_at_matches_summing_the_products(name, text):
    field = field_by_name(name)
    form = criterion_form(field) if text is None else form_from_text(field, text)
    for ring in (form.ring, Ring(field, ("x", "s"))):
        coords = _coordinates(field, ring)
        for Y, Z, W in product(coords, repeat=3):
            vals = {"Y": Y, "Z": Z, "W": W}
            expected = sum((c.embed(ring) * vals[a] * vals[b]
                            for (a, b), c in form.coeffs.items()), ring.zero)
            got = form.eval_at(Y, Z, W, ring)
            assert got.ring == ring and got == expected
    other = Ring(field, ("x", "t")).var("x")
    for coords in ((other, 0, 1), (0, other, 1), (1, 0, other)):
        with pytest.raises(RingMismatchError):
            form.eval_at(*coords, form.ring)
