import pytest

from xratio.conic import base_ring
from xratio.fields import field_by_name, prime_field, rationals
from xratio.ratfunc import rf_eq
from xratio.tables import (CONIC_CHAR2_TEXT, CONIC_ODD_TEXT, CROSS_RATIO_TEXT,
                           POINT_VARS, SIGMA2_CHAR2, SIGMA2_ODD, SIGMA_CHAR2,
                           SIGMA_ODD, derived_definitions, derived_values,
                           four_cycle, in_derived, point_action, point_ring)


def test_cross_ratio_at_reference_points():
    q = rationals()
    a = derived_values(q)["a"]
    got = a.eval({"x1": q.from_int(0), "x2": q.from_int(1),
                  "x3": q.from_int(2), "x4": q.from_int(3)})
    assert got == q.from_int(3) / q.from_int(4)


def test_derived_values_odd_consistency():
    q = rationals()
    vals = derived_values(q)
    assert set(vals) == {"w", "y", "z", "a", "u", "t", "b", "x"}
    one = point_ring(q).one
    assert rf_eq(vals["u"] * vals["y"], vals["w"])
    assert rf_eq(vals["t"] * vals["y"], vals["z"])
    assert rf_eq(vals["b"], one - vals["a"] - vals["a"])
    assert rf_eq(vals["x"], vals["b"] * vals["b"])


def test_derived_values_char2_consistency():
    f2 = prime_field(2)
    vals = derived_values(f2)
    assert set(vals) == {"w", "y", "z", "a", "u", "t",
                         "inv_x", "inv_y", "inv_z"}
    assert rf_eq(vals["u"] * vals["w"], vals["y"])
    assert rf_eq(vals["t"] * vals["w"], vals["z"])
    assert rf_eq(vals["inv_x"], vals["a"] * vals["a"] + vals["a"])
    assert rf_eq(vals["inv_y"], vals["u"] * vals["u"] + vals["u"])
    assert rf_eq(vals["inv_z"], vals["a"] + vals["u"])


def test_definition_dispatch():
    assert derived_definitions(rationals())[-1][0] == "x"
    assert derived_definitions(prime_field(2))[-1][0] == "inv_z"


@pytest.mark.parametrize("name", ["Q", "Q(i)", "F3", "F5"])
def test_sigma_table_odd(name):
    field = field_by_name(name)
    vals = derived_values(field)
    act = point_action(field, vals)
    for target, image_text in SIGMA_ODD:
        assert rf_eq(act.apply(vals[target]), in_derived(image_text, vals, field)), \
            f"{target} -> {image_text} over {name}"


def test_sigma_table_char2():
    f2 = prime_field(2)
    vals = derived_values(f2)
    act = point_action(f2, vals)
    for target, image_text in SIGMA_CHAR2:
        assert rf_eq(act.apply(vals[target]), in_derived(image_text, vals, f2))


@pytest.mark.parametrize("name", ["Q", "F2", "F5"])
def test_sigma_squared_table(name):
    field = field_by_name(name)
    vals = derived_values(field)
    act = point_action(field, vals)
    claims = SIGMA2_CHAR2 if field.characteristic == 2 else SIGMA2_ODD
    for target, image_text in claims:
        twice = act.apply(act.apply(vals[target]))
        assert rf_eq(twice, in_derived(image_text, vals, field)), \
            f"{target} -> {image_text} over {name}"


@pytest.mark.parametrize("name", ["Q", "F3", "F5", "Q(i)", "F2"])
def test_conic_identity_vanishes(name):
    field = field_by_name(name)
    text = CONIC_CHAR2_TEXT if field.characteristic == 2 else CONIC_ODD_TEXT
    value = in_derived(text, derived_values(field), field)
    assert rf_eq(value, 0)


def test_four_cycle_order():
    s = four_cycle()
    assert s.order() == 4
    assert str(s) == "(1 2 3 4)"


def test_in_derived_accepts_point_variables():
    q = rationals()
    mixed = in_derived("a*(x3 - x1)*(x4 - x2) - (x4 - x1)*(x3 - x2)",
                       derived_values(q), q)
    assert rf_eq(mixed, 0)


def test_in_derived_cross_ratio_text_matches_table():
    q = rationals()
    vals = derived_values(q)
    assert rf_eq(in_derived(CROSS_RATIO_TEXT, vals, q), vals["a"])


def test_point_ring_variables():
    ring = point_ring(rationals())
    assert ring.variables == POINT_VARS


def test_rings_are_shared_per_field():
    assert point_ring(rationals()) is point_ring(rationals())
    assert base_ring(prime_field(5)) is base_ring(prime_field(5))
    assert point_ring(prime_field(3)) is not point_ring(prime_field(5))
