import pytest

from xratio import tables
from xratio.conic import base_ring
from xratio.exprparse import ParseError, parse_expression, tokenize
from xratio.fields import field_by_name, prime_field, rationals
from xratio.perms import order, perm_str
from xratio.poly import Ring
from xratio.ratfunc import RatFunc, rf_eq
from xratio.tables import (BASIS_IDS_ODD, CONIC_CHAR2_TEXT, CONIC_ODD_TEXT,
                           CROSS_RATIO_TEXT, DERIVED_CHAR2, DERIVED_ODD,
                           POINT_VARS, SIGMA2_CHAR2, SIGMA2_ODD, SIGMA_CHAR2,
                           SIGMA_ODD, derived_definitions, derived_values,
                           four_cycle, in_derived, point_action, point_ring)

NINE_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F101", "F3(i)", "F7(i)")


@pytest.fixture
def parses(monkeypatch):
    """Empty the derived-value cache, then record each parse that `in_derived`
    makes: its text without spaces and the derived names in its scope."""
    tables._resolved.cache_clear()
    seen, real = [], tables.parse_expression

    def counting(tokens, ring):
        seen.append(("".join(str(v) for kind, v, _ in tokens if kind != "end"),
                     ring.variables[len(POINT_VARS):]))
        return real(tokens, ring)

    monkeypatch.setattr(tables, "parse_expression", counting)
    return seen


def _definition_names(field, parsed):
    """The derived names whose definitions are among the parsed texts."""
    texts = {text for text, _ in parsed}
    return {name for name, text in derived_definitions(field)
            if text.replace(" ", "") in texts}


def test_cross_ratio_at_reference_points():
    q = rationals()
    a = derived_values(q)["a"]
    got = a.substitute({"x1": 0, "x2": 1, "x3": 2, "x4": 3})
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
    act = point_action(field)
    for target, image_text in SIGMA_ODD:
        assert rf_eq(act.apply(vals[target]), in_derived(image_text, field)), \
            f"{target} -> {image_text} over {name}"


def test_sigma_table_char2():
    f2 = prime_field(2)
    vals = derived_values(f2)
    act = point_action(f2)
    for target, image_text in SIGMA_CHAR2:
        assert rf_eq(act.apply(vals[target]), in_derived(image_text, f2))


@pytest.mark.parametrize("name", ["Q", "F2", "F5"])
def test_sigma_squared_table(name):
    field = field_by_name(name)
    vals = derived_values(field)
    act = point_action(field)
    claims = SIGMA2_CHAR2 if field.characteristic == 2 else SIGMA2_ODD
    for target, image_text in claims:
        twice = act.apply(act.apply(vals[target]))
        assert rf_eq(twice, in_derived(image_text, field)), \
            f"{target} -> {image_text} over {name}"


@pytest.mark.parametrize("name", ["Q", "F3", "F5", "Q(i)", "F2"])
def test_conic_identity_vanishes(name):
    field = field_by_name(name)
    text = CONIC_CHAR2_TEXT if field.characteristic == 2 else CONIC_ODD_TEXT
    value = in_derived(text, field)
    assert rf_eq(value, 0)


def test_four_cycle_order():
    s = four_cycle()
    assert s == (2, 3, 4, 1)
    assert order(s) == 4
    assert perm_str(s) == "(1 2 3 4)"


def test_in_derived_accepts_point_variables():
    q = rationals()
    mixed = in_derived("a*(x3 - x1)*(x4 - x2) - (x4 - x1)*(x3 - x2)", q)
    assert rf_eq(mixed, 0)


def test_in_derived_cross_ratio_text_matches_table():
    q = rationals()
    vals = derived_values(q)
    assert rf_eq(in_derived(CROSS_RATIO_TEXT, q), vals["a"])


def test_in_derived_keeps_one_common_denominator():
    # The text is parsed over k(x1..x4, u) and substituted once, so the sum
    # is cleared over the sixth power of u's linear denominator (total degree
    # 6, 84 terms).  Adding the powers of u's value by fraction arithmetic
    # instead multiplies unreduced denominators up to total degree 21 (2,024
    # terms) and makes this check-identity query an order of magnitude slower.
    rf = in_derived("u + u^2 + u^3 + u^4 + u^5 + u^6", rationals())
    assert rf.den.total_degree() <= 6


def test_point_ring_variables():
    ring = point_ring(rationals())
    assert ring.variables == POINT_VARS


def test_rings_are_shared_per_field():
    assert point_ring(rationals()) is point_ring(rationals())
    assert base_ring(prime_field(5)) is base_ring(prime_field(5))
    assert point_ring(prime_field(3)) is not point_ring(prime_field(5))


@pytest.mark.parametrize("name", NINE_FIELDS)
def test_each_name_resolved_alone_matches_the_table(name):
    field = field_by_name(name)
    tables._resolved.cache_clear()
    table = derived_values(field)
    for derived, _ in derived_definitions(field):
        tables._resolved.cache_clear()
        got = in_derived(derived, field)
        assert list(got.num.terms.items()) == list(table[derived].num.terms.items())
        assert list(got.den.terms.items()) == list(table[derived].den.terms.items())


@pytest.mark.parametrize("name, text, added", [
    ("Q", "w", {"w"}),
    ("Q", "u", {"w", "y", "u"}),
    ("Q", "x", {"a", "b", "x"}),
    ("Q", "t - u^2", {"w", "y", "z", "u", "t"}),
    ("F2", "t", {"w", "z", "t"}),
    ("F2", "inv_z + x1", {"a", "w", "y", "u", "inv_z"}),
])
def test_in_derived_adds_only_the_names_used_and_their_dependencies(parses, name, text, added):
    field = field_by_name(name)
    in_derived(text, field)
    assert parses[0][0] == text.replace(" ", "")
    assert len(parses) == 1 + len(added)
    assert _definition_names(field, parses[1:]) == added


def test_point_variable_text_parses_no_definition(parses):
    x1, x2, x3, x4 = point_ring(rationals()).vars()
    assert rf_eq(in_derived("(x4 - x1)*(x3 - x2)", rationals()), (x4 - x1) * (x3 - x2))
    assert parses == [("(x4-x1)*(x3-x2)", ())]
    assert tables._resolved.cache_info().currsize == 0


def test_resolved_names_are_reused(parses):
    q = rationals()
    in_derived("u", q)
    # the text itself, then the definitions of u, w and y
    assert parses == [("u", ("u",)), ("w/y", ("w", "y")),
                      ("-x1-x2+x3+x4", ()), ("-x1+x2+x3-x4", ())]
    del parses[:]
    in_derived("t/u", q)
    assert parses == [("t/u", ("u", "t")), ("z/y", ("y", "z")), ("-x1+x2-x3+x4", ())]


def test_full_table_parses_each_definition_once(parses):
    for field in (rationals(), prime_field(3), prime_field(2)):
        del parses[:]
        derived_values(field)
        assert len(parses) == len(derived_definitions(field))
        assert _definition_names(field, parses) == {n for n, _ in derived_definitions(field)}
        del parses[:]
        derived_values(field)
        in_derived("u + t", field)
        assert parses == [("u+t", ("u", "t"))]


def test_a_query_text_is_parsed_on_every_call(parses):
    q = rationals()
    in_derived("u + t", q)
    del parses[:]
    in_derived("u + t", q)
    in_derived("u + t", q)
    assert parses == [("u+t", ("u", "t"))] * 2


def test_definitions_see_only_earlier_names(monkeypatch, parses):
    q = rationals()
    monkeypatch.setattr(tables, "DERIVED_ODD", (("w", "y + 1"), ("y", "x1"), ("z", "z^2")))
    with pytest.raises(ParseError, match="unknown variable 'y' \\(position 0\\)"):
        in_derived("w", q)
    with pytest.raises(ParseError, match="unknown variable 'z' \\(position 0\\)"):
        in_derived("z", q)
    del parses[:]
    in_derived("y", q)
    assert parses == [("y", ("y",)), ("x1", ())]


def test_a_replaced_definition_is_not_served_from_the_cache(monkeypatch):
    q = rationals()
    before = in_derived("u", q)
    patched = tuple((name, "y/w" if name == "u" else text) for name, text in tables.DERIVED_ODD)
    monkeypatch.setattr(tables, "DERIVED_ODD", patched)
    assert rf_eq(in_derived("u", q), in_derived("y/w", q))
    assert rf_eq(in_derived("u", q) * before, 1)
    monkeypatch.undo()
    assert rf_eq(in_derived("u", q), before)


def test_unknown_name_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown variable 'inv_x' \\(position 4\\)"):
        in_derived("a + inv_x", rationals())


def _scope_free_texts():
    """Every text of the module's tables whose identifiers are all point
    variables, in table order, each once."""
    texts = [CROSS_RATIO_TEXT, CONIC_ODD_TEXT, CONIC_CHAR2_TEXT]
    for claims in (DERIVED_ODD, DERIVED_CHAR2, SIGMA_ODD, SIGMA2_ODD, SIGMA_CHAR2,
                   SIGMA2_CHAR2, BASIS_IDS_ODD):
        texts += [text for entry in claims for text in entry]
    return list(dict.fromkeys(
        t for t in texts
        if {v for kind, v, _ in tokenize(t) if kind == "ident"} <= set(POINT_VARS)))


def test_the_scope_free_texts_are_the_point_definitions_and_basis_left_sides():
    defined = [text for table in (DERIVED_ODD, DERIVED_CHAR2)
               for name, text in table if name in ("w", "y", "z", "a")]
    left = [lhs for lhs, _ in BASIS_IDS_ODD if lhs != "a"]
    assert set(_scope_free_texts()) == {CROSS_RATIO_TEXT, *defined, *left}
    assert len(_scope_free_texts()) == 13


@pytest.mark.parametrize("name", NINE_FIELDS)
def test_a_scope_free_text_parses_straight_into_the_point_ring(name, monkeypatch):
    field = field_by_name(name)
    ring = point_ring(field)
    # the route before: parse over an equal ring, then substitute x_i -> x_i
    oracle = {text: parse_expression(text, Ring(field, POINT_VARS)).substitute({}, ring)
              for text in _scope_free_texts()}
    monkeypatch.setattr(RatFunc, "substitute", None)  # the direct route needs none
    for text, old in oracle.items():
        got = in_derived(text, field)
        assert isinstance(got, RatFunc) and got.ring is ring
        assert got.num.ring is ring and got.den.ring is ring
        assert list(got.num.terms.items()) == list(old.num.terms.items()), text
        assert list(got.den.terms.items()) == list(old.den.terms.items()), text
