import random

import pytest

from xratio.exprparse import MAX_NESTING, ParseError, parse_expression, tokenize
from xratio.fields import field_by_name, prime_field, rationals
from xratio.poly import Ring
from xratio.ratfunc import rf_eq


@pytest.fixture
def points():
    return Ring(rationals(), ("x1", "x2", "x3", "x4"))


def test_cross_ratio_at_0_1_2_3(points):
    q = rationals()
    a = parse_expression("(x4-x1)*(x3-x2)/((x4-x2)*(x3-x1))", points)
    value = a.substitute({"x1": 0, "x2": 1, "x3": 2, "x4": 3})
    assert value == q.from_int(3) / q.from_int(4)


def test_precedence_and_unary_minus(points, rvars):
    x1, x2, _, _ = rvars(points)
    assert rf_eq(parse_expression("-x1 + x2 * x1 ^ 2", points),
                 -x1 + x2 * x1 * x1)
    assert rf_eq(parse_expression("-1/x1", points), -(1 / x1))
    assert rf_eq(parse_expression("x1 - (-x2)", points), x1 + x2)
    assert rf_eq(parse_expression("(-x1)*x2", points), -x1 * x2)
    assert rf_eq(parse_expression("2*x1/4", points), x1 / 2)


def test_parentheses(points, rvars):
    x1, x2, x3, _ = rvars(points)
    assert rf_eq(parse_expression("(x1 + x2) * x3", points), (x1 + x2) * x3)
    assert rf_eq(parse_expression("x1 / (x2 * x3)", points), x1 / (x2 * x3))


def test_deep_nesting_is_refused_before_the_recursion_runs_out(points):
    with pytest.raises(ParseError, match=rf"nested deeper than {MAX_NESTING} levels "
                                         rf"\(position {MAX_NESTING}\)$"):
        parse_expression("(" * 300 + "x1" + ")" * 300, points)


def test_power_requires_natural_exponent(points):
    with pytest.raises(ParseError):
        parse_expression("x1 ^ x2", points)
    with pytest.raises(ParseError):
        parse_expression("x1 ^ -2", points)
    assert rf_eq(parse_expression("x1^0", points), 1)


def test_syntax_errors_carry_positions(points):
    for text, pos in (("", 0), ("  ", 2), ("x1 +", 4), ("(x1 *", 5)):
        with pytest.raises(ParseError, match=rf"^unexpected end of expression "
                                             rf"\(position {pos}\)$"):
            parse_expression(text, points)
    # numbers take ASCII digits only: not the Arabic-Indic five and two
    for text in ("x1 @ x2", "x1*٥", "x1^٢"):
        with pytest.raises(ParseError, match=rf"unexpected character '{text[3]}' \(position 3\)$"):
            parse_expression(text, points)


@pytest.mark.parametrize("text, message, pos", [
    ("(x1", "expected ')'", 3),
    ("x1 x2", "unexpected token 'x2'", 3),
    ("x1 ^ -2", "exponent must be a nonnegative integer", 5),
    ("x1 / (x2 - x2)", "division by a zero expression", 3),
    ("x1 + x9", "unknown variable 'x9'", 5),
    ("x1 + i", "'i' is undefined: Q has no square root of -1", 5),
    ("x1 +   ", "unexpected end of expression", 7),
    ("x1\u00a0+ $", "unexpected character '$'", 5),
    ("x1 \x00", "unexpected character '\\x00'", 3),
])
def test_each_error_names_its_exact_message_and_position(points, text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_expression(text, points)
    assert str(info.value) == f"{message} (position {pos})"
    assert info.value.pos == pos


def test_token_positions_point_into_the_text():
    rng = random.Random("token positions")
    alphabet = ["0", "7", "12", "x", "x1", "_b", "+", "-", "*", "/", "^", "(", ")",
                " ", "  ", "\t"]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        tokens = tokenize(text)
        positions = [pos for _, _, pos in tokens]
        assert positions == sorted(set(positions)), text
        assert tokens[-1] == ("end", None, len(text))
        for kind, value, pos in tokens[:-1]:
            assert not text[pos].isspace(), text
            if kind in ("op", "ident"):
                assert text[pos:pos + len(value)] == value, text


def test_unknown_identifier(points):
    with pytest.raises(ParseError, match="unknown variable"):
        parse_expression("x9", points)


def test_zero_denominator_is_an_error(points):
    with pytest.raises(ParseError, match="division by a zero expression"):
        parse_expression("1/(x1-x1)", points)


def test_imaginary_unit_resolution():
    qi = field_by_name("Q(i)")
    ri = Ring(qi, ("x",))
    val = parse_expression("i^2", ri)
    assert rf_eq(val, -1)
    f5 = prime_field(5)
    assert rf_eq(parse_expression("i", Ring(f5, ("x",))),
                 2)
    with pytest.raises(ParseError, match="square root of -1"):
        parse_expression("i", Ring(rationals(), ("x",)))


def test_rational_number_literals(points):
    assert rf_eq(parse_expression("3/4 + 1/4", points), 1)


def test_display_round_trips_through_parser(points, rvars):
    x1, x2, x3, x4 = rvars(points)
    samples = [
        (x1 + x2) / (x3 - x4),
        -x1 * x2 + 3,
        (x1 * x1 - 2 * x2 + 1) / (x4 * x4 * x4),
        x1 / 7 + x2 * x3 * x4,
    ]
    for f in samples:
        assert rf_eq(parse_expression(str(f), points), f)
        assert rf_eq(parse_expression(str(f.num), points), f.num)
