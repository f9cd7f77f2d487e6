import re

import pytest

from xratio.fields import (MILLER_RABIN_BOUND, FieldConstructionError, FieldElement,
                           FieldMismatchError, field_by_name,
                           gaussian_rationals, is_prime, prime_field,
                           prime_quadratic_field, rationals)

NAMES = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F101", "F3(i)", "F7(i)")


def test_every_supported_name_resolves():
    for name in NAMES:
        assert field_by_name(name).name == name


@pytest.mark.parametrize("name, char, order", [
    ("Q", 0, None),
    ("Q(i)", 0, None),
    ("F2", 2, 2),
    ("F3", 3, 3),
    ("F5", 5, 5),
    ("F7", 7, 7),
    ("F101", 101, 101),
    ("F3(i)", 3, 9),
    ("F7(i)", 7, 49),
])
def test_characteristic_and_order(name, char, order):
    f = field_by_name(name)
    assert f.characteristic == char
    assert f.order == order
    assert f.is_finite == (order is not None)


@pytest.mark.parametrize("name, has_i", [
    ("Q", False), ("Q(i)", True), ("F2", True), ("F3", False),
    ("F5", True), ("F7", False), ("F101", True), ("F3(i)", True),
    ("F7(i)", True),
])
def test_sqrt_minus_one_presence(name, has_i):
    f = field_by_name(name)
    s = f.sqrt_minus_one()
    assert (s is not None) == has_i
    if s is not None:
        assert s * s == -f.one


def test_sqrt_minus_one_canonical_values():
    assert field_by_name("F2").sqrt_minus_one().v == 1
    assert field_by_name("F5").sqrt_minus_one().v == 2
    assert field_by_name("F101").sqrt_minus_one().v == 10
    assert str(field_by_name("Q(i)").sqrt_minus_one()) == "i"


def test_rational_arithmetic_is_exact():
    q = rationals()
    third = q.one / q.from_int(3)
    sixth = q.one / q.from_int(6)
    assert third + sixth == q.one / q.from_int(2)
    assert q.one / (q.from_int(2) / q.from_int(3)) == q.from_int(3) / q.from_int(2)
    assert str(third) == "1/3"


def test_gaussian_arithmetic():
    qi = gaussian_rationals()
    i = qi.sqrt_minus_one()
    three, two = qi.from_int(3), qi.from_int(2)
    assert (three + two * i) * (three - two * i) == qi.from_int(13)
    z = qi.one + i
    assert z * (qi.one / z) == qi.one
    assert str(two * i) == "2*i"


def test_prime_field_inverses():
    f7 = prime_field(7)
    assert f7.from_int(3) * f7.from_int(5) == f7.one
    assert -f7.one == f7.from_int(6)
    assert f7.from_int(9) == f7.from_int(2)
    for a in f7.elements():
        if not a.is_zero():
            assert a * (f7.one / a) == f7.one
    big = prime_field(1000000007)
    for k in (1, 2, 10 ** 9, 1000000006):
        a = big.from_int(k)
        assert big.raw_inv(a.v) == pow(k, 1000000005, 1000000007)
        assert a * FieldElement(big, big.raw_inv(a.v)) == big.one


def test_prime_quadratic_field_structure():
    f9 = prime_quadratic_field(3)
    elems = list(f9.elements())
    assert len(elems) == 9
    i = f9.sqrt_minus_one()
    assert i * i == -f9.one
    one_plus_i = f9.one + i
    assert one_plus_i * one_plus_i == f9.from_int(2) * i
    for a in elems:
        if not a.is_zero():
            assert a * (f9.one / a) == f9.one
    f49 = prime_quadratic_field(7)
    assert sum(1 for _ in f49.elements()) == 49


@pytest.mark.parametrize("bad", ["F4", "F6", "F1", "F9", "Q(j)", "", "F", "Fx",
                                 "F05", "F007(i)", "F\u0665"])
def test_unknown_names_error(bad):
    with pytest.raises(FieldConstructionError):
        field_by_name(bad)


@pytest.mark.parametrize("bad", ["F5(i)", "F2(i)", "F13(i)"])
def test_quadratic_extension_requires_p_3_mod_4(bad):
    with pytest.raises(FieldConstructionError):
        field_by_name(bad)


def test_large_prime_names_work():
    f13 = field_by_name("F13")
    assert f13.sqrt_minus_one().v == 5
    assert field_by_name("F11").sqrt_minus_one() is None


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_sqrt_minus_one_is_the_least_root_the_scan_finds():
    # oracle: the scan s = 2, 3, ... that sqrt_minus_one used to run
    for p in range(5, 3000, 4):
        if _trial_division_is_prime(p):
            scan = next(s for s in range(2, p) if s * s % p == p - 1)
            assert prime_field(p).sqrt_minus_one().v == scan, p


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if _trial_division_is_prime(n)]


# each composite is a strong pseudoprime to every prime base up to 7, 11, 13,
# 17, 23 and 37 in turn; the last one needs base 41
@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383,
                               341550071728321, 3825123056546413051,
                               318665857834031151167461])
def test_strong_pseudoprimes_are_refused(n):
    assert not is_prime(n)
    with pytest.raises(FieldConstructionError, match="is not prime"):
        field_by_name(f"F{n}")


def test_primality_above_the_miller_rabin_bound_is_refused():
    assert is_prime(2 ** 61 - 1)
    assert is_prime(MILLER_RABIN_BOUND - 1) is False  # even, and below the bound
    for n in (MILLER_RABIN_BOUND, 2 ** 89 - 1):
        with pytest.raises(FieldConstructionError, match=str(MILLER_RABIN_BOUND)):
            is_prime(n)


def test_mixed_field_arithmetic_rejected():
    q = rationals()
    f5 = prime_field(5)
    with pytest.raises(FieldMismatchError):
        q.one + f5.one


def test_infinite_fields_cannot_enumerate():
    with pytest.raises(FieldConstructionError):
        list(rationals().elements())


def test_element_equality_and_hash():
    f5 = prime_field(5)
    assert f5.from_int(7) == f5.from_int(2)
    assert hash(f5.from_int(7)) == hash(f5.from_int(2))
    assert f5.from_int(2) != f5.from_int(3)
    assert f5.from_int(0).is_zero() and f5.one.is_one()


@pytest.mark.parametrize("name", ["F5", "Q(i)"])
def test_element_equality_agrees_with_hash(name):
    field = field_by_name(name)
    two, seven = field.from_int(2), field.from_int(7)
    # equal elements hash alike, so sets and dicts see one element
    assert (two == seven) == (hash(two) == hash(seven)) == (len({two, seven}) == 1)
    assert field.from_int(2) == two and hash(field.from_int(2)) == hash(two)
    # a plain int is never equal to an element, in either order
    assert two != 2 and not two == 2 and 2 != two
    assert two.__eq__(2) is NotImplemented
    assert two not in {2} and 2 not in {two}
    # nor is an element of another field with the same payload
    other = prime_field(7) if name == "F5" else rationals()
    assert two != other.from_int(2)


def test_f3i_field_laws_exhaustive():
    f9 = prime_quadratic_field(3)
    elems = list(f9.elements())
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
    for a in elems:
        if not a.is_zero():
            assert a * FieldElement(f9, f9.raw_inv(a.v)) == f9.one


def test_f7i_inverses_and_element_order():
    f49 = prime_quadratic_field(7)
    elems = list(f49.elements())
    # real part first: (0, 0), (0, 1), ..., (0, 6), (1, 0), ...
    assert [e.v for e in elems] == [(re, im) for re in range(7) for im in range(7)]
    assert [str(e) for e in elems[:9]] == [
        "0", "i", "2*i", "3*i", "4*i", "5*i", "6*i", "1", "1 + i"]
    for a in elems[1:]:
        assert a * FieldElement(f49, f49.raw_inv(a.v)) == f49.one
        assert a / a == f49.one


def test_gaussian_rational_inverses_and_render():
    qi = gaussian_rationals()
    i = qi.sqrt_minus_one()
    shown = {}
    for x in (-2, -1, 0, 1, 2):
        for y in (-2, -1, 0, 1, 2):
            z = qi.from_int(x) + qi.from_int(y) * i
            shown[x, y] = str(z)
            if not z.is_zero():
                assert z * FieldElement(qi, qi.raw_inv(z.v)) == qi.one
    assert shown[0, 0] == "0" and shown[-2, 0] == "-2"
    assert shown[0, 1] == "i" and shown[0, -1] == "-i" and shown[0, -2] == "-2*i"
    assert shown[1, 1] == "1 + i" and shown[1, -1] == "1 - i"
    assert shown[-1, 2] == "-1 + 2*i" and shown[-2, -2] == "-2 - 2*i"
    w = qi.one / (qi.from_int(2) * (qi.one + i))
    assert str(w) == "1/4 - 1/4*i"
    assert w * (qi.from_int(2) + qi.from_int(2) * i) == qi.one


@pytest.mark.parametrize("name", ["Q(i)", "F3(i)", "F7(i)"])
def test_gaussian_division_by_zero_names_the_field(name):
    f = field_by_name(name)
    with pytest.raises(ZeroDivisionError, match=rf"division by zero in {re.escape(name)}$"):
        f.one / f.zero


def test_gaussian_fields_keep_their_identity():
    assert prime_field(5) is field_by_name("F5")
    assert gaussian_rationals() is field_by_name("Q(i)")
    assert prime_quadratic_field(7) is field_by_name("F7(i)")
    assert gaussian_rationals().base is rationals()
    assert prime_quadratic_field(3).base is prime_field(3)


def test_negative_display_rule():
    q, qi, f7, f7i = rationals(), gaussian_rationals(), prime_field(7), prime_quadratic_field(7)
    assert q.shows_negative(-1) and not q.shows_negative(0)
    assert qi.shows_negative((-1, 5)) and qi.shows_negative((0, -1))
    assert not qi.shows_negative((1, -5)) and not qi.shows_negative((0, 0))
    assert not f7.shows_negative(6) and not f7i.shows_negative((0, 6))
