import dataclasses
import random

import pytest

from xratio.certs import (COUNTEREXAMPLE_CERT_NAMES, VALID_CERT_NAMES,
                          CertFormatError, QuadExt, parse_certificate,
                          shipped_certificate, shipped_certificates,
                          verify_certificate)
from xratio.exprparse import parse_expression
from xratio.fields import XratioError, field_by_name, prime_field, rationals
from xratio.poly import Ring
from xratio.ratfunc import RatFunc, rat

ODD_NAMES = ("Q", "Q(i)", "F3", "F5", "F7", "F101", "F3(i)", "F7(i)")
CHAR2_CERTS = ("shift_full_char2", "shift_base_char2", "conic_reflection_char2")


def test_shipped_inventory():
    certs = shipped_certificates()
    assert set(certs) == set(VALID_CERT_NAMES) | set(COUNTEREXAMPLE_CERT_NAMES)
    assert len(certs) == 7
    with pytest.raises(XratioError):
        shipped_certificate("no_such_cert")


def test_applies_to_characteristic_gate():
    f2 = prime_field(2)
    q = rationals()
    for name in VALID_CERT_NAMES:
        cert = shipped_certificate(name)
        if name in CHAR2_CERTS:
            assert cert.applies_to(f2)
            assert not cert.applies_to(q)
        else:
            assert not cert.applies_to(f2)
            assert cert.applies_to(q)
    with pytest.raises(XratioError, match="does not apply"):
        verify_certificate(shipped_certificate("negate_invert_full"), f2)


@pytest.mark.parametrize("field_name", ODD_NAMES)
def test_odd_certificates_valid_everywhere_applicable(field_name):
    field = field_by_name(field_name)
    for name in VALID_CERT_NAMES:
        cert = shipped_certificate(name)
        if not cert.applies_to(field):
            continue
        ver = verify_certificate(cert, field)
        assert ver.valid, ver.render()
        assert [c.ok for c in ver.conditions] == [True] * 4
        assert "VALID" in ver.render()


def test_char2_certificates_valid_over_f2():
    f2 = prime_field(2)
    for name in CHAR2_CERTS:
        ver = verify_certificate(shipped_certificate(name), f2)
        assert ver.valid, ver.render()
        assert ver.degree == 2


def test_negate_invert_full_relation_degree():
    ver = verify_certificate(shipped_certificate("negate_invert_full"),
                             rationals())
    assert ver.degree == 2
    assert ver.field_name == "Q"
    assert ver.cert_name == "negate_invert_full"


def test_perturbed_counterexample_fails_only_fixedness():
    cert = shipped_certificate("negate_invert_perturbed")
    ver = verify_certificate(cert, rationals())
    assert not ver.valid
    flags = [c.ok for c in ver.conditions]
    assert flags == [False, True, True, True]
    assert ver.conditions[0].detail
    text = ver.render()
    assert "INVALID" in text
    assert "FAIL" in text


def test_condition_indices_and_descriptions():
    ver = verify_certificate(shipped_certificate("negate_base"), rationals())
    assert [c.index for c in ver.conditions] == [1, 2, 3, 4]
    assert all(c.description for c in ver.conditions)


TINY = (
    "name: tiny\n"
    "characteristic: 0\n"
    "variables: u\n"
    "[auto]\n"
    "u -> -u\n"
    "[generators]\n"
    "v = u^2\n"
    "[primitive]\n"
    "theta = u\n"
    "[relation]\n"
    "T^2 - v\n"
    "[expressions]\n"
    "u = theta\n"
)


def test_parse_certificate_rejects_malformed_input():
    with pytest.raises(CertFormatError):
        parse_certificate("characteristic: 0\n[auto]\n", name="broken")
    good = TINY
    cert = parse_certificate(good)
    assert cert.name == "tiny"
    ver = verify_certificate(cert, rationals())
    assert ver.valid
    with pytest.raises(CertFormatError):
        parse_certificate(good.replace("characteristic: 0",
                                       "characteristic: 5"))
    with pytest.raises(CertFormatError):
        parse_certificate(good.replace("[relation]\nT^2 - v\n", ""))


def test_extension_ambient_certificate():
    cert = shipped_certificate("conic_reflection")
    assert cert.extension is not None
    for fname in ("Q", "F5", "F101"):
        ver = verify_certificate(cert, field_by_name(fname))
        assert ver.valid, ver.render()


def test_rational_expression_whose_denominator_collapses_is_rejected():
    text = TINY.replace("u = theta\n", "u = theta/(v - theta^2)\n")
    with pytest.raises(CertFormatError):
        verify_certificate(parse_certificate(text), rationals())


def test_extension_element_with_zero_denominator_is_rejected():
    cert = shipped_certificate("conic_reflection")
    bad = dataclasses.replace(
        cert, generators=cert.generators + [("w", "1/(t^2 - ((1 - a)*u^2 + a))")])
    with pytest.raises(CertFormatError):
        verify_certificate(bad, rationals())


# -- the one-denominator ExtElem against two-component reference arithmetic --


class _RefElem:
    """a + b*t with RatFunc components over t^2 + e*t + f, the arithmetic
    ExtElem used before it kept one shared polynomial denominator."""

    def __init__(self, e, f, a, b):
        self.e, self.f, self.a, self.b = e, f, a, b

    def _new(self, a, b):
        return _RefElem(self.e, self.f, a, b)

    def __add__(self, o):
        return self._new(self.a + o.a, self.b + o.b)

    def __neg__(self):
        return self._new(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        bb = self.b * o.b
        return self._new(self.a * o.a - bb * self.f,
                         self.a * o.b + o.a * self.b - bb * self.e)

    def inv(self):
        a, b = self.a, self.b
        n = a * a - a * b * self.e + b * b * self.f
        return self._new((a - b * self.e) / n, -b / n)

    def __truediv__(self, o):
        return self * o.inv()

    def __pow__(self, n):
        ring = self.a.ring
        out = self._new(rat(ring, 1), rat(ring, 0))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, o):
        return (self.a == o.a) is True and (self.b == o.b) is True

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()


def _random_ratfunc(ring, rng):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            c = ring.field.from_int(rng.randint(-3, 3))
            if ring.field.name == "Q(i)":
                c = c + ring.field.sqrt_minus_one() * rng.randint(-2, 2)
            terms[e] = c
        return ring.poly(terms)
    num, den = poly(), poly()
    return RatFunc(ring, num, den if not den.is_zero() else ring.one)


def _ext_for(case):
    name, field_name = case
    field = field_by_name(field_name)
    ring = Ring(field, ("a", "u"))
    if name == "denominators":
        # t^2 + t/u + a/(u + 1): E2 = u*(u + 1) != 1, irreducible by a-degree parity
        e, f = (parse_expression(x, ring) for x in ("1/u", "a/(u + 1)"))
        return QuadExt(ring, e, f)
    cert = shipped_certificate(name)
    assert cert.applies_to(field)
    big = Ring(field, ("a", "u", "T"))
    rel = parse_expression(cert.extension, big).num
    e, f = (RatFunc(ring, rel.coefficient_of("T", k).substitute({}, ring))
            for k in (1, 0))
    return QuadExt(ring, e, f)


@pytest.mark.parametrize("case", [
    ("conic_reflection", "Q"), ("conic_reflection", "Q(i)"),
    ("conic_reflection", "F5"), ("conic_reflection_char2", "F2"),
    ("denominators", "Q"), ("denominators", "F2"),
], ids="-".join)
def test_ext_elem_matches_reference_arithmetic(case):
    ext = _ext_for(case)
    ring = ext.ring
    rng = random.Random(f"ext-{case}")

    def pair():
        a, b = _random_ratfunc(ring, rng), _random_ratfunc(ring, rng)
        return ext.elem(a) + ext.elem(b) * ext.gen, _RefElem(ext.e, ext.f, a, b)

    def same(x, ref):
        return (x.a == ref.a) is True and (x.b == ref.b) is True

    for _ in range(12):
        (x, rx), (y, ry) = pair(), pair()
        n = rng.randint(0, 2)
        assert same(x + y, rx + ry)
        assert same(x - y, rx - ry)
        assert same(-x, -rx)
        assert same(x * y, rx * ry)
        assert same(x ** n, rx ** n)
        assert (x == y) == (rx == ry)
        assert x == x + (y - y)
        assert (x * y == y * x) is True
        if not ry.is_zero():
            assert same(x / y, rx / ry)
            assert (x / y) * y == x
        if not rx.is_zero():
            assert x * x.inv() == 1
