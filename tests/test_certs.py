import subprocess
import sys
import time
from pathlib import Path

import pytest

import xratio
from xratio import certs
from xratio.certs import (COUNTEREXAMPLE_CERT_NAMES, VALID_CERT_NAMES,
                          Certificate, CertFormatError, parse_certificate,
                          shipped_certificate, shipped_certificates,
                          verify_certificate)
from xratio.fields import XratioError, field_by_name, prime_field, rationals

ODD_NAMES = ("Q", "Q(i)", "F3", "F5", "F7", "F101", "F3(i)", "F7(i)")
CHAR2_CERTS = ("shift_full_char2", "shift_base_char2", "conic_reflection_char2")


def test_shipped_inventory():
    certs = shipped_certificates()
    assert set(certs) == set(VALID_CERT_NAMES) | set(COUNTEREXAMPLE_CERT_NAMES)
    assert len(certs) == 7
    with pytest.raises(XratioError):
        shipped_certificate("no_such_cert")


def test_a_certificate_that_fails_to_parse_fails_every_call(monkeypatch):
    # nothing is cached until every file has parsed, so a later call cannot
    # answer with the certificates read before the broken one
    real = certs.parse_certificate

    def broken(text, name):
        if name == "negate_invert_perturbed":
            raise CertFormatError("broken on purpose")
        return real(text, name=name)

    monkeypatch.setattr(certs, "_cache", {})
    monkeypatch.setattr(certs, "parse_certificate", broken)
    for _ in range(2):
        with pytest.raises(CertFormatError, match="broken on purpose"):
            shipped_certificates()
    monkeypatch.setattr(certs, "parse_certificate", real)
    assert len(shipped_certificates()) == 7


def test_loading_the_certificates_imports_neither_json_nor_importlib_resources():
    # without `site`, nothing preloads either module, so this sees what the
    # package itself imports up to its first parsed certificate
    src = str(Path(xratio.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import xratio; "
            "xratio.certs.shipped_certificates(); "
            "print(sorted({'json', 'importlib.resources'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_each_certificate_starts_with_its_own_lists():
    first, second = Certificate("a", "any", ("u",)), Certificate("b", "any", ("u",))
    for section in ("auto_images", "generators", "expressions"):
        getattr(first, section).append(("u", "u"))
        assert getattr(second, section) == []


def test_certificates_are_equal_exactly_when_every_field_is():
    # verify_certificate reuses a parse only for a certificate equal to the
    # shipped one of its name
    cert = shipped_certificate("negate_invert_full")
    assert _rebuilt(cert) == cert
    for name in Certificate.__slots__:
        assert _rebuilt(cert, **{name: "changed"}) != cert, name
    assert cert != cert.name


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


def test_rational_expression_whose_denominator_collapses_is_rejected():
    text = TINY.replace("u = theta\n", "u = theta/(v - theta^2)\n")
    with pytest.raises(CertFormatError):
        verify_certificate(parse_certificate(text), rationals())


def test_generator_whose_denominator_collapses_under_the_action_is_not_fixed():
    text = (TINY.replace("u -> -u", "u -> 0").replace("v = u^2", "v = 1/u")
            .replace("T^2 - v", "T - 1/v"))
    ver = verify_certificate(parse_certificate(text), rationals())
    assert [c.ok for c in ver.conditions] == [False, True, True, False]
    assert ver.conditions[0].detail == (
        "moved by the action: v (its image has a zero denominator)")
    assert "INVALID" in ver.render()


def test_degenerate_power_of_the_action_fails_the_order_condition():
    # degree 2, so condition 4 forms sigma^2, whose image of b is 1/(1 - 1)
    text = (
        "characteristic: 0\n"
        "variables: a b\n"
        "[auto]\n"
        "a -> 1\n"
        "b -> 1/(a - 1)\n"
        "[generators]\n"
        "c = a + 7\n"
        "[primitive]\n"
        "theta = b\n"
        "[relation]\n"
        "T^2 - 1\n"
        "[expressions]\n"
        "a = c - 7\n"
        "b = theta\n"
    )
    ver = verify_certificate(parse_certificate(text), rationals())
    assert not ver.valid
    order = ver.conditions[3]
    assert not order.ok
    assert order.detail == ("a power of the action sends a denominator to zero "
                            "(map is not invertible)")


def test_repeated_header_key_is_rejected():
    text = TINY.replace("characteristic: 0\n", "characteristic: 0\ncharacteristic: 2\n")
    with pytest.raises(CertFormatError,
                       match="line 3: repeated header key 'characteristic'"):
        parse_certificate(text)


def test_repeated_auto_target_is_rejected():
    # keeping either line alone would give a different verdict
    text = TINY.replace("u -> -u\n", "u -> u\nu -> -u\n")
    with pytest.raises(CertFormatError, match=r"line 6: repeated \[auto\] target 'u'"):
        parse_certificate(text)


def test_extension_header_is_refused():
    text = TINY.replace("variables: u\n", "variables: u\nextension: T^2 - u\n")
    with pytest.raises(CertFormatError, match="unknown header key 'extension'"):
        parse_certificate(text)


@pytest.mark.parametrize("old, new, message", [
    ("u -> -u\n", "w -> -u\n", "[auto] names unknown generator 'w'"),
    ("v = u^2\n", "v = u^2\nv = u^4\n", "duplicate generator name 'v'"),
    ("theta = u\n", "v = u\n", "primitive name clashes with a generator name"),
    ("u = theta\n", "w = theta\n", "[expressions] names unknown generator 'w'"),
])
def test_a_malformed_certificate_is_refused_on_every_call(monkeypatch, old, new, message):
    # shipped as it stands, so its texts go through the process-wide cache
    shipped_certificates()
    cert = parse_certificate(TINY.replace(old, new))
    monkeypatch.setitem(certs._cache, cert.name, cert)
    for _ in range(2):
        with pytest.raises(CertFormatError) as info:
            verify_certificate(cert, rationals())
        assert str(info.value) == message


def _rebuilt(cert, **changes):
    """A copy of the certificate `cert` with the fields in `changes` replaced."""
    fields = {name: getattr(cert, name) for name in Certificate.__slots__}
    return Certificate(**{**fields, **changes})


def _replaced(entries, name, text):
    return [(n, text if n == name else t) for n, t in entries]


@pytest.mark.parametrize("cert_name, field_name, section, name, text, failed", [
    ("conic_reflection", "Q", "auto_images", "s", "-s", {1}),
    ("conic_reflection", "F5", "expressions", "s", "(t + 1)/(u - 1)", {3}),
    ("conic_reflection", "F7(i)", "generators", "u",
     "((s - 1)^2 - a)/(s^2 - 1 + a) + s", {1, 2, 3}),
    ("conic_reflection_char2", "F2", "auto_images", "s", "s + 1", {1}),
    ("conic_reflection", "Q", "auto_images", "s", "s", {4}),
    ("conic_reflection_char2", "F2", "auto_images", "s", "s", {4}),
])
def test_each_condition_bites_on_the_conic_reflections(cert_name, field_name,
                                                       section, name, text, failed):
    cert = shipped_certificate(cert_name)
    bad = _rebuilt(cert, **{section: _replaced(getattr(cert, section), name, text)})
    ver = verify_certificate(bad, field_by_name(field_name))
    assert not ver.valid
    assert failed <= {c.index for c in ver.conditions if not c.ok}, ver.render()


def _auto_edits(cert, field):
    """Each [auto] edit that changes the map over `field`: negated, plus one
    and doubled (negation is no change in characteristic 2)."""
    (target, image), = cert.auto_images
    edits = {"plus one": f"({image}) + 1", "doubled": f"2*({image})"}
    if field.characteristic != 2:
        edits["negated"] = f"-({image})"
    return [(label, [(target, text)]) for label, text in edits.items()]


@pytest.mark.parametrize("cert_name, field_name", [
    *(("conic_reflection", name) for name in ODD_NAMES),
    ("conic_reflection_char2", "F2"),
])
def test_each_auto_edit_of_the_conic_reflections_fails_condition_4_fast(cert_name,
                                                                         field_name):
    # each edit has infinite order, so condition 4 must settle it from sigma and
    # sigma^2 instead of searching through higher powers
    cert, field = shipped_certificate(cert_name), field_by_name(field_name)
    for label, images in _auto_edits(cert, field):
        start = time.perf_counter()
        ver = verify_certificate(_rebuilt(cert, auto_images=images), field)
        elapsed = time.perf_counter() - start
        assert ver.conditions[3].detail == \
            "sigma^2 is not the identity (relation degree 2)", (label, ver.render())
        assert elapsed < 1.0, (label, elapsed)


def test_condition_4_names_the_power_that_breaks_it():
    ver = verify_certificate(parse_certificate(TINY.replace("u -> -u", "u -> u")),
                             rationals())
    assert ver.conditions[3].detail == "sigma^1 is already the identity (relation degree 2)"
    ver = verify_certificate(parse_certificate(TINY.replace("u -> -u", "u -> u + 1")),
                             rationals())
    assert ver.conditions[3].detail == "sigma^2 is not the identity (relation degree 2)"
