"""Subfield certificates: machine-checkable fixed-field descriptions.

A certificate names an ambient field F (a rational function field over the
coefficient field), a finite cyclic group H = <sigma> of automorphisms of F,
a list of invariant generators G, a primitive element theta, and a monic
relation R of degree m with coefficients written in the G-names.
Verification checks, mechanically:

  1. every declared generator is fixed by sigma;
  2. R(theta) = 0 in F;
  3. every ambient generator is recovered by its declared expression in
     G and theta, so F = k(G)(theta);
  4. sigma has order exactly m = deg R.

The four conditions prove F^H = k(G), with nothing assumed, by the
elementary half of Artin's theorem (Lang, Algebra, ch. VI, sec. 1).  By (1)
k(G) <= F^H, and by (2)+(3) F = k(G)(theta) with [F : k(G)] <= m.  For
0 < j < m, sigma^j theta != theta, or sigma^j would fix k(G) and theta,
hence F, against (4); applying sigma^-i, the m conjugates sigma^i theta are
distinct.  The minimal polynomial of theta over F^H has sigma-fixed
coefficients, so all m conjugates are its roots and [F : F^H] >= m.  Then
m >= [F : k(G)] = [F : F^H][F^H : k(G)] >= m [F^H : k(G)], so F^H = k(G)
and R is the minimal polynomial of theta.  Condition (4) carries the
argument: with an identity action (1)-(3) can all pass while F^H = F.

Certificates live in small text files (see data/*.cert) so they can be
read, diffed, and deliberately broken; one shipped fixture is broken on
purpose to demonstrate that condition (1) actually bites.
"""

from __future__ import annotations

import functools
import os

from .autos import Automorphism
from .exprparse import parse_expression
from .fields import Field, XratioError
from .poly import Ring
from .ratfunc import DegenerateSubstitutionError, RatFunc, rvar


class CertFormatError(XratioError):
    pass


# -- certificate files -------------------------------------------------------


class Certificate:
    __slots__ = ("name", "characteristic", "variables", "auto_images", "generators",
                 "primitive", "relation", "expressions")

    def __init__(self, name, characteristic, variables, auto_images=None,
                 generators=None, primitive=None, relation="", expressions=None):
        # characteristic is "0", "2", "not-2" or "any"; auto_images, generators
        # and expressions are lists of (name, expr text), primitive one such pair
        self.name, self.characteristic, self.variables = name, characteristic, variables
        self.auto_images = [] if auto_images is None else auto_images
        self.generators = [] if generators is None else generators
        self.primitive, self.relation = primitive, relation
        self.expressions = [] if expressions is None else expressions

    def applies_to(self, field: Field) -> bool:
        c = self.characteristic
        if c == "any":
            return True
        if c == "not-2":
            return field.characteristic != 2
        return field.characteristic == int(c)


_HEADER_KEYS = ("name", "characteristic", "variables")
_SECTIONS = ("auto", "generators", "primitive", "relation", "expressions")


def parse_certificate(text: str, name: str = "") -> Certificate:
    header = {}
    sections = {s: [] for s in _SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in sections:
                raise CertFormatError(f"line {lineno}: unknown section [{current}]")
            continue
        if current is None:
            if ":" not in line:
                raise CertFormatError(f"line {lineno}: expected 'key: value'")
            key, _, val = line.partition(":")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise CertFormatError(f"line {lineno}: unknown header key {key!r}")
            if key in header:
                raise CertFormatError(f"line {lineno}: repeated header key {key!r}")
            header[key] = val.strip()
        else:
            sections[current].append((lineno, line))

    def split(entry, sep):
        lineno, line = entry
        if sep not in line:
            raise CertFormatError(f"line {lineno}: expected 'name {sep} expression'")
        lhs, _, rhs = line.partition(sep)
        return lhs.strip(), rhs.strip()

    if "characteristic" not in header or "variables" not in header:
        raise CertFormatError("missing 'characteristic:' or 'variables:' header")
    char = header["characteristic"]
    if char not in ("0", "2", "not-2", "any"):
        raise CertFormatError(f"unsupported characteristic constraint {char!r}")
    variables = tuple(header["variables"].split())
    if not variables:
        raise CertFormatError("empty variable list")
    if not sections["relation"]:
        raise CertFormatError("missing [relation] section")
    if len(sections["primitive"]) != 1:
        raise CertFormatError("[primitive] must hold exactly one line")
    auto_images = []
    for entry in sections["auto"]:
        target, image = split(entry, "->")
        if any(target == n for n, _ in auto_images):
            raise CertFormatError(
                f"line {entry[0]}: repeated [auto] target {target!r}")
        auto_images.append((target, image))

    return Certificate(
        name=header.get("name", name),
        characteristic=char,
        variables=variables,
        auto_images=auto_images,
        generators=[split(e, "=") for e in sections["generators"]],
        primitive=split(sections["primitive"][0], "="),
        relation=" ".join(line for _, line in sections["relation"]),
        expressions=[split(e, "=") for e in sections["expressions"]],
    )


# -- verification ------------------------------------------------------------


CONDITIONS = (
    "declared generators are invariant under the declared action",
    "the monic relation annihilates the primitive element",
    "every ambient generator is a rational expression in the invariants "
    "and the primitive element",
    "the declared action has order equal to the relation degree",
)


class ConditionResult:
    __slots__ = ("index", "description", "ok", "detail")

    def __init__(self, index, description, ok, detail=""):
        self.index, self.description, self.ok, self.detail = index, description, ok, detail


class CertVerification:
    __slots__ = ("cert_name", "field_name", "degree", "conditions", "generators")

    def __init__(self, cert_name, field_name, degree, conditions, generators):
        self.cert_name, self.field_name, self.degree = cert_name, field_name, degree
        self.conditions = conditions
        self.generators = generators  # name -> its parsed value in the ambient field

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.conditions)

    def render(self) -> str:
        head = f"certificate {self.cert_name} over {self.field_name}: " + (
            "VALID" if self.valid else "INVALID")
        lines = [head]
        for c in self.conditions:
            mark = "ok " if c.ok else "FAIL"
            line = f"  ({c.index}) [{mark}] {c.description}"
            if c.detail and not c.ok:
                line += f" -- {c.detail}"
            lines.append(line)
        return "\n".join(lines)


def _substitute(rf: RatFunc, values: dict, ring: Ring) -> RatFunc:
    try:
        return rf.substitute(values, ring)
    except DegenerateSubstitutionError:
        raise CertFormatError("expression denominator collapses to zero") from None


def verify_certificate(cert: Certificate, field: Field) -> CertVerification:
    """Run the four conditions of `cert` over the given coefficient field.

    A certificate's texts are parsed once per process, keyed by the field
    and every text as it stands; all four conditions are computed on every
    call."""
    if not cert.applies_to(field):
        raise XratioError(
            f"certificate {cert.name} does not apply over {field.name} "
            f"(characteristic constraint {cert.characteristic})")
    ring, sigma, gen_values, (prim_name, theta), (relation, m), exprs = _parse(
        field, cert.variables, tuple(cert.auto_images), tuple(cert.generators),
        cert.primitive, cert.relation, tuple(cert.expressions))
    results = []

    def push(idx, ok, detail=""):
        results.append(ConditionResult(idx, CONDITIONS[idx - 1], ok, detail))

    bad = []
    for n, v in gen_values.items():
        try:
            if not sigma.fixes(v):
                bad.append(n)
        except DegenerateSubstitutionError:
            bad.append(f"{n} (its image has a zero denominator)")
    push(1, not bad, "" if not bad else f"moved by the action: {', '.join(sorted(bad))}")

    value = _substitute(relation, {**gen_values, "T": theta}, ring)
    push(2, value.is_zero(), "" if value.is_zero() else f"relation evaluates to {value}")

    expr_values = {**gen_values, prim_name: theta}
    covered = set()
    bad3 = []
    for n, expr in exprs:
        covered.add(n)
        if _substitute(expr, expr_values, ring) != rvar(ring, n):
            bad3.append(n)
    missing = [n for n in ring.variables if n not in covered]
    ok3 = not bad3 and not missing
    detail3 = []
    if bad3:
        detail3.append(f"wrong expressions: {', '.join(sorted(bad3))}")
    if missing:
        detail3.append(f"no expression for: {', '.join(sorted(missing))}")
    push(3, ok3, "; ".join(detail3))

    try:
        k = sigma.identity_power(m)
        ok4 = k == m
        detail4 = ("" if ok4 else
                   f"sigma^{m} is not the identity (relation degree {m})" if k is None
                   else f"sigma^{k} is already the identity (relation degree {m})")
    except DegenerateSubstitutionError:
        ok4, detail4 = False, ("a power of the action sends a denominator to zero "
                               "(map is not invertible)")
    push(4, ok4, detail4)

    return CertVerification(cert.name, field.name, m, results, gen_values)


@functools.cache
def _parse(field, variables, auto_images, generators, primitive, relation,
           expressions) -> tuple:
    """Every text of a certificate parsed over `field`, with its action;
    raises CertFormatError when the certificate is malformed."""
    ring = Ring(field, variables)
    images = {n: parse_expression(txt, ring) for n, txt in auto_images}
    for n in images:
        if n not in ring.variables:
            raise CertFormatError(f"[auto] names unknown generator {n!r}")
    sigma = Automorphism(ring, {v: images.get(v, rvar(ring, v)) for v in variables})
    gen_values = {}
    for n, txt in generators:
        if n in gen_values:
            raise CertFormatError(f"duplicate generator name {n!r}")
        gen_values[n] = parse_expression(txt, ring)
    prim_name, prim_txt = primitive
    if prim_name in gen_values:
        raise CertFormatError("primitive name clashes with a generator name")
    if "T" in gen_values:
        raise CertFormatError("generator name 'T' clashes with the relation variable T")
    theta = parse_expression(prim_txt, ring)
    rel = parse_expression(relation, Ring(field, tuple(gen_values) + ("T",)))
    if rel.den.degree_in("T"):
        raise CertFormatError("relation denominator must not involve T")
    m = rel.num.degree_in("T")
    if m < 1:
        raise CertFormatError("relation must actually involve T")
    if rel.num.coefficient_of("T", m) != rel.den:
        raise CertFormatError("relation must be monic in T")
    for n, _ in expressions:
        if n not in ring.variables:
            raise CertFormatError(f"[expressions] names unknown generator {n!r}")
    expr_ring = Ring(field, tuple(gen_values) + (prim_name,))
    exprs = tuple((n, parse_expression(txt, expr_ring)) for n, txt in expressions)
    return ring, sigma, gen_values, (prim_name, theta), (rel, m), exprs


# -- shipped certificates ----------------------------------------------------


VALID_CERT_NAMES = (
    "negate_invert_full",
    "negate_base",
    "shift_full_char2",
    "shift_base_char2",
    "conic_reflection",
    "conic_reflection_char2",
)

COUNTEREXAMPLE_CERT_NAMES = ("negate_invert_perturbed",)

_cache = {}


def shipped_certificates() -> dict:
    """Parse the certificates bundled under data/, cached only once every one
    has parsed, so a malformed file is refused on every call."""
    if not _cache:
        root = os.path.join(os.path.dirname(__file__), "data")
        parsed = {}
        for entry in sorted(os.listdir(root)):
            if not entry.endswith(".cert"):
                continue
            with open(os.path.join(root, entry), encoding="utf-8") as fh:
                cert = parse_certificate(fh.read(), name=entry[: -len(".cert")])
            parsed[cert.name] = cert
        _cache.update(parsed)
    return dict(_cache)


def shipped_certificate(name: str) -> Certificate:
    certs = shipped_certificates()
    if name not in certs:
        raise XratioError(f"no shipped certificate named {name!r}")
    return certs[name]
