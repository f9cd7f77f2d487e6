"""Subfield certificates: machine-checkable fixed-field descriptions.

A certificate names an ambient field F (a rational function field over the
coefficient field, or a quadratic extension of one), a finite cyclic group
H = <sigma> of automorphisms of F, a list of invariant generators G, a
primitive element theta, and a monic relation R of degree m with
coefficients written in the G-names.  Verification checks, mechanically:

  1. every declared generator is fixed by sigma;
  2. R(theta) = 0 in F;
  3. every ambient generator is recovered by its declared expression in
     G and theta, so F = k(G)(theta);
  4. sigma has order exactly m = deg R (and, for extension ambients, the
     declared action on the extension generator is a well-defined
     automorphism).

Together with the fixed-field degree axiom (stated, not proved here: a
finite automorphism group H of a field F satisfies [F : F^H] = |H|), the
four conditions force F^H = k(G): the tower k(G) <= F^H <= F has
[F : k(G)] <= m by (2)+(3) and [F : F^H] = m by (4), so [F^H : k(G)] = 1.

Certificates live in small text files (see data/*.cert) so they can be
read, diffed, and deliberately broken; one shipped fixture is broken on
purpose to demonstrate that condition (1) actually bites.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from importlib import resources

from .autos import Automorphism, OrderBoundError
from .exprparse import parse_expression
from .fields import Field, FieldElement, XratioError
from .poly import MultiPoly, Ring
from .ratfunc import DegenerateSubstitutionError, RatFunc, rat, rvar

ORDER_BOUND = 24


class CertFormatError(XratioError):
    pass


# -- quadratic extensions ----------------------------------------------------


class QuadExt:
    """E = k(base vars)[t] / (t^2 + e*t + f) with e, f rational over the base;
    the denominators are cleared once into E2*t^2 + E1*t + E0 = 0 (polynomials)."""

    __slots__ = ("ring", "e", "f", "E2", "E1", "E0")

    def __init__(self, ring: Ring, e: RatFunc, f: RatFunc):
        self.ring = ring
        self.e = e = rat(ring, e)
        self.f = f = rat(ring, f)
        self.E2 = e.den * f.den
        self.E1 = e.num * f.den
        self.E0 = f.num * e.den

    def elem(self, a) -> "ExtElem":
        """The base-field element `a` (int, scalar, polynomial or RatFunc)."""
        a = rat(self.ring, a)
        return ExtElem(self, a.num, self.ring.zero, a.den)

    @property
    def gen(self):
        one = self.ring.one
        return ExtElem(self, self.ring.zero, one, one)

    def __eq__(self, other):
        return (isinstance(other, QuadExt) and other.ring == self.ring
                and (other.e == self.e) is True and (other.f == self.f) is True)

    __hash__ = None


class ExtElem:
    """(A + B*t)/D in a QuadExt: base polynomials A, B and one unreduced D != 0.
    Equality cross-multiplies; 1, t is a basis over the base fraction field."""

    __slots__ = ("ext", "A", "B", "D")

    def __init__(self, ext: QuadExt, A: MultiPoly, B: MultiPoly, D: MultiPoly):
        self.ext = ext
        self.A = A
        self.B = B
        self.D = D

    @property
    def a(self) -> RatFunc:
        return RatFunc(self.ext.ring, self.A, self.D)

    @property
    def b(self) -> RatFunc:
        return RatFunc(self.ext.ring, self.B, self.D)

    def _coerce(self, other):
        if isinstance(other, ExtElem):
            if other.ext is not self.ext and other.ext != self.ext:
                raise XratioError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, FieldElement, MultiPoly, RatFunc)):
            return self.ext.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.D == o.D:
            return ExtElem(self.ext, self.A + o.A, self.B + o.B, self.D)
        return ExtElem(self.ext, self.A * o.D + o.A * self.D,
                       self.B * o.D + o.B * self.D, self.D * o.D)

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.ext, -self.A, -self.B, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ext = self.ext
        aa = self.A * o.A
        ab = self.A * o.B + o.A * self.B
        bb = self.B * o.B
        if bb.is_zero():
            return ExtElem(ext, aa, ab, self.D * o.D)
        # t^2 = -(E1*t + E0)/E2
        E2 = ext.E2
        return ExtElem(ext, E2 * aa - ext.E0 * bb, E2 * ab - ext.E1 * bb,
                       E2 * (self.D * o.D))

    __rmul__ = __mul__

    def inv(self) -> "ExtElem":
        A, B, D, ext = self.A, self.B, self.D, self.ext
        if B.is_zero():  # a base-field element
            num, norm = (D, B), A
        else:
            # conjugate (A*E2 - B*E1 - B*E2*t)/E2 over norm (E2*A^2 - E1*A*B + E0*B^2)/E2
            E2, E1 = ext.E2, ext.E1
            num = (D * (A * E2 - B * E1), -(D * B * E2))
            norm = E2 * A * A - E1 * A * B + ext.E0 * B * B
        if norm.is_zero():
            raise ZeroDivisionError("extension element has zero norm")
        return ExtElem(ext, *num, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise XratioError("extension powers take nonnegative int exponents")
        out, base, k = self.ext.elem(1), self, n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.A * o.D == o.A * self.D and self.B * o.D == o.B * self.D

    __hash__ = None

    def is_zero(self):
        return self.A.is_zero() and self.B.is_zero()

    def __str__(self):
        if self.B.is_zero():
            return str(self.a)
        if self.A.is_zero():
            return f"({self.b})*t"
        return f"({self.a}) + ({self.b})*t"

    __repr__ = __str__


class ExtAuto:
    """Automorphism of a QuadExt: a base-field automorphism plus an image of t."""

    __slots__ = ("ext", "base_auto", "t_image")

    def __init__(self, ext: QuadExt, base_auto: Automorphism, t_image: ExtElem):
        self.ext = ext
        self.base_auto = base_auto
        self.t_image = t_image
        # well-definedness: the image must satisfy the moved relation
        e2 = base_auto.apply(ext.e)
        f2 = base_auto.apply(ext.f)
        check = t_image * t_image + ext.elem(e2) * t_image + ext.elem(f2)
        if not check.is_zero():
            raise XratioError(
                "declared action on the extension generator does not preserve "
                "the extension relation")

    def apply(self, x: ExtElem) -> ExtElem:
        ext, move = self.ext, self.base_auto.apply
        return ext.elem(move(x.a)) + ext.elem(move(x.b)) * self.t_image

    __call__ = apply

    def __mul__(self, other: "ExtAuto") -> "ExtAuto":
        """(self*other)(x) = self(other(x))."""
        return ExtAuto(self.ext, self.base_auto * other.base_auto,
                       self.apply(other.t_image))

    def is_identity(self) -> bool:
        return self.base_auto.is_identity() and (self.t_image == self.ext.gen) is True

    order = Automorphism.order  # needs only __mul__ and is_identity


# -- ambient fields ----------------------------------------------------------


class RationalAmbient:
    """Ambient F = k(variables)."""

    def __init__(self, field: Field, variables):
        self.field = field
        self.ring = Ring(field, tuple(variables))
        self.names = self.ring.variables

    def element(self, text: str) -> RatFunc:
        return parse_expression(text, self.ring)

    def generator(self, name: str) -> RatFunc:
        return rvar(self.ring, name)

    def auto(self, images: dict) -> Automorphism:
        full = {v: images.get(v, rvar(self.ring, v)) for v in self.names}
        return Automorphism(self.ring, full)


class ExtensionAmbient:
    """Ambient F = k(variables)[t] / (t^2 + e*t + f)."""

    def __init__(self, field: Field, variables, e: RatFunc, f: RatFunc):
        self.field = field
        self.ring = Ring(field, tuple(variables))
        self.ext = QuadExt(self.ring, e, f)
        self.names = self.ring.variables + ("t",)
        self._big = Ring(field, self.names)
        self._gens = {v: self.ext.elem(rvar(self.ring, v)) for v in self.ring.variables}
        self._gens["t"] = self.ext.gen

    def element(self, text: str) -> ExtElem:
        return eval_expression_over(parse_expression(text, self._big), self._gens, self)

    def generator(self, name: str) -> ExtElem:
        return self._gens[name]

    def auto(self, images: dict):
        base_imgs = {}
        for v in self.ring.variables:
            img = images.get(v, self._gens[v])
            if not img.B.is_zero():
                raise CertFormatError(
                    f"image of base variable {v!r} must stay in the base field")
            base_imgs[v] = img.a
        return ExtAuto(self.ext, Automorphism(self.ring, base_imgs),
                       images.get("t", self._gens["t"]))


def _eval_poly_over(p: MultiPoly, values: dict, ext: QuadExt) -> ExtElem:
    """Polynomial with variables mapped to extension elements; each power
    values[name]**k is built once per call."""
    powers = {}
    acc = ext.elem(0)
    names = p.ring.variables
    for e, c in p.coefficients():
        t = ext.elem(c)
        for name, k in zip(names, e):
            if k:
                pw = powers.get((name, k))
                if pw is None:
                    pw = powers[name, k] = values[name] ** k
                t = t * pw
        acc = acc + t
    return acc


def eval_expression_over(rf: RatFunc, values: dict, ambient):
    """Rational expression with variables mapped to ambient elements."""
    if isinstance(ambient, RationalAmbient):
        try:
            return rf.substitute(values, ambient.ring)
        except DegenerateSubstitutionError:
            raise CertFormatError("expression denominator collapses to zero") from None
    num = _eval_poly_over(rf.num, values, ambient.ext)
    den = _eval_poly_over(rf.den, values, ambient.ext)
    if den.is_zero():
        raise CertFormatError("expression denominator collapses to zero")
    return num / den


# -- certificate files -------------------------------------------------------


@dataclass
class Certificate:
    name: str
    characteristic: str            # "0" | "2" | "not-2" | "any"
    variables: tuple
    extension: str = None          # monic quadratic in T over the variables
    auto_images: list = dc_field(default_factory=list)     # (name, expr text)
    generators: list = dc_field(default_factory=list)      # (name, expr text)
    primitive: tuple = None                                # (name, expr text)
    relation: str = ""
    expressions: list = dc_field(default_factory=list)     # (name, expr text)

    def applies_to(self, field: Field) -> bool:
        c = self.characteristic
        if c == "any":
            return True
        if c == "not-2":
            return field.characteristic != 2
        return field.characteristic == int(c)


_HEADER_KEYS = ("name", "characteristic", "variables", "extension")
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
            header[key] = val.strip()
        else:
            sections[current].append((lineno, line))

    def split_arrow(entry):
        lineno, line = entry
        if "->" not in line:
            raise CertFormatError(f"line {lineno}: expected 'name -> expression'")
        lhs, _, rhs = line.partition("->")
        return lhs.strip(), rhs.strip()

    def split_eq(entry):
        lineno, line = entry
        if "=" not in line:
            raise CertFormatError(f"line {lineno}: expected 'name = expression'")
        lhs, _, rhs = line.partition("=")
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

    return Certificate(
        name=header.get("name", name),
        characteristic=char,
        variables=variables,
        extension=header.get("extension"),
        auto_images=[split_arrow(e) for e in sections["auto"]],
        generators=[split_eq(e) for e in sections["generators"]],
        primitive=split_eq(sections["primitive"][0]),
        relation=" ".join(line for _, line in sections["relation"]),
        expressions=[split_eq(e) for e in sections["expressions"]],
    )


def _monic_in_T(text: str, coeff_ring: Ring):
    """Parse a monic polynomial in T with rational coefficients over coeff_ring;
    returns the coefficient list [c0, ..., cm]."""
    big = Ring(coeff_ring.field, coeff_ring.variables + ("T",))
    rf = parse_expression(text, big)
    if rf.den.degree_in("T"):
        raise CertFormatError("relation denominator must not involve T")
    m = rf.num.degree_in("T")
    if m < 1:
        raise CertFormatError("relation must actually involve T")
    den = rf.den.substitute({}, coeff_ring)
    coeffs = []
    for k in range(m + 1):
        ck = rf.num.coefficient_of("T", k).substitute({}, coeff_ring)
        coeffs.append(RatFunc(coeff_ring, ck, den))
    if not (coeffs[m] == rat(coeff_ring, 1)):
        raise CertFormatError("relation must be monic in T")
    return coeffs


# -- verification ------------------------------------------------------------


CONDITIONS = (
    "declared generators are invariant under the declared action",
    "the monic relation annihilates the primitive element",
    "every ambient generator is a rational expression in the invariants "
    "and the primitive element",
    "the declared action has order equal to the relation degree",
)


@dataclass
class ConditionResult:
    index: int
    description: str
    ok: bool
    detail: str = ""


@dataclass
class CertVerification:
    cert_name: str
    field_name: str
    degree: int
    conditions: list

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


def _build_ambient(cert: Certificate, field: Field):
    if cert.extension is None:
        return RationalAmbient(field, cert.variables)
    base = Ring(field, cert.variables)
    coeffs = _monic_in_T(cert.extension, base)
    if len(coeffs) != 3:
        raise CertFormatError("extension relation must be quadratic in T")
    return ExtensionAmbient(field, cert.variables, coeffs[1], coeffs[0])


def verify_certificate(cert: Certificate, field: Field) -> CertVerification:
    """Run the four conditions of `cert` over the given coefficient field."""
    if not cert.applies_to(field):
        raise XratioError(
            f"certificate {cert.name} does not apply over {field.name} "
            f"(characteristic constraint {cert.characteristic})")
    ambient = _build_ambient(cert, field)
    results = []

    def push(idx, ok, detail=""):
        results.append(ConditionResult(idx, CONDITIONS[idx - 1], ok, detail))

    images = {n: ambient.element(txt) for n, txt in cert.auto_images}
    for n in images:
        if n not in ambient.names:
            raise CertFormatError(f"[auto] names unknown generator {n!r}")
    try:
        sigma = ambient.auto(images)
        sigma_ok, sigma_detail = True, ""
    except XratioError as exc:
        sigma, sigma_ok, sigma_detail = None, False, str(exc)

    gen_values = {}
    for n, txt in cert.generators:
        if n in gen_values:
            raise CertFormatError(f"duplicate generator name {n!r}")
        gen_values[n] = ambient.element(txt)

    if sigma_ok:
        bad = [n for n, v in gen_values.items() if not (sigma.apply(v) == v) is True]
        push(1, not bad,
             "" if not bad else f"moved by the action: {', '.join(sorted(bad))}")
    else:
        push(1, False, sigma_detail)

    prim_name, prim_txt = cert.primitive
    if prim_name in gen_values:
        raise CertFormatError("primitive name clashes with a generator name")
    theta = ambient.element(prim_txt)

    coeff_ring = Ring(field, tuple(gen_values))
    rel_coeffs = _monic_in_T(cert.relation, coeff_ring)
    m = len(rel_coeffs) - 1
    acc = None
    for c in reversed(rel_coeffs):
        cv = eval_expression_over(c, gen_values, ambient)
        acc = cv if acc is None else acc * theta + cv
    push(2, acc.is_zero(),
         "" if acc.is_zero() else f"relation evaluates to {acc}")

    expr_ring = Ring(field, tuple(gen_values) + (prim_name,))
    expr_values = dict(gen_values)
    expr_values[prim_name] = theta
    covered = set()
    bad3 = []
    for n, txt in cert.expressions:
        if n not in ambient.names:
            raise CertFormatError(f"[expressions] names unknown generator {n!r}")
        covered.add(n)
        rf = parse_expression(txt, expr_ring)
        got = eval_expression_over(rf, expr_values, ambient)
        if not (got == ambient.generator(n)) is True:
            bad3.append(n)
    missing = [n for n in ambient.names if n not in covered]
    ok3 = not bad3 and not missing
    detail3 = []
    if bad3:
        detail3.append(f"wrong expressions: {', '.join(sorted(bad3))}")
    if missing:
        detail3.append(f"no expression for: {', '.join(sorted(missing))}")
    push(3, ok3, "; ".join(detail3))

    if sigma_ok:
        try:
            got_order = sigma.order(ORDER_BOUND)
            ok4 = got_order == m
            detail4 = "" if ok4 else f"action order {got_order}, relation degree {m}"
        except OrderBoundError as exc:
            ok4, detail4 = False, str(exc)
        push(4, ok4, detail4)
    else:
        push(4, False, sigma_detail)

    return CertVerification(cert.name, field.name, m, results)


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
    """Parse and cache the certificates bundled under data/."""
    if _cache:
        return dict(_cache)
    root = resources.files(__package__) / "data"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".cert"):
            continue
        stem = entry.name[: -len(".cert")]
        cert = parse_certificate(entry.read_text(), name=stem)
        _cache[cert.name] = cert
    return dict(_cache)


def shipped_certificate(name: str) -> Certificate:
    certs = shipped_certificates()
    if name not in certs:
        raise XratioError(f"no shipped certificate named {name!r}")
    return certs[name]
