"""Ternary quadratic forms over k(x): points, isotropy, parametrization.

A :class:`TernaryForm` is a quadratic form in coordinates (Y, Z, W) with six
coefficients in a rational function field k(x).  Two families matter here:

* odd/zero characteristic:  Y^2 - x*Z^2 - x*W^2
* characteristic 2:         Z^2 + Z*W + Y*W + x*W^2

For the first family the existence of a k(x)-point is decided exactly:
if the field has a square root s of -1 then (0 : s : 1) is a point; if it
has none, the x = 0 valuation argument shows there is no point at all, and
:func:`valuation_obstruction` replays that argument mechanically on symbolic
coefficient templates of bounded degree (plus an exhaustive impossibility
check for b^2 + c^2 = 0 in finite fields).  The replay covers templates up
to the stated degree bound; it does not claim an unbounded-degree proof,
and the record says so.

:func:`bounded_point_search` is the independent cross-check: exhaustive
enumeration of polynomial coordinate triples up to a degree bound, in a
deterministic order (coordinate precedence W, Z, Y, matching the chart
preference of :func:`parametrize`, and polynomials ordered radix-style with
the constant coefficient fastest).  It walks the (W, Z) pairs in that order
and finds the least matching Y by exact table lookup instead of a third
loop; every table holds every Y, so the search is still exhaustive, with
O(n^2) lookups for n polynomials per coordinate instead of O(n^3) sums.

:func:`parametrize` builds the standard line-pencil parametrization through
a given point and verifies, symbolically and before returning, that the
forward map lands on the conic and that the inverse recovers the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .fields import Field, FieldElement, XratioError
from .poly import MultiPoly, Ring
from .ratfunc import CharacteristicError, RatFunc, rat, rvar


class DegenerateConicError(XratioError):
    pass


class VerificationError(XratioError):
    pass


class SearchBudgetError(XratioError):
    pass


SEARCH_BUDGET = 10 ** 7

_PAIRS = (("Y", "Y"), ("Z", "Z"), ("W", "W"), ("Y", "Z"), ("Y", "W"), ("Z", "W"))


def _clear_denominators(rfs) -> list:
    """Each numerator times every other denominator: the same projective
    point (or the same zero set, for form coefficients) with polynomial
    entries."""
    dens = [f.den for f in rfs]
    out = []
    for k, f in enumerate(rfs):
        p = f.num
        for j, d in enumerate(dens):
            if j != k:
                p = p * d
        out.append(p)
    return out


def _strip_monomial_content(polys) -> list:
    """Divide every nonzero polynomial by the monomial they all share."""
    shared = None
    for p in polys:
        if p.is_zero():
            continue
        m = p.monomial_content()
        shared = m if shared is None else tuple(min(a, b) for a, b in zip(shared, m))
    if shared and any(shared):
        polys = [p if p.is_zero() else p.divide_monomial(shared) for p in polys]
    return polys


class ProjPoint2:
    """Point of P^2 over a fraction field: a nonzero coordinate triple."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: Ring, coords):
        coords = tuple(rat(ring, c) for c in coords)
        if len(coords) != 3:
            raise XratioError("a plane point needs exactly 3 coordinates")
        if all(c.is_zero() for c in coords):
            raise XratioError("(0 : 0 : 0) is not a projective point")
        self.ring = ring
        self.coords = coords

    def same_point(self, other: "ProjPoint2") -> bool:
        """Projective equality: all 2x2 minors of the coordinate pair vanish."""
        a, b = self.coords, other.coords
        for i in range(3):
            for j in range(i + 1, 3):
                if not (a[i] * b[j] - a[j] * b[i]).is_zero():
                    return False
        return True

    def __str__(self):
        return "(" + " : ".join(str(x) for x in self.coords) + ")"

    __repr__ = __str__


class TernaryForm:
    """Quadratic form c_YY Y^2 + c_ZZ Z^2 + c_WW W^2 + c_YZ YZ + c_YW YW + c_ZW ZW."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: dict):
        self.ring = ring
        fixed = {}
        for pair in _PAIRS:
            c = coeffs.get(pair, 0)
            fixed[pair] = rat(ring, c)
        self.coeffs = fixed

    def coeff(self, a: str, b: str) -> RatFunc:
        key = (a, b) if (a, b) in self.coeffs else (b, a)
        return self.coeffs[key]

    def eval_at(self, Y, Z, W, target_ring: Ring = None) -> RatFunc:
        """Plug in coordinates from any ring containing this form's variables."""
        target = target_ring
        if target is None:
            for v in (Y, Z, W):
                if isinstance(v, RatFunc):
                    target = v.ring
                    break
        if target is None:
            target = self.ring
        vals = {"Y": rat(target, Y), "Z": rat(target, Z), "W": rat(target, W)}
        acc = rat(target, 0)
        for (a, b), c in self.coeffs.items():
            if c.is_zero():
                continue
            acc = acc + c.embed(target) * vals[a] * vals[b]
        return acc

    def is_point(self, p: ProjPoint2) -> bool:
        y, z, w = p.coords
        return self.eval_at(y, z, w, p.ring).is_zero()

    def is_smooth(self) -> bool:
        """Absolute irreducibility of the conic, any characteristic.

        Odd/zero characteristic: determinant of the doubled Gram matrix.
        Characteristic 2: the bilinear form b(v,w) = q(v+w)+q(v)+q(w) has a
        one-dimensional radical spanned by (c_ZW, c_YW, c_YZ) whenever those
        are not all zero; the conic is smooth iff that vector is not on the
        conic.  All-zero cross terms give a double line.
        """
        a, b, c = self.coeff("Y", "Y"), self.coeff("Z", "Z"), self.coeff("W", "W")
        d, e, f = self.coeff("Y", "Z"), self.coeff("Y", "W"), self.coeff("Z", "W")
        if self.ring.field.characteristic == 2:
            if d.is_zero() and e.is_zero() and f.is_zero():
                return False
            rad = a * f * f + b * e * e + c * d * d + d * e * f
            return not rad.is_zero()
        two = rat(self.ring, 2)
        det = (two * a * (two * b * two * c - f * f)
               - d * (d * two * c - f * e)
               + e * (d * f - two * b * e))
        return not det.is_zero()

    def __str__(self):
        parts = []
        for (a, b), c in self.coeffs.items():
            if c.is_zero():
                continue
            mono = f"{a}^2" if a == b else f"{a}*{b}"
            if c == rat(self.ring, 1):
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def base_ring(field: Field) -> Ring:
    return Ring(field, ("x",))


def standard_form(field: Field) -> TernaryForm:
    """Y^2 - x*Z^2 - x*W^2 over k(x); demands characteristic != 2."""
    if field.characteristic == 2:
        raise CharacteristicError("this family lives in characteristic != 2")
    ring = base_ring(field)
    x = rvar(ring, "x")
    one = rat(ring, 1)
    return TernaryForm(ring, {("Y", "Y"): one, ("Z", "Z"): -x, ("W", "W"): -x})


def char2_form(field: Field) -> TernaryForm:
    """Z^2 + Z*W + Y*W + x*W^2 over k(x); demands characteristic 2."""
    if field.characteristic != 2:
        raise CharacteristicError("this family lives in characteristic 2")
    ring = base_ring(field)
    x = rvar(ring, "x")
    one = rat(ring, 1)
    return TernaryForm(ring, {("Z", "Z"): one, ("Z", "W"): one,
                              ("Y", "W"): one, ("W", "W"): x})


def criterion_form(field: Field) -> TernaryForm:
    return char2_form(field) if field.characteristic == 2 else standard_form(field)


def form_from_text(field: Field, text: str) -> TernaryForm:
    """Parse e.g. 'Y^2 - x*Z^2 - x*W^2' (reserved names Y, Z, W, x)."""
    from .exprparse import parse_expression

    ring4 = Ring(field, ("x", "Y", "Z", "W"))
    f = parse_expression(text, ring4)
    den = f.den
    if any(den.degree_in(v) for v in ("Y", "Z", "W")):
        raise XratioError("form denominator must not involve Y, Z, W")
    ring1 = base_ring(field)
    coeffs = {}
    seen = set()
    for exps, c in f.num.terms.items():
        ex, ey, ez, ew = exps
        if ey + ez + ew != 2:
            raise XratioError("form must be homogeneous of degree 2 in Y, Z, W")
        names = "Y" * ey + "Z" * ez + "W" * ew
        pair = (names[0], names[1])
        mono = MultiPoly(ring1, {(ex,): c})
        prev = coeffs.get(pair)
        coeffs[pair] = mono if prev is None else prev + mono
        seen.add(pair)
    den1 = den.substitute({}, ring1)
    return TernaryForm(ring1, {p: RatFunc(ring1, c, den1) for p, c in coeffs.items()})


# -- isotropy decision ------------------------------------------------------


@dataclass
class ObstructionStep:
    description: str
    method: str
    verified: bool


@dataclass
class ObstructionRecord:
    field_name: str
    degree_bound: int
    steps: list = dc_field(default_factory=list)
    note: str = ""

    @property
    def verified(self) -> bool:
        return bool(self.steps) and all(s.verified for s in self.steps)

    def render(self) -> str:
        lines = [f"valuation obstruction at x = 0 over {self.field_name}, "
                 f"coordinate templates of degree <= {self.degree_bound}:"]
        for k, s in enumerate(self.steps, start=1):
            flag = "ok" if s.verified else "FAILED"
            lines.append(f"  {k}. [{flag}] {s.description}  [{s.method}]")
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)


@dataclass
class IsotropyDecision:
    field_name: str
    isotropic: bool
    witness: ProjPoint2 = None
    obstruction: ObstructionRecord = None

    def render(self) -> str:
        if self.isotropic:
            return f"isotropic over {self.field_name}(x): witness {self.witness}"
        return f"anisotropic over {self.field_name}(x)\n{self.obstruction.render()}"


def valuation_obstruction(field: Field, degree_bound: int = 4) -> ObstructionRecord:
    """Mechanical replay of the x = 0 argument against A^2 = x(B^2 + C^2).

    Works on symbolic coefficient templates A = sum A_k x^k (degree <=
    degree_bound), so each step below is checked for every polynomial triple
    of bounded degree at once.  Requires a field with no square root of -1
    and characteristic != 2 (otherwise the argument simply does not apply).
    """
    if field.characteristic == 2:
        raise CharacteristicError("the x = 0 argument needs characteristic != 2")
    if field.sqrt_minus_one() is not None:
        raise XratioError(f"{field.name} has a square root of -1; "
                          "the form is isotropic and there is no obstruction")
    d = degree_bound
    names = ["x"]
    for tag in ("A", "B", "C"):
        names += [f"{tag}{k}" for k in range(d + 1)]
    ring = Ring(field, names)
    x = ring.var("x")

    def template(tag):
        acc = ring.zero
        for k in range(d + 1):
            acc = acc + ring.var(f"{tag}{k}") * x ** k
        return acc

    A, B, C = template("A"), template("B"), template("C")
    E = A * A - x * (B * B + C * C)
    rec = ObstructionRecord(field.name, d)

    a0, b0, c0 = ring.var("A0"), ring.var("B0"), ring.var("C0")
    step1 = E.coefficient_of("x", 0) == a0 * a0
    rec.steps.append(ObstructionStep(
        "the constant x-coefficient of A^2 - x(B^2+C^2) is A0^2, so a zero "
        "of the form forces A(0) = 0",
        f"symbolic identity on degree <= {d} templates", step1))

    E0 = E.substitute({"A0": ring.zero})
    step2 = E0.coefficient_of("x", 1) == -(b0 * b0 + c0 * c0)
    rec.steps.append(ObstructionStep(
        "with A(0) = 0 the x^1 coefficient is -(B0^2 + C0^2), so "
        "B(0)^2 + C(0)^2 = 0 is forced",
        f"symbolic identity on degree <= {d} templates", step2))

    rec.steps.append(ObstructionStep(
        "a triple may be taken with (A(0), B(0), C(0)) != (0,0,0) after "
        "cancelling common x powers; A(0) = 0 then leaves (B(0), C(0)) != (0,0)",
        "bookkeeping on a minimal counterexample", True))

    if field.is_finite:
        pairs = 0
        ok = True
        for b in field.elements():
            for c in field.elements():
                if b.is_zero() and c.is_zero():
                    continue
                pairs += 1
                if (b * b + c * c).is_zero():
                    ok = False
        rec.steps.append(ObstructionStep(
            "b^2 + c^2 = 0 has no solution with (b, c) != (0, 0); such a "
            "solution would make b/c a square root of -1, i.e. a primitive "
            "4th root of unity",
            f"exhaustive over all {pairs} nonzero pairs of {field.name}", ok))
    else:
        ok = field.sqrt_minus_one() is None
        rec.steps.append(ObstructionStep(
            "b^2 + c^2 = 0 with (b, c) != (0, 0) would force c != 0 and make "
            "b/c a square root of -1, i.e. a primitive 4th root of unity; "
            "the field has none (equivalently, a sum of two rational squares "
            "is positive unless both vanish)",
            "square-root-of-minus-one test", ok))

    rec.note = ("the two symbolic steps are checked on bounded-degree "
                "templates; the same two forced steps apply verbatim at any "
                "degree, but this replay only certifies degrees <= "
                f"{d} mechanically")
    return rec


def decide_isotropy(field: Field, degree_bound: int = 4) -> IsotropyDecision:
    """Exact decision for Y^2 - x*Z^2 - x*W^2 over k(x), char != 2.

    Isotropic iff the coefficient field has a square root of -1; the witness
    (0 : s : 1) is re-verified by evaluation, and the anisotropic branch
    carries a fully verified ObstructionRecord.
    """
    if degree_bound < 0:
        raise XratioError(f"degree bound must be >= 0, got {degree_bound}")
    form = standard_form(field)
    s = field.sqrt_minus_one()
    if s is not None:
        witness = ProjPoint2(form.ring, (0, s, 1))
        if not form.is_point(witness):
            raise VerificationError("witness construction failed to land on the conic")
        return IsotropyDecision(field.name, True, witness=witness)
    rec = valuation_obstruction(field, degree_bound)
    if not rec.verified:
        raise VerificationError("obstruction replay failed; see record")
    return IsotropyDecision(field.name, False, obstruction=rec)


# -- exhaustive bounded search ---------------------------------------------


def _coeff_list(p: MultiPoly, upto: int):
    out = [p.ring.field.zero] * (upto + 1)
    for e, c in p.coefficients():
        out[e[0]] = c
    return out


def searchable_degree(field: Field, degree_bound: int) -> int:
    """The largest d <= degree_bound whose (q^(d+1))^3 candidate triples fit
    the search budget, or -1 when none does."""
    d = degree_bound
    while d >= 0 and (field.order ** (d + 1)) ** 3 > SEARCH_BUDGET:
        d -= 1
    return d


def bounded_point_search(form: TernaryForm, degree_bound: int):
    """First polynomial-coordinate zero, or None after full enumeration.

    Deterministic order: coordinate precedence (W, Z, Y) with Y varying
    fastest, each coordinate running through all polynomials of degree <=
    degree_bound ordered radix-style (constant coefficient fastest).  The
    first zero found is therefore the least triple in that order.  Budget
    guard: (q^(d+1))^3 <= 10^7 candidate triples.

    The Y loop is a lookup: for fixed (W, Z) the form is zero exactly when
    c_YY Y^2 + L Y = -(c_ZZ Z^2 + c_WW W^2 + c_ZW Z W) with L = c_YZ Z + c_YW W.
    A table per distinct L maps each exact left-hand side to the least Y index
    >= 1 that attains it.  It is built over every Y, so each (W, Z) pair still
    meets all its candidates and the search stays exhaustive; Y = 0 answers
    when the (W, Z) part vanishes on its own and (W, Z) != (0, 0).
    """
    field = form.ring.field
    if not field.is_finite:
        raise XratioError("exhaustive search needs a finite coefficient field")
    if len(form.ring.variables) != 1:
        raise XratioError("search expects a univariate coefficient ring")
    if degree_bound < 0:
        raise XratioError(f"degree bound must be >= 0, got {degree_bound}")
    n_polys = field.order ** (degree_bound + 1)
    if searchable_degree(field, degree_bound) < degree_bound:
        raise SearchBudgetError(
            f"{n_polys ** 3} candidate triples exceed the budget {SEARCH_BUDGET}")

    # clear denominators once; scaling by a nonzero element of k(x) keeps zeros
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

    def key(a):
        """Exact, hashable coefficient payloads with trailing zeros dropped."""
        out = [c.v for c in a]
        while out and out[-1] == zero.v:
            out.pop()
        return tuple(out)

    sq = [lmul(p, p) for p in polys]
    tY = [lmul(cl[("Y", "Y")], s) for s in sq]
    tZ = [lmul(cl[("Z", "Z")], s) for s in sq]
    tW = [lmul(cl[("W", "W")], s) for s in sq]
    cYZ, cYW, cZW = cl[("Y", "Z")], cl[("Y", "W")], cl[("Z", "W")]
    tables = {}

    def y_table(lin):
        """-(c_YY Y^2 + lin Y) -> least Y index >= 1 reaching it."""
        k = key(lin)
        table = tables.get(k)
        if table is None:
            if len(tables) >= n_polys:  # memory stays at n tables of n entries
                tables.clear()
            table = {}
            for iy in range(len(polys) - 1, 0, -1):
                part = ladd(tY[iy], lmul(lin, polys[iy]))
                table[key([-c for c in part])] = iy
            tables[k] = table
        return table

    rng_ = range(len(polys))
    for iw in rng_:
        for iz in rng_:
            pz, pw = polys[iz], polys[iw]
            rest = key(ladd(ladd(tW[iw], tZ[iz]), lmul(cZW, lmul(pz, pw))))
            if not rest and (iz or iw):
                iy = 0
            else:
                iy = y_table(ladd(lmul(cYZ, pz), lmul(cYW, pw))).get(rest)
            if iy is not None:
                coords = []
                for idx in (iy, iz, iw):
                    terms = {(k,): c for k, c in enumerate(polys[idx])}
                    coords.append(form.ring.poly(terms))
                return ProjPoint2(form.ring, coords)
    return None


# -- parametrization --------------------------------------------------------


_CHART_ORDER = ("W", "Z", "Y")
_COORD_INDEX = {"Y": 0, "Z": 1, "W": 2}
# (U, V, C) index triples per chart: C is the chart coordinate
_CHART_ROLES = {"W": (0, 1, 2), "Z": (0, 2, 1), "Y": (1, 2, 0)}


class ParametrizationMap:
    """Line-pencil parametrization of a smooth conic through a known point.

    forward: three polynomials in (base vars..., s); substituting any
    parameter value with a nonzero image gives a point of the conic.
    inverse: a rational expression in the base variables and the two affine
    chart coordinates, recovering s; undefined on the single degenerate
    fiber (the line of the pencil missing the second intersection).
    """

    __slots__ = ("form", "base_point", "chart", "param_ring", "forward",
                 "chart_ring", "affine_names", "inverse")

    def __init__(self, form, base_point, chart, param_ring, forward,
                 chart_ring, affine_names, inverse):
        self.form = form
        self.base_point = base_point
        self.chart = chart
        self.param_ring = param_ring
        self.forward = forward
        self.chart_ring = chart_ring
        self.affine_names = affine_names
        self.inverse = inverse

    def point_at(self, value) -> ProjPoint2:
        """Specialize the parameter to a field element."""
        if isinstance(value, int):
            value = self.param_ring.field.from_int(value)
        base = self.form.ring
        coords = [p.substitute({"s": base.const(value)}, base) for p in self.forward]
        if all(c.is_zero() for c in coords):
            raise DegenerateConicError(f"parameter {value} hits the degenerate fiber")
        return ProjPoint2(base, coords)

    def describe(self) -> str:
        fy, fz, fw = self.forward
        n1, n2 = self.affine_names
        return (f"chart {self.chart}; forward s -> ({fy} : {fz} : {fw}); "
                f"inverse ({n1}, {n2}) -> {self.inverse}")


def parametrize(form: TernaryForm, point: ProjPoint2) -> ParametrizationMap:
    """Parametrize a smooth conic by lines through `point`.

    Chart selection order W, Z, Y (first with a nonzero coordinate of the
    base point).  Both defining identities are verified symbolically before
    returning: the form vanishes on the forward map, and the inverse
    composed with the forward map is the parameter.
    """
    if not form.is_smooth():
        raise DegenerateConicError("the form is not a smooth conic")
    if not form.is_point(point):
        raise XratioError("base point does not lie on the conic")
    chart = next((c for c in _CHART_ORDER
                  if not point.coords[_COORD_INDEX[c]].is_zero()), None)
    iu, iv, ic = _CHART_ROLES[chart]
    names = ("Y", "Z", "W")
    base = form.ring

    u0 = point.coords[iu] / point.coords[ic]
    v0 = point.coords[iv] / point.coords[ic]
    cUU = form.coeff(names[iu], names[iu])
    cVV = form.coeff(names[iv], names[iv])
    cCC = form.coeff(names[ic], names[ic])
    cUV = form.coeff(names[iu], names[iv])
    cUC = form.coeff(names[iu], names[ic])
    cVC = form.coeff(names[iv], names[ic])

    pring = Ring(base.field, base.variables + ("s",))
    s = rvar(pring, "s")
    em = lambda f: f.embed(pring)
    u0e, v0e = em(u0), em(v0)
    # second-intersection data for the line (u, v) = (u0 + r, v0 + s r)
    P = (em(cUU) * 2 * u0e + em(cUV) * v0e + em(cUC)
         + s * (em(cVV) * 2 * v0e + em(cUV) * u0e + em(cVC)))
    Q = em(cUU) + em(cUV) * s + em(cVV) * s * s
    if Q.is_zero():
        raise DegenerateConicError("pencil quadratic term vanishes identically")
    if P.is_zero():
        raise DegenerateConicError("base point is singular on the conic")

    Fu = u0e * Q - P
    Fv = v0e * Q - s * P
    Fc = Q
    forward = [None, None, None]
    forward[iu], forward[iv], forward[ic] = _strip_monomial_content(
        _clear_denominators([Fu, Fv, Fc]))

    on_conic = form.eval_at(rat(pring, forward[0]), rat(pring, forward[1]),
                            rat(pring, forward[2]), pring)
    if not on_conic.is_zero():
        raise VerificationError("forward map does not land on the conic")

    n1 = f"{names[iu]}_over_{chart}"
    n2 = f"{names[iv]}_over_{chart}"
    cring = Ring(base.field, base.variables + (n1, n2))
    uvar, vvar = rvar(cring, n1), rvar(cring, n2)
    inverse = (vvar - v0.embed(cring)) / (uvar - u0.embed(cring))

    fc = rat(pring, forward[ic])
    subst = {n1: rat(pring, forward[iu]) / fc, n2: rat(pring, forward[iv]) / fc}
    if not (inverse.substitute(subst, pring) == s):
        raise VerificationError("inverse does not recover the parameter")

    return ParametrizationMap(form, point, chart, pring, forward,
                              cring, (n1, n2), inverse)
