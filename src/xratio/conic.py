"""Ternary quadratic forms over k(x): points, isotropy, parametrization.

A :class:`TernaryForm` is a quadratic form in coordinates (Y, Z, W) with six
coefficients in the polynomial ring k[x], and a :class:`ProjPoint2` is a
polynomial triple.  Nothing is lost over k(x): scaling a form by a nonzero
element keeps its conic, and every k(x)-point scales to a polynomial triple.
Two families matter here:

* odd/zero characteristic:  Y^2 - x*Z^2 - x*W^2
* characteristic 2:         Z^2 + Z*W + Y*W + x*W^2

For the first family the existence of a k(x)-point is decided exactly:
if the field has a square root s of -1 then (0 : s : 1) is a point; if it
has none, the x = 0 valuation argument shows there is no point at all, and
:func:`valuation_obstruction` replays that argument mechanically at every
degree: one identity mod x^2 in which each coordinate's tail past its first
coefficients is an opaque variable (plus Euler's criterion, one payload
power ``raw_pow`` in F_q, that b^2 + c^2 = 0 has no nonzero solution).
:func:`known_point` names the point of each family the other routes start
from.

:func:`bounded_point_search` is the independent cross-check: exhaustive
enumeration of polynomial coordinate triples up to a degree bound, in a
deterministic order (coordinate precedence W, Z, Y, matching the chart
preference of :func:`parametrize`, and polynomials ordered radix-style with
the constant coefficient fastest).  It walks the (W, Z) pairs in that order
and finds the least matching Y by exact table lookup instead of a third
loop; every table holds every Y, so the search is still exhaustive, with
O(n^2) lookups for n polynomials per coordinate instead of O(n^3) sums.  It
works on raw coefficient payloads (:mod:`.fields`), reduced once per compared
value, and builds the point it returns from those payloads too.

:func:`parametrize` builds the standard line-pencil parametrization through
a given point, homogeneously in k[x, s], and verifies, symbolically and
before returning, that the forward map lands on the conic and that the
inverse (the one rational map here) recovers the parameter.
"""

from __future__ import annotations

from itertools import product

from .fields import Field, XratioError
from .poly import MultiPoly, Ring, as_poly, strip_monomial_content
from .ratfunc import CharacteristicError, RatFunc, rat


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
    point with polynomial entries."""
    dens = [f.den for f in rfs]
    out = []
    for k, f in enumerate(rfs):
        p = f.num
        for j, d in enumerate(dens):
            if j != k:
                p = p * d
        out.append(p)
    return out


class ProjPoint2:
    """Point of P^2 over k(x): a nonzero triple of polynomials in k[x].
    Rational input is scaled by its denominators (the same point)."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: Ring, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise XratioError("a plane point needs exactly 3 coordinates")
        if any(isinstance(c, RatFunc) for c in coords):
            coords = _clear_denominators([rat(ring, c) for c in coords])
        coords = tuple(as_poly(ring, c, "a point coordinate") for c in coords)
        if all(c.is_zero() for c in coords):
            raise XratioError("(0 : 0 : 0) is not a projective point")
        self.ring = ring
        self.coords = coords

    def __str__(self):
        return "(" + " : ".join(str(x) for x in self.coords) + ")"

    __repr__ = __str__


class TernaryForm:
    """Quadratic form c_YY Y^2 + c_ZZ Z^2 + c_WW W^2 + c_YZ YZ + c_YW YW + c_ZW ZW.

    Coefficients are ints, scalars or polynomials of `ring` (k[x]).  A
    rational one is refused; scaling by its denominator keeps the conic.  A
    cross term may be keyed in either order, ("Z", "Y") for ("Y", "Z"); an
    unknown key or a pair given in both orders is refused."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: dict):
        given = {}
        for key, c in coeffs.items():
            pair = key[::-1] if isinstance(key, tuple) and key not in _PAIRS else key
            if pair not in _PAIRS:
                raise XratioError(f"unknown coefficient key {key!r}: "
                                  "expected a pair of 'Y', 'Z', 'W'")
            if pair in given:
                raise XratioError(f"coefficient key {key!r} is also given as {pair!r}")
            given[pair] = c
        self.ring = ring
        self.coeffs = {pair: as_poly(ring, given.get(pair, 0), "coefficient " + "".join(pair))
                       for pair in _PAIRS}

    def coeff(self, a: str, b: str) -> MultiPoly:
        key = (a, b) if (a, b) in self.coeffs else (b, a)
        return self.coeffs[key]

    def eval_at(self, Y, Z, W, target_ring: Ring) -> MultiPoly:
        """Plug in coordinates: ints, scalars or polynomials of
        `target_ring`, a ring containing this form's variables (a polynomial
        of another ring raises RingMismatchError).  Every raw product c*A*B
        is summed into one dict, reduced once per monomial at the end."""
        ring = target_ring
        vals = {n: as_poly(ring, v, "a coordinate").terms for n, v in zip("YZW", (Y, Z, W))}
        acc = {}
        for (a, b), c in self.coeffs.items():
            if c.terms:
                ca = ring.accumulate_product({}, c.embed(ring).terms, vals[a])
                ring.accumulate_product(acc, ca, vals[b])
        return MultiPoly(ring, ring.canonical(acc))

    def is_point(self, p: ProjPoint2) -> bool:
        return self.eval_at(*p.coords, p.ring).is_zero()

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
        det = 2 * a * (4 * b * c - f * f) - d * (2 * d * c - f * e) + e * (d * f - 2 * b * e)
        return not det.is_zero()

    def __str__(self):
        parts = []
        for (a, b), c in self.coeffs.items():
            if c.is_zero():
                continue
            mono = f"{a}^2" if a == b else f"{a}*{b}"
            if c == 1:
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def base_ring(field: Field) -> Ring:
    """k[x]."""
    return Ring(field, ("x",))


def standard_form(field: Field) -> TernaryForm:
    """Y^2 - x*Z^2 - x*W^2 over k(x); demands characteristic != 2."""
    if field.characteristic == 2:
        raise CharacteristicError("this family lives in characteristic != 2")
    ring = base_ring(field)
    x = ring.var("x")
    return TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Z"): -x, ("W", "W"): -x})


def char2_form(field: Field) -> TernaryForm:
    """Z^2 + Z*W + Y*W + x*W^2 over k(x); demands characteristic 2."""
    if field.characteristic != 2:
        raise CharacteristicError("this family lives in characteristic 2")
    ring = base_ring(field)
    return TernaryForm(ring, {("Z", "Z"): 1, ("Z", "W"): 1,
                              ("Y", "W"): 1, ("W", "W"): ring.var("x")})


def criterion_form(field: Field) -> TernaryForm:
    return char2_form(field) if field.characteristic == 2 else standard_form(field)


def known_point(field: Field):
    """The criterion form with its known point, or None: (x : 1 : 1) in
    characteristic 2, (0 : s : 1) for a square root s of -1 otherwise."""
    if field.characteristic == 2:
        form = char2_form(field)
        return form, ProjPoint2(form.ring, (form.ring.var("x"), 1, 1))
    s = field.sqrt_minus_one()
    if s is None:
        return None
    form = standard_form(field)
    return form, ProjPoint2(form.ring, (0, s, 1))


# -- isotropy decision ------------------------------------------------------


class ObstructionStep:
    __slots__ = ("description", "method", "verified")

    def __init__(self, description, method, verified):
        self.description, self.method, self.verified = description, method, verified


class ObstructionRecord:
    __slots__ = ("field_name", "steps")

    def __init__(self, field_name, steps=None):
        self.field_name, self.steps = field_name, [] if steps is None else steps

    @property
    def verified(self) -> bool:
        return bool(self.steps) and all(s.verified for s in self.steps)

    def render(self) -> str:
        lines = [f"valuation obstruction at x = 0 over {self.field_name}, "
                 "polynomial coordinates of every degree:"]
        for k, s in enumerate(self.steps, start=1):
            flag = "ok" if s.verified else "FAILED"
            lines.append(f"  {k}. [{flag}] {s.description}  [{s.method}]")
        return "\n".join(lines)


class IsotropyDecision:
    __slots__ = ("field_name", "isotropic", "witness", "obstruction")

    def __init__(self, field_name, isotropic, witness=None, obstruction=None):
        self.field_name, self.isotropic = field_name, isotropic
        self.witness, self.obstruction = witness, obstruction

    def render(self) -> str:
        if self.isotropic:
            return f"isotropic over {self.field_name}(x): witness {self.witness}"
        return f"anisotropic over {self.field_name}(x)\n{self.obstruction.render()}"


def tail_remainder(field: Field) -> MultiPoly:
    """E - A0^2 - x(2 A0 A1 - B0^2 - C0^2) for E the standard form at (A : B : C)
    with A = A0 + A1 x + x^2 Ar, B = B0 + x Br, C = C0 + x Cr; the opaque
    tails Ar, Br, Cr stand for any polynomials in x."""
    ring = Ring(field, ("x", "A0", "A1", "Ar", "B0", "Br", "C0", "Cr"))
    x, a0, a1, ar, b0, br, c0, cr = ring.vars()
    A, B, C = a0 + a1 * x + x * x * ar, b0 + x * br, c0 + x * cr
    E = standard_form(field).eval_at(A, B, C, ring)
    return E - a0 * a0 - x * (2 * a0 * a1 - b0 * b0 - c0 * c0)


def valuation_obstruction(field: Field) -> ObstructionRecord:
    """Mechanical replay of the x = 0 argument against A^2 = x(B^2 + C^2).

    Steps 1 and 2 rest on one identity: every monomial of
    :func:`tail_remainder` has x-degree >= 2.  Divisibility by x^2 survives
    substituting polynomials in x for the tails, so the steps hold for every
    polynomial triple at once.  Step 4 over F_q is Euler's criterion, one
    power apart from ``sqrt_minus_one``.  Requires a field with no square
    root of -1 and characteristic != 2 (else the argument does not apply).
    """
    if field.characteristic == 2:
        raise CharacteristicError("the x = 0 argument needs characteristic != 2")
    if field.sqrt_minus_one() is not None:
        raise XratioError(f"{field.name} has a square root of -1; "
                          "the form is isotropic and there is no obstruction")
    identity = all(e[0] >= 2 for e in tail_remainder(field).terms)
    method = "identity mod x^2 with opaque tails"
    rec = ObstructionRecord(field.name)
    rec.steps.append(ObstructionStep(
        "the constant x-coefficient of A^2 - x(B^2+C^2) is A0^2, so a zero "
        "of the form forces A(0) = 0", method, identity))
    rec.steps.append(ObstructionStep(
        "with A(0) = 0 the x^1 coefficient is -(B0^2 + C0^2), so "
        "B(0)^2 + C(0)^2 = 0 is forced", method, identity))

    rec.steps.append(ObstructionStep(
        "a triple may be taken with (A(0), B(0), C(0)) != (0,0,0) after "
        "cancelling common x powers; A(0) = 0 then leaves (B(0), C(0)) != (0,0)",
        "bookkeeping on a minimal counterexample", True))

    if field.is_finite:
        minus_one = field.reduce(field.raw_neg(field.raw_one))
        ok = field.raw_pow(minus_one, (field.order - 1) // 2) == minus_one
        rec.steps.append(ObstructionStep(
            "b^2 + c^2 = 0 has no solution with (b, c) != (0, 0); such a "
            "solution would make b/c a square root of -1, i.e. a primitive "
            "4th root of unity",
            f"Euler's criterion in {field.name}: (-1)^((q-1)/2) = -1", ok))
    else:
        ok = field.sqrt_minus_one() is None
        rec.steps.append(ObstructionStep(
            "b^2 + c^2 = 0 with (b, c) != (0, 0) would force c != 0 and make "
            "b/c a square root of -1, i.e. a primitive 4th root of unity; "
            "the field has none (equivalently, a sum of two rational squares "
            "is positive unless both vanish)",
            "square-root-of-minus-one test", ok))
    return rec


def decide_isotropy(field: Field) -> IsotropyDecision:
    """Exact decision for Y^2 - x*Z^2 - x*W^2 over k(x), char != 2.

    Isotropic iff the coefficient field has a square root of -1; the witness
    (0 : s : 1) from :func:`known_point` is re-verified by evaluation, and the
    anisotropic branch carries a fully verified ObstructionRecord.
    """
    if field.characteristic == 2:
        raise CharacteristicError("this family lives in characteristic != 2")
    known = known_point(field)
    if known is not None:
        form, witness = known
        if not form.is_point(witness):
            raise VerificationError("witness construction failed to land on the conic")
        return IsotropyDecision(field.name, True, witness=witness)
    rec = valuation_obstruction(field)
    if not rec.verified:
        k, step = next((k, s) for k, s in enumerate(rec.steps, start=1) if not s.verified)
        raise VerificationError(f"obstruction replay over {field.name} failed at step {k}, "
                                f"{step.description.split(';')[0]}  [{step.method}]")
    return IsotropyDecision(field.name, False, obstruction=rec)


# -- exhaustive bounded search ---------------------------------------------


def searchable_degree(field: Field, degree_bound: int) -> int:
    """The largest d <= degree_bound whose (q^(d+1))^3 candidate triples fit
    the search budget, or -1 when none does."""
    d = -1
    while d < degree_bound and (field.order ** (d + 2)) ** 3 <= SEARCH_BUDGET:
        d += 1
    return d


def _digit_ops(p: int, digits: int):
    """(w, red, neg) for ints read as `digits` digits of w = p.bit_length() + 2
    bits each, the lowest first: ``red`` takes every digit below 2p mod p,
    ``neg`` negates every digit below p mod p.  A digit below 2p < 2^(w-1)
    never reaches the next one, so the sum of two reduced ints is a valid
    input of ``red``; each call costs one add, mask, shift, multiply and
    subtract on the whole int."""
    w = p.bit_length() + 2
    ones = sum(1 << w * k for k in range(digits))
    bias, high, p_all = ((1 << w - 1) - p) * ones, ones << w - 1, p * ones

    def red(v):
        # digit x + 2^(w-1) - p has bit w - 1 set exactly when x >= p
        return v - (((v + bias) & high) >> w - 1) * p

    def neg(v):
        return red(p_all - v)

    return w, red, neg


class _PackedPolys:
    """Every polynomial over F_q of degree <= d, and reduced coefficient
    vectors packed into ints (SIMD within a register): coefficient k sits at
    bit k * width, one digit of w bits per F_p residue and two (re, im) per
    F_p(i) pair, as ``_digit_ops`` reads them.  Two packed vectors add with
    one int add and ``red``; a shift by ``width`` multiplies by x.

    ``polys`` lists the coefficient tuples radix-style, constant coefficient
    fastest, so polys[i] = y0 + x Y' with y0 = elems[i % q] and Y' =
    polys[i // q], an earlier entry: v Y and v Y^2 for every Y are then one
    pass in index order, one or two packed adds each.  `length` bounds the
    number of coefficients of every packed vector."""

    __slots__ = ("field", "elems", "polys", "w", "width", "red", "neg", "gauss")

    def __init__(self, field: Field, d: int, length: int):
        self.field = field
        self.elems = [e.v for e in field.elements()]
        self.polys = [tuple(reversed(t)) for t in product(self.elems, repeat=d + 1)]
        self.gauss = field.order != field.characteristic
        per = 2 if self.gauss else 1
        self.w, self.red, self.neg = _digit_ops(field.characteristic, length * per)
        self.width = per * self.w

    def pack(self, a) -> int:
        """A vector of raw payloads, reduced and packed."""
        reduce, w, width, gauss = self.field.reduce, self.w, self.width, self.gauss
        out = 0
        for c in reversed(a):
            c = reduce(c)
            out = out << width | (c[1] << w | c[0] if gauss else c)
        return out

    def unpack(self, v: int) -> list:
        """The canonical payloads of a packed vector, trailing zeros dropped."""
        w, width, gauss = self.w, self.width, self.gauss
        mask, out = (1 << w) - 1, []
        while v:
            out.append((v & mask, v >> w & mask) if gauss else v & mask)
            v >>= width
        return out

    def times_all(self, v, count=None) -> list:
        """v * polys[i] packed, for i < count (default all): v y0 + x (v Y')."""
        field, elems, red, width = self.field, self.elems, self.red, self.width
        count = len(self.polys) if count is None else count
        out = [0] * count
        if any(c != field.raw_zero for c in v):
            q, mul = field.order, field.raw_mul
            scaled = [self.pack([mul(c, y) for c in v]) for y in elems[:count]]
            for i in range(1, count):
                out[i] = red(scaled[i % q] + (out[i // q] << width))
        return out

    def times_squares(self, v) -> list:
        """v * polys[i]^2 packed, for every i: v y0^2 for the q constants, then
        v y0^2 + x (2 y0 v Y') + x^2 (v Y'^2)."""
        field, elems, red, width = self.field, self.elems, self.red, self.width
        q, n, mul = field.order, len(self.polys), field.raw_mul
        out = [self.pack([mul(c, mul(y, y)) for c in v]) for y in elems]
        if n > q:
            two = field.int_payload(2)
            cross = [self.times_all([mul(c, mul(two, y)) for c in v], n // q) for y in elems]
            for i in range(q, n):
                y, j = i % q, i // q
                out.append(red(red(out[y] + (cross[y][j] << width)) + (out[j] << 2 * width)))
        return out


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
    when the (W, Z) part vanishes on its own and (W, Z) != (0, 0).  With
    c_YZ = 0, L depends on W alone, so its table is fetched once per W.

    Every compared value is a reduced coefficient vector packed into one int
    (:class:`_PackedPolys`), which is its own exact, hashable key: the
    squares and the linear parts c_YZ Z and c_YW W are built once, c_ZW Z W
    once per W and L Y once per table, all outside the (W, Z) loop, which
    adds and reduces whole vectors in a few int operations.
    """
    field = form.ring.field
    if not field.is_finite:
        raise XratioError("exhaustive search needs a finite coefficient field")
    if len(form.ring.variables) != 1:
        raise XratioError("search expects a univariate coefficient ring")
    if degree_bound < 0:
        raise XratioError(f"degree bound must be >= 0, got {degree_bound}")
    if searchable_degree(field, degree_bound) < degree_bound:
        raise SearchBudgetError(f"{field.order}^{3 * (degree_bound + 1)} candidate "
                                f"triples exceed the budget {SEARCH_BUDGET}")
    maxdeg = max(0, *(p.total_degree() for p in form.coeffs.values()))
    cl = {pair: [p.terms.get((k,), field.raw_zero) for k in range(maxdeg + 1)]
          for pair, p in form.coeffs.items()}
    packed = _PackedPolys(field, degree_bound, maxdeg + 2 * degree_bound + 1)
    polys, red, neg = packed.polys, packed.red, packed.neg
    n_polys = len(polys)
    tY, tZ, tW = (packed.times_squares(cl[(c, c)]) for c in "YZW")
    lYZ, lYW, lZW = (packed.times_all(cl[pair]) for pair in _PAIRS[3:])
    tables = {}

    def y_table(lin):
        """-(c_YY Y^2 + lin Y) -> least Y index >= 1 reaching it."""
        table = tables.get(lin)
        if table is None:
            if len(tables) >= n_polys:  # memory stays at n tables of n entries
                tables.clear()
            ly = packed.times_all(packed.unpack(lin))
            # the least index is written last, so it wins a shared key
            table = tables[lin] = {neg(red(tY[iy] + ly[iy])): iy
                                   for iy in range(n_polys - 1, 0, -1)}
        return table

    yz = lYZ if any(lYZ) else None  # without it, L = c_YW W is fixed per W
    rng_ = range(n_polys)
    for iw in rng_:
        tw, lw = tW[iw], lYW[iw]
        table = None if yz else y_table(lw)
        zw = packed.times_all(packed.unpack(lZW[iw])) if lZW[iw] else None
        for iz in rng_:
            rest = red(tw + tZ[iz])
            if zw is not None:
                rest = red(rest + zw[iz])
            if not rest and (iz or iw):
                iy = 0
            else:
                iy = (y_table(red(yz[iz] + lw)) if table is None else table).get(rest)
            if iy is not None:
                return ProjPoint2(form.ring, [MultiPoly(form.ring, {
                    (k,): c for k, c in enumerate(polys[idx]) if c != field.raw_zero})
                    for idx in (iy, iz, iw)])
    return None


# -- parametrization --------------------------------------------------------


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
        """Specialize s (the last slot of `param_ring`) to an int or a field
        element: each term's payload times value^k, its s slot dropped, in
        one pass over each forward polynomial.  A scalar of another field
        raises FieldMismatchError; a zero image raises DegenerateConicError."""
        base = self.form.ring
        field, add, mul = base.field, base.field.raw_add, base.field.raw_mul
        value = field.payload(value)
        powers = [field.raw_one]
        for _ in range(max((e[-1] for p in self.forward for e in p.terms), default=0)):
            powers.append(field.reduce(mul(powers[-1], value)))
        coords = []
        for p in self.forward:
            acc = {}
            for e, c in p.terms.items():
                e, t = e[:-1], mul(c, powers[e[-1]])
                acc[e] = add(acc[e], t) if e in acc else t
            coords.append(MultiPoly(base, base.canonical(acc)))
        if all(c.is_zero() for c in coords):
            raise DegenerateConicError(
                f"parameter {field.render(value)} hits the degenerate fiber")
        return ProjPoint2(base, coords)

    def describe(self) -> str:
        fy, fz, fw = self.forward
        n1, n2 = self.affine_names
        return (f"chart {self.chart}; forward s -> ({fy} : {fz} : {fw}); "
                f"inverse ({n1}, {n2}) -> {self.inverse}")


def parametrize(form: TernaryForm, point: ProjPoint2) -> ParametrizationMap:
    """Parametrize a smooth conic q by lines through `point` P.

    The chart coordinate C is the first of W, Z, Y where P is nonzero; U, V
    are the other two.  Since q(P + tD) = q(P) + t B(P, D) + t^2 q(D) with
    q(P) = 0 and B(P, D) = q(P + D) - q(P) - q(D) the polar form, the line
    through P in direction D = (1, s, 0) in (U, V, C) coordinates meets the
    conic again at q(D) P - B(P, D) D: the forward map, in k[x, s], with its
    shared monomial content stripped.  The inverse sends the chart point
    (u, v) = (U/C, V/C) to the slope (pC v - pV)/(pC u - pU).  Both identities
    are verified symbolically before returning: the form vanishes on the
    forward map, and the inverse composed with the forward map is s.
    """
    if not form.is_smooth():
        raise DegenerateConicError("the form is not a smooth conic")
    if not form.is_point(point):
        raise XratioError("base point does not lie on the conic")
    ic = next(k for k in (2, 1, 0) if not point.coords[k].is_zero())
    iu, iv = (k for k in range(3) if k != ic)
    chart, base = "YZW"[ic], form.ring

    pring = Ring(base.field, base.variables + ("s",))
    P = [c.embed(pring) for c in point.coords]
    D = [0, 0, 0]
    D[iu], D[iv] = 1, pring.var("s")
    qD = form.eval_at(*D, pring)
    if qD.is_zero():
        raise DegenerateConicError("pencil quadratic term vanishes identically")
    B = form.eval_at(*(p + d for p, d in zip(P, D)), pring) - qD  # q(P) = 0
    if B.is_zero():
        raise DegenerateConicError("base point is singular on the conic")
    forward = strip_monomial_content([qD * p - B * d for p, d in zip(P, D)])
    if not form.eval_at(*forward, pring).is_zero():
        raise VerificationError("forward map does not land on the conic")

    n1, n2 = (f"{'YZW'[k]}_over_{chart}" for k in (iu, iv))
    cring = Ring(base.field, base.variables + (n1, n2))
    pu, pv, pc = (point.coords[k].embed(cring) for k in (iu, iv, ic))
    inverse = RatFunc(cring, pc * cring.var(n2) - pv, pc * cring.var(n1) - pu)

    subst = {n1: RatFunc(pring, forward[iu], forward[ic]),
             n2: RatFunc(pring, forward[iv], forward[ic])}
    if not (inverse.substitute(subst, pring) == pring.var("s")):
        raise VerificationError("inverse does not recover the parameter")

    return ParametrizationMap(form, point, chart, pring, forward,
                              cring, (n1, n2), inverse)
