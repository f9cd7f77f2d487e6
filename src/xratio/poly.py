"""Sparse multivariate polynomials over an exact field.

A :class:`Ring` fixes the coefficient field and an ordered tuple of variable
names.  A :class:`MultiPoly` maps exponent tuples to nonzero, canonical
coefficient *payloads* (the raw values of :mod:`.fields`: int residues for
F_p, ``Fraction`` for Q, pairs for Q(i)/F_p(i)); the zero polynomial is the
empty map, so structural equality of the maps is mathematical equality.
Arithmetic sums raw products with the field's payload ops and reduces once
per output monomial.  :class:`FieldElement` appears only at the edges:
``Ring.const``/``Ring.poly`` take ints or elements of the ring's own field
(another field raises :class:`FieldMismatchError`), and ``eval``,
``constant_value``, ``leading`` and ``coefficients`` return elements.
:func:`substitute_cleared` is the one substitution loop, shared with
:mod:`.ratfunc`.  The canonical term order (serialization, leading term) is
graded lexicographic: higher total degree first, then lexicographic on the
exponent tuple in ring variable order.

Polynomials are immutable by convention: operations build fresh term maps.
Operands must share a ring; mixing rings raises :class:`RingMismatchError`.
"""

from __future__ import annotations

from operator import add as _iadd, sub as _isub

from .fields import Field, FieldElement, FieldMismatchError, XratioError


class RingMismatchError(XratioError):
    pass


class Ring:
    """Polynomial ring context k[v1, ..., vn]."""

    __slots__ = ("field", "variables", "_index")

    def __init__(self, field: Field, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise XratioError(f"duplicate ring variables: {variables}")
        self.field = field
        self.variables = variables
        self._index = {v: k for k, v in enumerate(variables)}

    def var(self, name: str) -> "MultiPoly":
        k = self._index.get(name)
        if k is None:
            raise XratioError(f"{name!r} is not a variable of {self!r}")
        e = [0] * len(self.variables)
        e[k] = 1
        return MultiPoly(self, {tuple(e): self.field.raw_one})

    def vars(self):
        return tuple(self.var(v) for v in self.variables)

    def const(self, c) -> "MultiPoly":
        return self.poly({(0,) * len(self.variables): c})

    @property
    def zero(self):
        return MultiPoly(self, {})

    @property
    def one(self):
        return self.const(1)

    def poly(self, terms: dict) -> "MultiPoly":
        """Polynomial from {exponents: int or element of this field}; zeros dropped."""
        field, out = self.field, {}
        for e, c in terms.items():
            if isinstance(c, int):
                c = field.from_int(c)
            elif not (isinstance(c, FieldElement) and c.field == field):
                raise FieldMismatchError(f"{c!r} is not a scalar of {field.name}")
            if not c.is_zero():
                out[tuple(e)] = c.v
        return MultiPoly(self, out)

    def __eq__(self, other):
        return other is self or (isinstance(other, Ring) and other.field == self.field
                                 and other.variables == self.variables)

    def __hash__(self):
        return hash((self.field.name, self.variables))

    def __repr__(self):
        return f"Ring({self.field.name}[{', '.join(self.variables)}])"


def grlex_key(exps):
    return (sum(exps), exps)


def _canonical(field, raw: dict) -> dict:
    """Reduce each accumulated payload once and drop the zeros."""
    zero = field.raw_zero
    return {e: c for e, c in zip(raw, map(field.reduce, raw.values())) if c != zero}


class MultiPoly:
    """Sparse polynomial: {exponent tuple -> nonzero coefficient payload}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingMismatchError(f"mixed rings: {self.ring!r} vs {other.ring!r}")
            return other
        if isinstance(other, (int, FieldElement)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        add = self.ring.field.raw_add
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = add(out[e], c) if e in out else c
        return MultiPoly(self.ring, _canonical(self.ring.field, out))

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        reduce, neg = field.reduce, field.raw_neg
        return MultiPoly(self.ring, {e: reduce(neg(c)) for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        field = self.ring.field
        add, mul = field.raw_add, field.raw_mul
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(_iadd, e1, e2))
                s = get(e)
                out[e] = mul(c1, c2) if s is None else add(s, mul(c1, c2))
        return MultiPoly(self.ring, _canonical(field, out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise XratioError("polynomial powers take nonnegative int exponents")
        out, base, k = None, self, n
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.ring.one if out is None else out

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement)):
            if isinstance(other, FieldElement) and other.field != self.ring.field:
                return False
            other = self.ring.const(other)
        return (isinstance(other, MultiPoly) and other.ring == self.ring
                and other.terms == self.terms)

    __hash__ = None

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise XratioError("polynomial is not constant")
        field = self.ring.field
        zero_exp = (0,) * len(self.ring.variables)
        return FieldElement(field, self.terms.get(zero_exp, field.raw_zero))

    def total_degree(self):
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str):
        k = self.ring._index[name]
        return max((e[k] for e in self.terms), default=0)

    def degrees(self) -> tuple:
        """Per-variable degrees, in ring variable order."""
        return tuple(map(max, zip(*self.terms))) or (0,) * len(self.ring.variables)

    def coefficients(self):
        """(exponents, FieldElement) for every term."""
        field = self.ring.field
        return [(e, FieldElement(field, c)) for e, c in self.terms.items()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise XratioError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, FieldElement(self.ring.field, self.terms[e])

    def coefficient_of(self, name: str, k: int) -> "MultiPoly":
        """Collect terms with exponent k in `name`, that variable dropped to 0."""
        i = self.ring._index[name]
        # distinct terms differ outside position i, so nothing collides
        return MultiPoly(self.ring, {e[:i] + (0,) + e[i + 1:]: c
                                     for e, c in self.terms.items() if e[i] == k})

    def monomial_content(self):
        """Per-variable min exponents over all terms (zero tuple for 0)."""
        if not self.terms:
            return (0,) * len(self.ring.variables)
        return tuple(map(min, zip(*self.terms)))

    def divide_monomial(self, mono):
        """Exact division by a monomial exponent tuple."""
        out = {tuple(map(_isub, e, mono)): c for e, c in self.terms.items()}
        if any(x < 0 for e in out for x in e):
            raise XratioError("monomial does not divide every term")
        return MultiPoly(self.ring, out)

    # -- maps ---------------------------------------------------------------

    def substitute(self, assignment: dict, target_ring: Ring = None) -> "MultiPoly":
        """Ring map v -> assignment[v]; unassigned variables that actually
        occur must exist by name in the target ring (default: this ring)."""
        target = target_ring or self.ring
        if target.field != self.ring.field:
            raise RingMismatchError("substitution cannot change the coefficient field")
        for key in assignment:
            if key not in self.ring._index:
                raise XratioError(f"{key!r} is not a variable of {self.ring!r}")
        images = {}
        for name, deg in zip(self.ring.variables, self.degrees()):
            img = assignment.get(name)
            if img is None:
                if not deg:
                    continue
                img = target.var(name)  # raises if absent from target
            elif isinstance(img, (int, FieldElement)):
                img = target.const(img)
            elif img.ring != target:
                raise RingMismatchError(f"image of {name!r} lives in the wrong ring")
            images[name] = (img, None)
        return substitute_cleared((self,), images, target)[0][0]

    def eval(self, point: dict) -> FieldElement:
        """Total evaluation; `point` maps every variable to a field element."""
        field = self.ring.field
        vals = []
        for name in self.ring.variables:
            v = point[name]
            if isinstance(v, int):
                v = field.from_int(v)
            vals.append(v)
        acc = field.zero
        for e, c in self.coefficients():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t = t * v ** k
            acc = acc + t
        return acc

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative; exponent multiples reduce mod char."""
        idx = self.ring._index[name]
        field = self.ring.field
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                out[e[:idx] + (k - 1,) + e[idx + 1:]] = field.raw_mul(c, field.from_int(k).v)
        return MultiPoly(self.ring, _canonical(field, out))

    def embed(self, target_ring: Ring) -> "MultiPoly":
        """Rename-free embedding into a ring containing these variables."""
        return self.substitute({}, target_ring)

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        parts = []
        for e, c in self.sorted_terms():
            neg = _display_negative(field, c)
            if neg:
                c = field.reduce(field.raw_neg(c))
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
            if not mono:
                body = _wrap_scalar(field.render(c))
            elif c == field.raw_one:
                body = mono
            else:
                body = f"{_wrap_scalar(field.render(c))}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


def substitute_cleared(polys, images: dict, target: Ring) -> list:
    """Each p in `polys` with v -> n_v/d_v, denominators cleared: [(N, D)].

    `images` maps every variable occurring in the polys to (n_v, d_v) in the
    target ring, d_v None (or one) for a polynomial image.  p(..) = N/D with
    D = prod d_v^deg_v(p), and each term is multiplied by d_v^(deg_v - e_v),
    so no rational arithmetic happens.  Each power n_v^k, d_v^r is built once
    per call, and each N accumulates its terms into one dict, reduced once per
    monomial at the end.
    """
    field = target.field
    add, mul = field.raw_add, field.raw_mul
    one = target.one
    powers = {}  # (variable, 0 for n_v / 1 for d_v) -> [base, base^2, ...]
    dens = {v: d is not None and not d == one for v, (_, d) in images.items()}

    def power(v, which, k):
        seq = powers.setdefault((v, which), [images[v][which]])
        while len(seq) < k:
            seq.append(seq[-1] * seq[0])
        return seq[k - 1]

    out = []
    for p in polys:
        names, degs = p.ring.variables, p.degrees()
        D = _product([power(v, 1, deg) for v, deg in zip(names, degs)
                      if deg and dens[v]], one)
        acc = {}
        for e, c in p.terms.items():
            factors = []
            for v, k, deg in zip(names, e, degs):
                if k:
                    factors.append(power(v, 0, k))
                if k < deg and dens[v]:
                    factors.append(power(v, 1, deg - k))
            for e2, c2 in _product(factors, one).terms.items():
                acc[e2] = add(acc[e2], mul(c, c2)) if e2 in acc else mul(c, c2)
        out.append((MultiPoly(target, _canonical(field, acc)), D))
    return out


def _product(factors, empty):
    out = None
    for f in factors:
        out = f if out is None else out * f
    return empty if out is None else out


def _display_negative(field, v) -> bool:
    name = field.name
    if name == "Q":
        return v < 0
    if name == "Q(i)":
        return v[0] < 0 or (v[0] == 0 and v[1] < 0)
    return False


def _wrap_scalar(s: str) -> str:
    # composite scalar renderings contain spaces ("1 + i"); keep them one factor
    return f"({s})" if " " in s else s
