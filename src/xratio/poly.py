"""Sparse multivariate polynomials over an exact field.

A :class:`Ring` fixes the coefficient field and an ordered tuple of variable
names.  A :class:`MultiPoly` maps exponent tuples to nonzero, canonical
coefficient *payloads* (the raw values of :mod:`.fields`: int residues for
F_p, an ``int`` or a non-integral ``Fraction`` for Q, pairs for Q(i)/F_p(i));
the zero polynomial is the empty map, so structural equality of the maps is
mathematical equality.
Arithmetic sums raw products and reduces once per output monomial; a
product by a single term needs no sums, since its shifted exponents stay
distinct.  The products run in kernels generated once per arity and payload
kind from the field's ``kernel`` snippets (:func:`_kernels`): each unpacks
the exponent tuples, writes the slot sums as one tuple display and the
payload product, sum and reduction inline, so a term pair costs no call.
Each :class:`Ring`, one per field and variable tuple, binds its kernels as
``Ring.product``, ``Ring.monomial_product``, ``Ring.accumulate_product``,
``Ring.accumulate_scaled`` and ``Ring.canonical``, which act on term dicts.
Exponents are unbounded ints.  :class:`FieldElement` appears only at the
edges: ``Ring.const``/``Ring.poly`` take ints or elements of the ring's own
field, through ``Field.payload`` (another field raises
:class:`FieldMismatchError`), and ``leading`` returns an element.
:func:`substitute_cleared` is the one substitution loop and image check,
shared with :mod:`.ratfunc` (:func:`as_poly`, shared with :mod:`.conic`,
coerces polynomial images); it clears each distinct image denominator once,
for all the variables sharing it and all the polynomials given, and gives
images only to the variables that occur.  Its products stay
:class:`MultiPoly` products, each started from its first
factor.  A renaming of the variables needs no products and is
:meth:`MultiPoly.permute`, which only reorders exponent tuples, as does an
embedding into a larger ring, :meth:`MultiPoly.embed`.  The
canonical term order (serialization, leading term) is graded lexicographic:
higher total degree first, then lexicographic on the exponent tuple in ring
variable order.

A :class:`MultiPoly` is never mutated, so an operation may return an operand
itself (a product by one, an embedding into the polynomial's own ring).
Operands must share a ring; mixing rings raises :class:`RingMismatchError`.
"""

from __future__ import annotations

from operator import itemgetter, sub as _isub

from .fields import Field, FieldElement, XratioError


class RingMismatchError(XratioError):
    pass


class Ring:
    """Polynomial ring context k[v1, ..., vn], one instance per field name (as
    fields compare by name) and variable tuple, so rings compare by identity."""

    __slots__ = ("field", "variables", "_index", "zero", "one", "product",
                 "monomial_product", "accumulate_product", "accumulate_scaled", "canonical")

    def __new__(cls, field: Field, variables):
        variables = tuple(variables)
        self = _RINGS.get((field.name, variables))
        if self is None:
            if len(set(variables)) != len(variables):
                raise XratioError(f"duplicate ring variables: {variables}")
            self = object.__new__(cls)
            self.field = field
            self.variables = variables
            self._index = {v: k for k, v in enumerate(variables)}
            (self.product, self.monomial_product, self.accumulate_product,
             self.accumulate_scaled, self.canonical) = _kernels(len(variables), field)
            # shared by every use: a MultiPoly is never mutated
            self.zero = MultiPoly(self, {})
            self.one = MultiPoly(self, {(0,) * len(variables): field.raw_one})
            _RINGS[field.name, variables] = self
        return self

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
        return self._poly({(0,) * len(self.variables): c})

    def poly(self, terms: dict) -> "MultiPoly":
        """Polynomial from {exponents: int or element of this field}; zeros
        dropped.  Each exponent tuple has one nonnegative int per variable."""
        n = len(self.variables)
        for e in terms:
            if len(e) != n or not all(type(k) is int and k >= 0 for k in e):
                raise XratioError(f"{tuple(e)!r} is not an exponent tuple of {self!r}")
        return self._poly(terms)

    def _poly(self, terms: dict) -> "MultiPoly":
        payload, zero, out = self.field.payload, self.field.raw_zero, {}
        for e, c in terms.items():
            c = payload(c)
            if c != zero:
                out[tuple(e)] = c
        return MultiPoly(self, out)

    def __repr__(self):
        return f"Ring({self.field.name}[{', '.join(self.variables)}])"


_FACTORIES = {}  # the field's kernel snippets, and (arity, snippets) -> kernel factory
_RINGS = {}  # (field name, variables) -> the one ring of that field and variable tuple


def _kernels(n: int, field: Field):
    """The kernel set of an n-variable ring over `field`, on term dicts:

    * ``product(P, Q)``: the canonical terms of P*Q;
    * ``monomial_product(P, f, c)``: the same for Q = {f: c}, with no sums;
    * ``accumulate_product(raw, P, Q)``: P*Q added into ``raw`` unreduced;
    * ``accumulate_scaled(raw, P, c)``: c*P added into ``raw`` unreduced;
    * ``canonical(raw)``: each payload reduced once, zeros dropped.

    The code is generated on the first request for its payload kind (fields
    with the same ``kernel`` snippets share it), the first three once more
    per arity, and each set closes over its field's characteristic ``p`` and
    canonical ``zero``.  Raw inputs are allowed wherever a term dict is read,
    as reduction commutes with sums and products.  Plain loops, not
    comprehensions: each comprehension is one more function to compile and
    to call."""
    snippets = field.kernel
    if snippets not in _FACTORIES or (n, snippets) not in _FACTORIES:
        _generate(n, snippets)
    env = field.characteristic, field.raw_zero
    return _FACTORIES[n, snippets](*env) + _FACTORIES[snippets](*env)


def _generate(n: int, snippets):
    mul, add, red = (f.format(*names) for f, names in
                     zip(snippets, (("c1", "c2"), ("s", "t"), ("t",))))
    canonical = f"""out = {{}}
        for e, t in raw.items():
            r = {red}
            if r != zero:
                out[e] = r
        return out"""
    if snippets not in _FACTORIES:
        _FACTORIES[snippets] = _compiled(f"""def make(p, zero):
    def accumulate_scaled(raw, P, c1):
        get = raw.get
        for e, c2 in P.items():
            t = {mul}
            s = get(e)
            raw[e] = t if s is None else {add}
        return raw

    def canonical(raw):
        {canonical}

    return accumulate_scaled, canonical""")
    if (n, snippets) not in _FACTORIES:
        a, b, sums = ("".join(f.format(k) for k in range(n))
                      for f in ("a{}, ", "b{}, ", "a{0} + b{0}, "))
        accumulate = f"""get = raw.get
        for [{a}], c1 in P.items():
            for [{b}], c2 in Q.items():
                e = ({sums})
                t = {mul}
                s = get(e)
                raw[e] = t if s is None else {add}"""
        _FACTORIES[n, snippets] = _compiled(f"""def make(p, zero):
    def product(P, Q):
        raw = {{}}
        {accumulate}
        {canonical}

    def monomial_product(P, f, c2):
        [{b}] = f
        out = {{}}
        for [{a}], c1 in P.items():
            t = {mul}
            out[({sums})] = {red}
        return out

    def accumulate_product(raw, P, Q):
        {accumulate}
        return raw

    return product, monomial_product, accumulate_product""")


def _compiled(source: str):
    """The function `make` that `source` defines."""
    namespace = {}
    exec(source, namespace)
    return namespace["make"]


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Sparse polynomial: {exponent tuple -> nonzero coefficient payload}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring:
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
        return MultiPoly(self.ring, self.ring.canonical(out))

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
        ring = self.ring
        p, m = (self, o) if len(o.terms) == 1 else (o, self)
        if len(m.terms) == 1:  # by a monomial: the shifted exponents stay distinct
            (e2, c2), = m.terms.items()
            if c2 == ring.field.raw_one and not any(e2):
                return p
            return MultiPoly(ring, ring.monomial_product(p.terms, e2, c2))
        return MultiPoly(ring, ring.product(self.terms, o.terms))

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
        elif not isinstance(other, MultiPoly):
            return NotImplemented  # lets a RatFunc on the right answer
        return other.ring is self.ring and other.terms == self.terms

    __hash__ = None

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str):
        k = self.ring._index[name]
        return max((e[k] for e in self.terms), default=0)

    def degrees(self) -> tuple:
        """Per-variable degrees, in ring variable order."""
        return tuple(map(max, zip(*self.terms))) or (0,) * len(self.ring.variables)

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
        """Ring map v -> assignment[v], each image an int, a scalar or a
        polynomial of the target ring (default: this ring); unassigned
        variables that actually occur must exist by name in the target ring."""
        target = target_ring or self.ring
        return substitute_cleared((self,), assignment, target,
                                  lambda g: (as_poly(target, g, "an image"), target.one))[0]

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative; exponent multiples reduce mod char."""
        idx = self.ring._index[name]
        field = self.ring.field
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                out[e[:idx] + (k - 1,) + e[idx + 1:]] = field.raw_mul(c, field.int_payload(k))
        return MultiPoly(self.ring, self.ring.canonical(out))

    def permute(self, src) -> "MultiPoly":
        """Rename the variables: slot j of each exponent tuple is taken from
        slot src[j].  `src` is a permutation of the slots, so distinct terms
        stay distinct and every coefficient is kept as it is."""
        if all(i == j for j, i in enumerate(src)):
            return self
        pick = itemgetter(*src)  # at least two slots here, so pick returns tuples
        return MultiPoly(self.ring, {pick(e): c for e, c in self.terms.items()})

    def embed(self, target_ring: Ring) -> "MultiPoly":
        """Rename-free embedding into a ring that has every variable occurring
        here: target slot j takes the slot of the same name, or 0.  Like
        :meth:`permute`, it keeps every coefficient and forms no products."""
        if target_ring is self.ring:
            return self
        if target_ring.field != self.ring.field:
            raise RingMismatchError("substitution cannot change the coefficient field")
        for name, deg in zip(self.ring.variables, self.degrees()):
            if deg and name not in target_ring._index:
                raise XratioError(f"{name!r} is not a variable of {target_ring!r}")
        zero = len(self.ring.variables)  # the slot of a 0 appended to each tuple
        src = [self.ring._index.get(name, zero) for name in target_ring.variables]
        return MultiPoly(target_ring, {tuple(map((e + (0,)).__getitem__, src)): c
                                       for e, c in self.terms.items()})

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        parts = []
        for e, c in self.sorted_terms():
            neg = field.shows_negative(c)
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


def strip_monomial_content(polys) -> list:
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


def as_poly(ring: Ring, c, what: str) -> MultiPoly:
    """An int, a scalar or a polynomial of `ring`, as a polynomial of `ring`;
    else RingMismatchError (another ring's polynomial) or XratioError."""
    if isinstance(c, MultiPoly) and c.ring is ring:
        return c
    if isinstance(c, (int, FieldElement)):
        return ring.const(c)
    error = RingMismatchError if isinstance(c, MultiPoly) else XratioError
    raise error(f"{what} must be a polynomial of {ring!r}, not {c!r}")


def substitute_cleared(polys, assignment: dict, target: Ring, image) -> list:
    """The polys (of one ring) with v -> n_v/d_v, each as a numerator N_p over
    one shared cleared denominator, which is not built: [N_p].

    The keys must be variables of the polys' ring; ``image(g) -> (n, d)``
    coerces every assigned value into the target ring, used or not (d one
    for a polynomial), and an unassigned variable that occurs maps to
    the target variable of its name.  Variables whose denominators are equal
    term dicts form a group g with one denominator d_g: D_g is the largest
    sum s_g(e) of the group's exponents over the terms of all the polys, and
    each term is multiplied by d_g^(D_g - s_g(e)), so p(..) = N_p / prod
    d_g^D_g with no rational arithmetic, and a quotient of two polys is the
    quotient of their N_p.  Each power n_v^k, d_g^r is built once per call,
    by repeated squaring, so a huge exponent costs its logarithm; each
    product starts from its first factor, and each N_p accumulates its terms
    into one dict, reduced once per monomial at the end.
    """
    ring = polys[0].ring
    if target.field != ring.field:
        raise RingMismatchError("substitution cannot change the coefficient field")
    for key in assignment:
        if key not in ring._index:
            raise XratioError(f"{key!r} is not a variable of {ring!r}")
    exps = [e for p in polys for e in p.terms] + [(0,) * len(ring.variables)]
    occurs = map(any, zip(*exps))
    one, images = target.one, {}
    for v, k in zip(ring.variables, occurs):
        g = assignment.get(v)
        if g is not None:
            g = image(g)  # every image is checked, even one not used
            if k:
                images[v] = g
        elif k:
            images[v] = (target.var(v), one)  # raises if absent from target
    powers = {}  # (v or group index, k) -> its base to the k-th power
    dens, group = {}, {}  # each distinct d_g's terms -> g; v -> the g of its d_v
    for v, (n, d) in images.items():
        powers[v, 1] = n
        if d.terms != one.terms:
            g = group[v] = dens.setdefault(frozenset(d.terms.items()), len(dens))
            powers.setdefault((g, 1), d)

    def cofactor(keys):
        """The product of the powers that `keys` name, started from the first."""
        out = None
        for key in keys:
            f = powers.get(key)
            if f is None:
                f = powers[key] = powers[key[0], 1] ** key[1]
            out = f if out is None else out * f
        return one if out is None else out

    slots = [(i, v, group.get(v)) for i, v in enumerate(ring.variables) if v in images]
    rows, top = [], [0] * len(dens)  # each term's poly, keys of n_v^e_v, sums s_g(e); D_g
    for j, p in enumerate(polys):
        for e, c in p.terms.items():
            keys, s = [], [0] * len(dens)
            for i, v, g in slots:
                k = e[i]
                if k:
                    keys.append((v, k))
                    if g is not None:
                        s[g] += k
            rows.append((j, keys, s, c))
            if dens:
                top = list(map(max, top, s))
    accs = [{} for _ in polys]
    for j, keys, s, c in rows:
        if dens:
            keys += [(g, t - k) for g, (t, k) in enumerate(zip(top, s)) if t > k]
        target.accumulate_scaled(accs[j], cofactor(keys).terms, c)
    return [MultiPoly(target, target.canonical(acc)) for acc in accs]


def _wrap_scalar(s: str) -> str:
    # composite scalar renderings contain spaces ("1 + i"); keep them one factor
    return f"({s})" if " " in s else s
