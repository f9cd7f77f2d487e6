"""Exact coefficient fields.

Four kinds of field, all with exact arithmetic and one canonical form per
element:

* ``Q``       rationals, backed by ``fractions.Fraction``
* ``Q(i)``    gaussian rationals, pairs of Fractions (re, im)
* ``Fp``      prime fields, residues 0..p-1
* ``Fp(i)``   Fp[X]/(X^2+1) for p = 3 (mod 4), residue pairs (re, im)

Each field exposes one set of payload ops on those raw values: ``raw_add``,
``raw_mul`` and ``raw_neg`` may leave a result unreduced, ``reduce`` maps it
to the canonical form (one ``% p`` for F_p, the identity over Q and Q(i)),
and ``raw_zero``/``raw_one`` are the canonical zero and one.  Polynomials
store these payloads directly.  :class:`FieldElement` wraps one payload for
the API edges and supports ``+ - * / **`` and structural equality by
delegating to the payload ops.  Mixing elements of two different fields
raises :class:`FieldMismatchError`.  ``Fp(i)`` demands p = 3 (mod 4) so that
X^2+1 is irreducible and the pair arithmetic really is a field.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction


class XratioError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatchError(XratioError):
    pass


class FieldConstructionError(XratioError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldElement:
    """One field element; payload format is owned by the field kind."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.field.name} and {other.field.name}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def _made(self, raw):
        f = self.field
        return FieldElement(f, f.reduce(raw))

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(self.field.raw_add(self.v, o.v))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_add(self.v, self.field.raw_neg(o.v)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_add(o.v, self.field.raw_neg(self.v)))

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(self.field.raw_mul(self.v, o.v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_mul(self.v, self.field.inv(o).v))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_mul(o.v, self.field.inv(self).v))

    def __neg__(self):
        return self._made(self.field.raw_neg(self.v))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        f = self.field
        base = (self if n >= 0 else f.inv(self)).v
        out, k = f.raw_one, abs(n)
        while k:
            if k & 1:
                out = f.reduce(f.raw_mul(out, base))
            base = f.reduce(f.raw_mul(base, base))
            k >>= 1
        return FieldElement(f, out)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (isinstance(other, FieldElement)
                and other.field == self.field and other.v == self.v)

    def __hash__(self):
        return hash((self.field.name, self.v))

    def is_zero(self):
        return self.v == self.field.raw_zero

    def is_one(self):
        return self.v == self.field.raw_one

    def __str__(self):
        return self.field.render(self.v)

    def __repr__(self):
        return f"<{self.field.name}: {self.field.render(self.v)}>"


def _pair_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _pair_mul(a, b):
    (p, q), (r, s) = a, b
    return (p * r - q * s, p * s + q * r)


def _pair_neg(a):
    return (-a[0], -a[1])


class Field:
    """Shared surface; the default payload ops are the scalar ones (Q, F_p)."""

    name = "?"
    characteristic = 0
    order = None  # None means infinite
    raw_add = staticmethod(operator.add)
    raw_mul = staticmethod(operator.mul)
    raw_neg = staticmethod(operator.neg)

    def __init__(self):
        self.raw_zero = self._int_payload(0)
        self.raw_one = self._int_payload(1)
        self.zero = FieldElement(self, self.raw_zero)
        self.one = FieldElement(self, self.raw_one)

    @staticmethod
    def reduce(raw):
        return raw

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._int_payload(n))

    @property
    def is_finite(self):
        return self.order is not None

    def elements(self):
        raise FieldConstructionError(f"{self.name} is infinite, cannot enumerate")

    def sqrt_minus_one(self):
        """A canonical square root of -1, or None when there is none."""
        return None

    def __eq__(self, other):
        return other is self or (isinstance(other, Field) and other.name == self.name)

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Field({self.name})"


class RationalField(Field):
    name = "Q"
    characteristic = 0

    def _int_payload(self, n):
        return Fraction(n)

    def inv(self, a):
        if a.v == 0:
            raise ZeroDivisionError("division by zero in Q")
        return FieldElement(self, 1 / a.v)

    def render(self, v):
        return str(v)


class GaussianRationalField(Field):
    """Q(i): pairs (re, im) of Fractions with i^2 = -1."""

    name = "Q(i)"
    characteristic = 0
    raw_add = staticmethod(_pair_add)
    raw_mul = staticmethod(_pair_mul)
    raw_neg = staticmethod(_pair_neg)

    def _int_payload(self, n):
        return (Fraction(n), Fraction(0))

    def inv(self, a):
        p, q = a.v
        n = p * p + q * q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FieldElement(self, (p / n, -q / n))

    def sqrt_minus_one(self):
        return FieldElement(self, (Fraction(0), Fraction(1)))

    def render(self, v):
        p, q = v
        if q == 0:
            return str(p)
        if q == 1:
            im = "i"
        elif q == -1:
            im = "-i"
        else:
            im = f"{q}*i"
        if p == 0:
            return im
        return f"{p} + {im}" if not im.startswith("-") else f"{p} - {im[1:]}"


class PrimeField(Field):
    """F_p, residues 0..p-1; inverses via a precomputed table."""

    def __init__(self, p):
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self.order = p
        self._inv = None
        super().__init__()

    def _int_payload(self, n):
        return n % self.p

    def reduce(self, raw):
        return raw % self.p

    def inv(self, a):
        if a.v == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        if self._inv is None:
            p = self.p
            self._inv = [0] + [pow(k, p - 2, p) for k in range(1, p)]
        return FieldElement(self, self._inv[a.v])

    def sqrt_minus_one(self):
        p = self.p
        if p == 2:
            return self.one
        if p % 4 != 1:
            return None
        for s in range(2, p):
            if s * s % p == p - 1:
                return FieldElement(self, s)
        raise AssertionError("unreachable for p = 1 (mod 4)")

    def elements(self):
        for k in range(self.p):
            yield FieldElement(self, k)

    def render(self, v):
        return str(v)


class PrimeQuadraticField(Field):
    """Fp(i) = Fp[X]/(X^2+1), residue pairs; requires p = 3 (mod 4)."""

    raw_add = staticmethod(_pair_add)
    raw_mul = staticmethod(_pair_mul)
    raw_neg = staticmethod(_pair_neg)

    def __init__(self, p):
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        if p % 4 != 3:
            raise FieldConstructionError(
                f"F{p}(i) is not a field: X^2+1 is reducible mod {p} (need p = 3 mod 4)")
        self.p = p
        self.name = f"F{p}(i)"
        self.characteristic = p
        self.order = p * p
        super().__init__()

    def _int_payload(self, n):
        return (n % self.p, 0)

    def reduce(self, raw):
        return (raw[0] % self.p, raw[1] % self.p)

    def inv(self, a):
        p = self.p
        x, y = a.v
        n = (x * x + y * y) % p
        if n == 0:
            # x^2+y^2 = 0 with (x,y) != 0 is impossible for p = 3 (mod 4)
            raise ZeroDivisionError(f"division by zero in {self.name}")
        ninv = pow(n, p - 2, p)
        return FieldElement(self, (x * ninv % p, -y * ninv % p))

    def sqrt_minus_one(self):
        return FieldElement(self, (0, 1))

    def elements(self):
        for re_ in range(self.p):
            for im_ in range(self.p):
                yield FieldElement(self, (re_, im_))

    def render(self, v):
        x, y = v
        if y == 0:
            return str(x)
        im = "i" if y == 1 else f"{y}*i"
        return im if x == 0 else f"{x} + {im}"


_CACHE: dict[str, Field] = {}

_NAME_RE = re.compile(r"^F(\d+)(\(i\))?$")


def rationals() -> RationalField:
    return _cached("Q", RationalField)


def gaussian_rationals() -> GaussianRationalField:
    return _cached("Q(i)", GaussianRationalField)


def prime_field(p: int) -> PrimeField:
    return _cached(f"F{p}", lambda: PrimeField(p))


def prime_quadratic_field(p: int) -> PrimeQuadraticField:
    return _cached(f"F{p}(i)", lambda: PrimeQuadraticField(p))


def _cached(name, ctor):
    f = _CACHE.get(name)
    if f is None:
        f = ctor()
        _CACHE[name] = f
    return f


def field_by_name(name: str) -> Field:
    """Parse a field name: Q, Q(i), F2, F101, F3(i), F7(i), ..."""
    name = name.strip()
    if name == "Q":
        return rationals()
    if name == "Q(i)":
        return gaussian_rationals()
    m = _NAME_RE.match(name)
    if m:
        p = int(m.group(1))
        return prime_quadratic_field(p) if m.group(2) else prime_field(p)
    raise FieldConstructionError(f"unknown field name: {name!r}")
