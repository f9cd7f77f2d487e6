"""Exact coefficient fields.

Four kinds of field, all with exact arithmetic and one canonical form per
element:

* ``Q``       rationals, backed by ``fractions.Fraction``
* ``Q(i)``    gaussian rationals, pairs of Fractions (re, im)
* ``Fp``      prime fields, residues 0..p-1
* ``Fp(i)``   Fp[X]/(X^2+1) for p = 3 (mod 4), residue pairs (re, im)

Elements are :class:`FieldElement` wrappers supporting ``+ - * / **`` and
structural equality.  Mixing elements of two different fields raises
:class:`FieldMismatchError`.  ``Fp(i)`` demands p = 3 (mod 4) so that
X^2+1 is irreducible and the pair arithmetic really is a field.
"""

from __future__ import annotations

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
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.field.name} and {other.field.name}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.add(self, self.field.neg(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.add(o, self.field.neg(self))

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.mul(self, self.field.inv(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field.mul(o, self.field.inv(self))

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.field.inv(self)
        out, k = self.field.one, abs(n)
        while k:
            if k & 1:
                out = self.field.mul(out, base)
            base = self.field.mul(base, base)
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (isinstance(other, FieldElement)
                and other.field == self.field and other.v == self.v)

    def __hash__(self):
        return hash((self.field.name, self.v))

    def is_zero(self):
        return self.v == self.field.zero.v

    def is_one(self):
        return self.v == self.field.one.v

    def __str__(self):
        return self.field.render(self)

    def __repr__(self):
        return f"<{self.field.name}: {self.field.render(self)}>"


class Field:
    """Shared surface: subclasses fill in payload arithmetic."""

    name = "?"
    characteristic = 0
    order = None  # None means infinite

    def __init__(self):
        self.zero = FieldElement(self, self._int_payload(0))
        self.one = FieldElement(self, self._int_payload(1))

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
        return isinstance(other, Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Field({self.name})"


class RationalField(Field):
    name = "Q"
    characteristic = 0

    def _int_payload(self, n):
        return Fraction(n)

    def add(self, a, b):
        return FieldElement(self, a.v + b.v)

    def neg(self, a):
        return FieldElement(self, -a.v)

    def mul(self, a, b):
        return FieldElement(self, a.v * b.v)

    def inv(self, a):
        if a.v == 0:
            raise ZeroDivisionError("division by zero in Q")
        return FieldElement(self, 1 / a.v)

    def render(self, a):
        return str(a.v)


class GaussianRationalField(Field):
    """Q(i): pairs (re, im) of Fractions with i^2 = -1."""

    name = "Q(i)"
    characteristic = 0

    def _int_payload(self, n):
        return (Fraction(n), Fraction(0))

    def add(self, a, b):
        return FieldElement(self, (a.v[0] + b.v[0], a.v[1] + b.v[1]))

    def neg(self, a):
        return FieldElement(self, (-a.v[0], -a.v[1]))

    def mul(self, a, b):
        (p, q), (r, s) = a.v, b.v
        return FieldElement(self, (p * r - q * s, p * s + q * r))

    def inv(self, a):
        p, q = a.v
        n = p * p + q * q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FieldElement(self, (p / n, -q / n))

    def sqrt_minus_one(self):
        return FieldElement(self, (Fraction(0), Fraction(1)))

    def render(self, a):
        p, q = a.v
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

    def add(self, a, b):
        return FieldElement(self, (a.v + b.v) % self.p)

    def neg(self, a):
        return FieldElement(self, -a.v % self.p)

    def mul(self, a, b):
        return FieldElement(self, (a.v * b.v) % self.p)

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

    def render(self, a):
        return str(a.v)


class PrimeQuadraticField(Field):
    """Fp(i) = Fp[X]/(X^2+1), residue pairs; requires p = 3 (mod 4)."""

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

    def add(self, a, b):
        p = self.p
        return FieldElement(self, ((a.v[0] + b.v[0]) % p, (a.v[1] + b.v[1]) % p))

    def neg(self, a):
        p = self.p
        return FieldElement(self, (-a.v[0] % p, -a.v[1] % p))

    def mul(self, a, b):
        p = self.p
        (x, y), (z, w) = a.v, b.v
        return FieldElement(self, ((x * z - y * w) % p, (x * w + y * z) % p))

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

    def render(self, a):
        x, y = a.v
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
