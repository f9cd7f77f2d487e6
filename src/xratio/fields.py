"""Exact coefficient fields.

Two scalar kinds of field and one construction over them, all with exact
arithmetic and one canonical form per element:

* ``Q``       rationals: an ``int`` when integral, else a ``Fraction``
* ``Fp``      prime fields, residues 0..p-1
* ``k(i)``    k[X]/(X^2+1) over k = Q or Fp (:class:`GaussianField`), pairs
  (re, im) of k's payloads; X^2+1 is irreducible, so the pairs form a field,
  exactly when k has no square root of -1 (Q, and Fp for p = 3 mod 4)

Each field exposes one set of payload ops on those raw values: ``raw_add``,
``raw_mul`` and ``raw_neg`` may leave a result unreduced, ``reduce`` maps it
to the canonical form (one ``% p`` per component over F_p; over Q a
``Fraction`` with denominator 1 becomes its ``int`` numerator, so integral
coefficients, nearly all of them, never pay a ``Fraction`` gcd), and
``raw_zero``/``raw_one``, ``int_payload``, ``raw_inv`` and ``raw_pow`` give
canonical payloads.  ``kernel`` spells the first three ops as code snippets,
from which :mod:`.poly` generates its product kernels.  A payload is never a
``float``: ``raw_inv`` divides through ``Fraction``, imported on first use
(so a process that never inverts over Q never loads :mod:`fractions`), and
over k(i) through k's inverse of the norm.  ``shows_negative`` says which
payloads a polynomial prints with a minus sign.  Polynomials, points and maps
store payloads; ``payload`` is the one scalar rule at their edges, taking an
``int`` or an element of the field and raising :class:`FieldMismatchError`
for anything else.  :class:`FieldElement` wraps one payload for a value
handed out of the package and supports ``+ - * / **`` by delegating to the
payload ops, and structural equality with elements of the same field only
(never with a plain ``int``).
"""

from __future__ import annotations

import operator
import re
from functools import cache


class XratioError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatchError(XratioError):
    pass


class FieldConstructionError(XratioError):
    pass


# Miller-Rabin with the first 13 prime bases decides every n below
# MILLER_RABIN_BOUND, the least strong pseudoprime to all of them (Sorenson
# and Webster 2015); 2..37 alone admit 318665857834031151167461 = psi_12
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below MILLER_RABIN_BOUND; a larger n is refused
    with FieldConstructionError, never decided probabilistically."""
    if n >= MILLER_RABIN_BOUND:
        raise FieldConstructionError(
            f"cannot decide whether {n} is prime: moduli must be below "
            f"{MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """One field element; payload format is owned by the field kind."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.field.payload(other)
        return NotImplemented

    def _made(self, raw):
        f = self.field
        return FieldElement(f, f.reduce(raw))

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(self.field.raw_add(self.v, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_add(self.v, self.field.raw_neg(o)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_add(o, self.field.raw_neg(self.v)))

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(self.field.raw_mul(self.v, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_mul(self.v, self.field.raw_inv(o)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._made(
            self.field.raw_mul(o, self.field.raw_inv(self.v)))

    def __neg__(self):
        return self._made(self.field.raw_neg(self.v))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return FieldElement(self.field, self.field.raw_pow(self.v, n))

    def __eq__(self, other):
        # equal only to an element of the same field, so equality agrees with
        # the hash; over F_p no hash could agree with equality to ints
        if not isinstance(other, FieldElement):
            return NotImplemented
        return other.field == self.field and other.v == self.v

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


# _pair_mul and _pair_add as kernel snippets
_PAIR_MUL = "({0}[0] * {1}[0] - {0}[1] * {1}[1], {0}[0] * {1}[1] + {0}[1] * {1}[0])"
_PAIR_ADD = "({0}[0] + {1}[0], {0}[1] + {1}[1])"


class Field:
    """Shared surface; the default payload ops are the scalar ones (Q, F_p),
    and each field kind supplies its own ``reduce``, ``kernel``,
    ``int_payload`` and ``raw_inv``.

    ``kernel`` is (product, sum, canonical form): ``str.format`` templates
    that spell ``raw_mul``, ``raw_add`` and ``reduce`` inline for the
    payloads named by their arguments, where ``p`` is the characteristic.
    An argument is a name or a subscripted name, so it may be repeated."""

    name = "?"
    characteristic = 0
    order = None  # None means infinite
    raw_add = staticmethod(operator.add)
    raw_mul = staticmethod(operator.mul)
    raw_neg = staticmethod(operator.neg)

    def __init__(self):
        self.raw_zero = self.int_payload(0)
        self.raw_one = self.int_payload(1)
        self.zero = FieldElement(self, self.raw_zero)
        self.one = FieldElement(self, self.raw_one)

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self.int_payload(n))

    def payload(self, x):
        """The canonical payload of an int or of an element of this field."""
        if isinstance(x, int):
            return self.int_payload(x)
        if isinstance(x, FieldElement) and x.field == self:
            return x.v
        raise FieldMismatchError(f"{x!r} is not a scalar of {self.name}")

    def raw_pow(self, v, n: int):
        """v^n by square and multiply, v canonical; a negative n inverts v."""
        if n < 0:
            v = self.raw_inv(v)
        out, k = self.raw_one, abs(n)
        while k:
            if k & 1:
                out = self.reduce(self.raw_mul(out, v))
            v = self.reduce(self.raw_mul(v, v))
            k >>= 1
        return out

    @property
    def is_finite(self):
        return self.order is not None

    def elements(self):
        raise FieldConstructionError(f"{self.name} is infinite, cannot enumerate")

    def sqrt_minus_one(self):
        """A canonical square root of -1, or None when there is none."""
        return None

    def shows_negative(self, v) -> bool:
        """Whether a polynomial prints payload `v` as the negation of -v."""
        return False

    def __eq__(self, other):
        return other is self or (isinstance(other, Field) and other.name == self.name)

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Field({self.name})"

    def render(self, v):
        return str(v)


def _rational(x):
    """Canonical Q payload: the ``int`` numerator of an integral ``Fraction``."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class RationalField(Field):
    name = "Q"
    reduce = staticmethod(_rational)
    # _rational inline: an int passes untouched, an integral Fraction drops to an int
    kernel = ("{0} * {1}", "{0} + {1}",
              "({0} if {0}.__class__ is int else {0}.numerator if {0}.denominator == 1 else {0})")

    def int_payload(self, n):
        return n

    def raw_inv(self, v):
        if v == 0:
            raise ZeroDivisionError("division by zero in Q")
        from fractions import Fraction  # only an inverse over Q builds one
        return _rational(Fraction(1) / v)

    def shows_negative(self, v):
        return v < 0


class PrimeField(Field):
    """F_p, residues 0..p-1; an inverse is one modular power, so nothing
    grows with p."""

    kernel = ("{0} * {1}", "{0} + {1}", "{0} % p")

    def __init__(self, p):
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self.order = p
        super().__init__()

    def int_payload(self, n):
        return n % self.p

    def reduce(self, raw):
        return raw % self.p

    def raw_inv(self, v):
        if v == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return pow(v, -1, self.p)

    def sqrt_minus_one(self):
        p = self.p
        if p == 2:
            return self.one
        if p % 4 != 1:
            return None
        # c^((p-1)/4) squares to c^((p-1)/2) = -1 for a non-residue c (Euler's
        # criterion); of the two roots r and p - r the smaller is canonical
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        r = pow(c, (p - 1) // 4, p)
        return FieldElement(self, min(r, p - r))

    def elements(self):
        for k in range(self.p):
            yield FieldElement(self, k)


class GaussianField(Field):
    """k(i) = k[X]/(X^2+1) over a scalar field k (Q or F_p): pairs (re, im)
    of k's payloads.  X^2+1 is irreducible over k exactly when k has no
    square root of -1, so that is the one construction rule."""

    raw_add = staticmethod(_pair_add)
    raw_mul = staticmethod(_pair_mul)
    raw_neg = staticmethod(_pair_neg)

    def __init__(self, base: Field):
        self.base = base
        self.name = f"{base.name}(i)"
        if base.sqrt_minus_one() is not None:
            raise FieldConstructionError(
                f"{self.name} is not a field: X^2+1 is reducible mod "
                f"{base.characteristic} (need p = 3 mod 4)")
        self.characteristic = p = base.characteristic
        if base.is_finite:
            self.order = base.order ** 2
            # the modulus bound once: no call per component
            self.reduce = lambda raw: (raw[0] % p, raw[1] % p)
        else:
            r = base.reduce
            self.reduce = lambda raw: (r(raw[0]), r(raw[1]))
        red = base.kernel[2]
        self.kernel = (_PAIR_MUL, _PAIR_ADD,
                       f"({red.format('{0}[0]')}, {red.format('{0}[1]')})")
        super().__init__()

    def int_payload(self, n):
        return (self.base.int_payload(n), self.base.raw_zero)

    def raw_inv(self, v):
        x, y = v
        base = self.base
        n = base.reduce(x * x + y * y)
        if n == base.raw_zero:  # x^2 + y^2 = 0 only at 0, as -1 is not a square
            raise ZeroDivisionError(f"division by zero in {self.name}")
        m = base.raw_inv(n)
        return self.reduce((x * m, -y * m))

    def sqrt_minus_one(self):
        return FieldElement(self, (self.base.raw_zero, self.base.raw_one))

    def shows_negative(self, v):
        neg = self.base.shows_negative
        return neg(v[0]) or (v[0] == self.base.raw_zero and neg(v[1]))

    def elements(self):
        if not self.is_finite:
            return super().elements()
        parts = range(self.base.order)  # the base's payloads, lazily
        return (FieldElement(self, (re_, im_)) for re_ in parts for im_ in parts)

    def render(self, v):
        p, q = v
        if q == 0:
            return str(p)
        im = "i" if q == 1 else "-i" if q == -1 else f"{q}*i"
        if p == 0:
            return im
        return f"{p} - {im[1:]}" if im.startswith("-") else f"{p} + {im}"


# one spelling per field: ASCII digits, no leading zero
_NAME_RE = re.compile(r"^F([1-9][0-9]*)(\(i\))?$")


@cache
def rationals() -> RationalField:
    return RationalField()


@cache
def gaussian_rationals() -> GaussianField:
    return GaussianField(rationals())


@cache
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


@cache
def prime_quadratic_field(p: int) -> GaussianField:
    return GaussianField(prime_field(p))


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
