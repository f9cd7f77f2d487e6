"""Rational functions as unreduced numerator/denominator pairs.

There is no multivariate GCD here and none is needed: a :class:`RatFunc`
keeps whatever numerator and denominator it was built with, and equality is
semantic, by cross-multiplication in the fraction field:

    n1/d1 == n2/d2   iff   n1*d2 == n2*d1   (exact polynomial identity)

That identity is sound because polynomial rings over a field are integral
domains.  Over one denominator it reduces to n1 == n2, since d is nonzero,
so equal denominators are compared by their numerators alone.  Substitution
clears denominators term by term, each distinct image denominator once (one
:func:`.poly.substitute_cleared` call covers numerator and denominator, and
images such as u = w/y and t = z/y share y, so both sides are cleared over
one product and -t/u becomes -z/w), keeps the coefficient field, and flags
substitutions that make a denominator vanish identically (the pair is
unreduced, so a vanishing denominator is never silently "cancelled").

Two polynomials (both denominators one) add and multiply without products
by one, which give the same terms in the same order.

Display applies an optional cosmetic normalization (strip common monomial
content, make the denominator's leading coefficient 1, show c*den as c);
arithmetic never normalizes.
"""

from __future__ import annotations

from .fields import FieldElement, XratioError
from .poly import (MultiPoly, Ring, RingMismatchError, strip_monomial_content,
                   substitute_cleared)


class ZeroDenominatorError(XratioError):
    pass


class DegenerateSubstitutionError(XratioError):
    pass


class CharacteristicError(XratioError):
    pass


class RatFunc:
    """num/den with num, den in the same ring and den semantically nonzero."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, num: MultiPoly, den: MultiPoly = None):
        if den is None:
            den = ring.one
        if num.ring is not ring or den.ring is not ring:
            raise RingMismatchError("num/den must live in the declared ring")
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        self.ring = ring
        self.num = num
        self.den = den

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring is not self.ring:
                raise RingMismatchError("mixed rings")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(self.ring, other)
        if isinstance(other, (int, FieldElement)):
            return RatFunc(self.ring, self.ring.const(other))
        return NotImplemented

    # -- arithmetic (cross-multiplication, no reduction) ----------------------

    def _over_one(self, o):
        one = self.ring.one.terms  # a product by one returns its other factor
        return self.den.terms == one and o.den.terms == one

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._over_one(o):
            return RatFunc(self.ring, self.num + o.num, self.den)
        return RatFunc(self.ring, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.ring, -self.num, self.den)

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
        if self._over_one(o):
            return RatFunc(self.ring, self.num * o.num, self.den)
        return RatFunc(self.ring, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.ring, self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        return RatFunc(self.ring, base.num ** abs(n), base.den ** abs(n))

    def __eq__(self, other):
        if isinstance(other, FieldElement) and other.field != self.ring.field:
            return False
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == o.den:  # exact: a denominator is never zero
            return self.num == o.num
        return self.num * o.den == o.num * self.den

    __hash__ = None

    def is_zero(self):
        return self.num.is_zero()

    # -- maps ---------------------------------------------------------------

    def substitute(self, assignment: dict, target_ring: Ring = None) -> "RatFunc":
        """Field homomorphism v -> assignment[v] (RatFunc images).

        Unassigned variables that occur must exist in the target ring, and
        every image must live in it, occurring or not; a target over another
        field raises RingMismatchError.  Raises DegenerateSubstitutionError
        when the substituted denominator is semantically zero.
        """
        target = target_ring or self.ring
        num, den = substitute_cleared((self.num, self.den), assignment, target,
                                      lambda g: ((r := rat(target, g)).num, r.den))
        if den.is_zero():
            raise DegenerateSubstitutionError(
                "substitution sends the denominator to zero")
        return RatFunc(target, num, den)

    # -- display ------------------------------------------------------------

    def display_normalized(self) -> "RatFunc":
        """Cosmetic only: strip shared monomial content, monic denominator,
        and a constant c for c times the denominator."""
        if self.num.is_zero():
            return RatFunc(self.ring, self.ring.zero, self.ring.one)
        num, den = strip_monomial_content([self.num, self.den])
        _, lc = den.leading()
        if not lc.is_one():
            inv = self.ring.field.one / lc
            num = num * inv
            den = den * inv
        if num.terms.keys() == den.terms.keys():
            _, c = num.leading()  # the c of num = c*den, as den is monic
            if num == den * c:
                return RatFunc(self.ring, self.ring.const(c))
        return RatFunc(self.ring, num, den)

    def __str__(self):
        r = self.display_normalized()
        if r.den == self.ring.one:
            return str(r.num)
        return f"({r.num})/({r.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def rat(ring: Ring, x) -> RatFunc:
    """Coerce an int, FieldElement, MultiPoly, or RatFunc into ring's fraction field."""
    if isinstance(x, RatFunc):
        if x.ring is not ring:
            raise RingMismatchError("mixed rings")
        return x
    if isinstance(x, MultiPoly):
        return RatFunc(ring, x)
    return RatFunc(ring, ring.const(x))


def rvar(ring: Ring, name: str) -> RatFunc:
    return RatFunc(ring, ring.var(name))


def rf_eq(f: RatFunc, g) -> bool:
    return (f == g) is True


def jacobian_rank(funcs, names) -> int:
    """Rank of (d f_i / d v_j) over the fraction field, characteristic 0 only.

    Each row is scaled by its function's squared denominator (nonzero), so the
    matrix entries are polynomials and the elimination below is fraction-free
    cross-multiplication: row_i <- pivot*row_i - entry*row_pivot.  Rank is
    unchanged by either step.
    """
    funcs = list(funcs)
    if not funcs:
        return 0
    ring = funcs[0].ring
    if ring.field.characteristic != 0:
        raise CharacteristicError(
            "jacobian rank is only meaningful here in characteristic 0")
    rows = []
    for f in funcs:
        if f.ring is not ring:
            raise RingMismatchError("mixed rings")
        n, d = f.num, f.den
        rows.append([n.derivative(v) * d - n * d.derivative(v) for v in names])
    ncols = len(names)
    rank = 0
    top = 0
    for c in range(ncols):
        piv = next((i for i in range(top, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        p = rows[top][c]
        for i in range(top + 1, len(rows)):
            q = rows[i][c]
            if not q.is_zero():
                rows[i] = [p * rows[i][j] - q * rows[top][j] for j in range(ncols)]
        rank += 1
        top += 1
        if top == len(rows):
            break
    return rank
