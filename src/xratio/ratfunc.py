"""Rational functions as unreduced numerator/denominator pairs.

There is no multivariate GCD here and none is needed: a :class:`RatFunc`
keeps whatever numerator and denominator it was built with, and equality is
semantic, by cross-multiplication in the fraction field:

    n1/d1 == n2/d2   iff   n1*d2 == n2*d1   (exact polynomial identity)

That identity is sound because polynomial rings over a field are integral
domains.  Substitution clears denominators term by term (one
:func:`.poly.substitute_cleared` call covers numerator and denominator),
flags substitutions that make a denominator vanish identically, and
evaluation at a point with a vanishing denominator is a pole error (the pair
is unreduced, so a vanishing denominator is never silently "cancelled").

Display applies an optional cosmetic normalization (strip common monomial
content, make the denominator's leading coefficient 1); arithmetic never
normalizes.
"""

from __future__ import annotations

from .fields import FieldElement, XratioError
from .poly import MultiPoly, Ring, RingMismatchError, substitute_cleared


class ZeroDenominatorError(XratioError):
    pass


class PoleError(XratioError):
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
        if num.ring != ring or den.ring != ring:
            raise RingMismatchError("num/den must live in the declared ring")
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        self.ring = ring
        self.num = num
        self.den = den

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring != self.ring:
                raise RingMismatchError("mixed rings")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(self.ring, other)
        if isinstance(other, (int, FieldElement)):
            return RatFunc(self.ring, self.ring.const(other))
        return NotImplemented

    # -- arithmetic (cross-multiplication, no reduction) ----------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
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
        return self.num * o.den == o.num * self.den

    __hash__ = None

    def is_zero(self):
        return self.num.is_zero()

    # -- maps ---------------------------------------------------------------

    def substitute(self, assignment: dict, target_ring: Ring = None) -> "RatFunc":
        """Field homomorphism v -> assignment[v] (RatFunc images).

        Unassigned variables must exist in the target ring.  Raises
        DegenerateSubstitutionError when the substituted denominator is
        semantically zero.
        """
        target = target_ring or self.ring
        for key in assignment:
            if key not in self.ring._index:
                raise XratioError(f"{key!r} is not a variable of {self.ring!r}")
        imgs = {}
        occurs = map(max, self.num.degrees(), self.den.degrees())
        for name, deg in zip(self.ring.variables, occurs):
            g = assignment.get(name)
            if g is None:
                if not deg:
                    continue
                imgs[name] = (target.var(name), target.one)
            else:
                g = rat(target, g)
                imgs[name] = (g.num, g.den)
        (nn, nd), (dn, dd) = substitute_cleared((self.num, self.den), imgs, target)
        if dn.is_zero():
            raise DegenerateSubstitutionError(
                "substitution sends the denominator to zero")
        return RatFunc(target, nn * dd, nd * dn)

    def eval(self, point: dict) -> FieldElement:
        dv = self.den.eval(point)
        if dv.is_zero():
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.eval(point) / dv

    def derivative(self, name: str) -> "RatFunc":
        n, d = self.num, self.den
        return RatFunc(self.ring, n.derivative(name) * d - n * d.derivative(name), d * d)

    def embed(self, target_ring: Ring) -> "RatFunc":
        return RatFunc(target_ring, self.num.embed(target_ring), self.den.embed(target_ring))

    # -- display ------------------------------------------------------------

    def display_normalized(self) -> "RatFunc":
        """Cosmetic only: strip shared monomial content, monic denominator."""
        if self.num.is_zero():
            return RatFunc(self.ring, self.ring.zero, self.ring.one)
        mn = self.num.monomial_content()
        md = self.den.monomial_content()
        shared = tuple(min(a, b) for a, b in zip(mn, md))
        num = self.num.divide_monomial(shared)
        den = self.den.divide_monomial(shared)
        _, lc = den.leading()
        if not lc.is_one():
            inv = self.ring.field.one / lc
            num = num * inv
            den = den * inv
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
        if x.ring != ring:
            raise RingMismatchError("mixed rings")
        return x
    if isinstance(x, MultiPoly):
        return RatFunc(ring, x)
    return RatFunc(ring, ring.const(x))


def rvar(ring: Ring, name: str) -> RatFunc:
    return RatFunc(ring, ring.var(name))


def rvars(ring: Ring):
    return tuple(rvar(ring, v) for v in ring.variables)


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
        if f.ring != ring:
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
