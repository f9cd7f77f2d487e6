"""The projective line over an exact field, and brute-force stabilizers.

Points are canonical: affine (s : 1) carrying the field element s, or the
single infinite point (1 : 0).  A Moebius element is an invertible 2x2
matrix stored in a canonical scaling (first nonzero entry of (a,b,c,d)
scaled to 1), so structural equality and hashing agree with equality in the
projective linear group.

The upper-triangular subgroup B (c = 0) is exactly the stabilizer of the
infinite point; its q*(q-1) elements act on affine points as s -> a*s + b.
Stabilizers of unordered 4-sets in B are exhaustive via two-point
candidates (see ``borel_stabilizer``); 5-sets are stabilized by brute force
over the whole projective linear group, q^3 - q elements.  Both keep a size
guard of q <= 257.
"""

from __future__ import annotations

from itertools import permutations

from .fields import Field, XratioError

BRUTE_FORCE_MAX_Q = 257


class BruteForceBudgetError(XratioError):
    pass


class ProjPoint1:
    """Canonical point of P^1: affine value, or infinity."""

    __slots__ = ("field", "value", "infinite")

    def __init__(self, field: Field, value, infinite=False):
        self.field = field
        self.infinite = bool(infinite)
        if self.infinite:
            self.value = None
        else:
            if isinstance(value, int):
                value = field.from_int(value)
            self.value = value

    @classmethod
    def affine(cls, field, value):
        return cls(field, value)

    @classmethod
    def infinity(cls, field):
        return cls(field, None, infinite=True)

    @classmethod
    def from_homogeneous(cls, field, s, t):
        """(s : t), not both zero; canonicalized."""
        if t.is_zero():
            if s.is_zero():
                raise XratioError("(0 : 0) is not a projective point")
            return cls.infinity(field)
        return cls.affine(field, s / t)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint1) and other.field == self.field
                and other.infinite == self.infinite and other.value == self.value)

    def __hash__(self):
        return hash((self.field.name, "inf" if self.infinite else self.value.v))

    def __str__(self):
        return "inf" if self.infinite else str(self.value)

    __repr__ = __str__


def p1_points(field: Field):
    """All q+1 points, affine in field enumeration order, then infinity."""
    pts = [ProjPoint1.affine(field, v) for v in field.elements()]
    pts.append(ProjPoint1.infinity(field))
    return pts


class Moebius:
    """Invertible 2x2 matrix up to scalars, acting as s -> (a*s+b)/(c*s+d)."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a, b, c, d):
        vals = [field.from_int(x) if isinstance(x, int) else x for x in (a, b, c, d)]
        a, b, c, d = vals
        det = a * d - b * c
        if det.is_zero():
            raise XratioError("singular matrix is not a Moebius element")
        lead = next(x for x in vals if not x.is_zero())
        inv = field.one / lead
        self.field = field
        self.a, self.b, self.c, self.d = (x * inv for x in vals)

    def is_identity(self):
        return (self.a.is_one() and self.b.is_zero()
                and self.c.is_zero() and self.d.is_one())

    def apply(self, p: ProjPoint1) -> ProjPoint1:
        a, b, c, d = self.a, self.b, self.c, self.d
        if p.infinite:
            if c.is_zero():
                return p
            return ProjPoint1.affine(self.field, a / c)
        num = a * p.value + b
        den = c * p.value + d
        if den.is_zero():
            return ProjPoint1.infinity(self.field)
        return ProjPoint1.affine(self.field, num / den)

    __call__ = apply

    def __mul__(self, o: "Moebius") -> "Moebius":
        return Moebius(self.field,
                       self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                       self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inverse(self) -> "Moebius":
        return Moebius(self.field, self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        return (isinstance(other, Moebius) and other.field == self.field
                and (self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash((self.field.name, self.a.v, self.b.v, self.c.v, self.d.v))

    def __str__(self):
        if self.c.is_zero():
            alpha = self.a / self.d
            beta = self.b / self.d
            if beta.is_zero():
                return f"s -> {alpha}*s" if not alpha.is_one() else "s -> s"
            if alpha.is_one():
                return f"s -> s + {beta}"
            return f"s -> {alpha}*s + {beta}"
        return f"s -> ({self.a}*s + {self.b})/({self.c}*s + {self.d})"

    __repr__ = __str__


def _require_small_finite(field):
    if not field.is_finite:
        raise XratioError("brute force needs a finite field")
    if field.order > BRUTE_FORCE_MAX_Q:
        raise BruteForceBudgetError(
            f"field order {field.order} exceeds brute-force guard {BRUTE_FORCE_MAX_Q}")


def borel_elements(field: Field):
    """The q*(q-1) upper-triangular elements s -> alpha*s + beta."""
    _require_small_finite(field)
    for alpha in field.elements():
        if alpha.is_zero():
            continue
        for beta in field.elements():
            yield Moebius(field, alpha, beta, field.zero, field.one)


def pgl2_elements(field: Field):
    """All q^3 - q projective matrix classes, one canonical rep each."""
    _require_small_finite(field)
    one = field.one
    for b in field.elements():
        for c in field.elements():
            bc = b * c
            for d in field.elements():
                if d != bc:
                    yield Moebius(field, one, b, c, d)
    zero = field.zero
    for c in field.elements():
        if c.is_zero():
            continue
        for d in field.elements():
            yield Moebius(field, zero, one, c, d)


def _check_tuple(points, field, size):
    pts = list(points)
    if len(pts) != size:
        raise XratioError(f"expected an unordered {size}-set, got {len(pts)} points")
    if any(p.field != field for p in pts):
        raise XratioError("points must belong to the given field")
    if len(set(pts)) != size:
        raise XratioError("points must be pairwise distinct")
    return frozenset(pts)


def borel_stabilizer(points, field: Field):
    """All upper-triangular elements mapping the unordered 4-set to itself.

    Exhaustive via two-point candidates.  An element s -> alpha*s + beta of B
    fixes infinity and is determined by the images of two distinct affine
    points s0, s1 of the set; a stabilizing map sends them to two distinct
    affine points t0, t1 of the set.  The ordered pairs (t0, t1) -- 12 for an
    all-affine set, 6 when infinity is in it -- therefore give every
    candidate alpha = (t1 - t0)/(s1 - s0), beta = t0 - alpha*s0, and each is
    kept only if it maps the whole set into itself.  The result is a subgroup
    of B, listed in the order of a scan over (alpha, beta) in
    ``field.elements()`` order, which is increasing payload order.
    """
    pts = _check_tuple(points, field, 4)
    _require_small_finite(field)
    # payload order, so the work done does not vary with set iteration order
    vals = sorted((p.value for p in pts if not p.infinite), key=lambda v: v.v)
    targets = frozenset(vals)
    s0, s1 = vals[0], vals[1]
    found = {}
    for t0, t1 in permutations(vals, 2):
        alpha = (t1 - t0) / (s1 - s0)
        beta = t0 - alpha * s0
        if all(alpha * v + beta in targets for v in vals):
            found[alpha.v, beta.v] = Moebius(field, alpha, beta, field.zero, field.one)
    return [found[key] for key in sorted(found)]


def pgl2_stabilizer(points, field: Field):
    """All projective matrix classes mapping the unordered 5-set to itself."""
    pts = _check_tuple(points, field, 5)
    out = []
    for m in pgl2_elements(field):
        if all(m.apply(p) in pts for p in pts):
            out.append(m)
    return out
