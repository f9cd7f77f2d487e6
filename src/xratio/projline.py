"""The projective line over an exact field, and stabilizers in the affine group.

Points are canonical: affine (s : 1) carrying the canonical payload of s,
or the single infinite point (1 : 0).

The upper-triangular subgroup B of the projective linear group is exactly
the stabilizer of the infinite point; its q*(q-1) elements are the affine
maps s -> alpha*s + beta with alpha != 0.  Stabilizers of unordered 4-sets
in B are exhaustive via at most 12 two-point candidates (see
``borel_stabilizer``), so the work does not grow with q.  The candidates are
computed on raw payloads, and points and maps hold canonical payloads too:
their constructors take an int or an element of their field, through
``Field.payload``, and print with ``Field.render``.
"""

from __future__ import annotations

from itertools import permutations

from .fields import Field, XratioError
from .poly import _wrap_scalar

class ProjPoint1:
    """Canonical point of P^1: affine value, or infinity."""

    __slots__ = ("field", "value", "infinite")

    def __init__(self, field: Field, value, infinite=False):
        self.field = field
        self.infinite = bool(infinite)
        self.value = None if self.infinite else field.payload(value)

    @classmethod
    def affine(cls, field, value):
        return cls(field, value)

    @classmethod
    def infinity(cls, field):
        return cls(field, None, infinite=True)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint1) and other.field == self.field
                and other.infinite == self.infinite and other.value == self.value)

    def __hash__(self):
        return hash((self.field.name, self.value))

    def __str__(self):
        return "inf" if self.infinite else self.field.render(self.value)

    __repr__ = __str__


class AffineMap:
    """An element s -> alpha*s + beta (alpha != 0) of B; it fixes infinity."""

    __slots__ = ("field", "alpha", "beta")

    def __init__(self, field: Field, alpha, beta):
        self.field, self.alpha, self.beta = field, field.payload(alpha), field.payload(beta)
        if self.alpha == field.raw_zero:
            raise XratioError("alpha = 0 is not an affine map")

    @classmethod
    def _of_payloads(cls, field, alpha, beta):
        """The map of canonical payloads alpha != 0 and beta, unchecked."""
        m = object.__new__(cls)
        m.field, m.alpha, m.beta = field, alpha, beta
        return m

    def __str__(self):
        f = self.field
        s = "s" if self.alpha == f.raw_one else f"{_wrap_scalar(f.render(self.alpha))}*s"
        return f"s -> {s}" if self.beta == f.raw_zero else f"s -> {s} + {f.render(self.beta)}"

    __repr__ = __str__


def _check_tuple(points, field):
    pts = list(points)
    if len(pts) != 4:
        raise XratioError(f"expected an unordered 4-set, got {len(pts)} points")
    if any(p.field != field for p in pts):
        raise XratioError("points must belong to the given field")
    if len(set(pts)) != 4:
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
    kept only if it maps the whole set into itself: on payloads, with one
    inversion of s1 - s0 and membership among the set's canonical payloads.
    The result is a subgroup of B, listed in the order of a scan over (alpha,
    beta) in ``field.elements()`` order, which is increasing payload order.
    """
    pts = _check_tuple(points, field)
    if not field.is_finite:
        raise XratioError("the stabilizer is computed over a finite field only")
    add, mul, neg, red = field.raw_add, field.raw_mul, field.raw_neg, field.reduce
    # payload order, so the work done does not vary with set iteration order
    vals = sorted(p.value for p in pts if not p.infinite)
    targets = frozenset(vals)
    s0 = vals[0]
    inv_ds = field.raw_inv(red(add(vals[1], neg(s0))))
    kept = []
    for t0, t1 in permutations(vals, 2):
        # unreduced: each image is reduced before the membership test
        alpha = mul(add(t1, neg(t0)), inv_ds)
        beta = add(t0, neg(mul(alpha, s0)))
        for v in vals:
            if red(add(mul(alpha, v), beta)) not in targets:
                break
        else:
            kept.append((red(alpha), red(beta)))
    # distinct (t0, t1) give distinct maps; an AffineMap only for a kept one
    return [AffineMap._of_payloads(field, alpha, beta) for alpha, beta in sorted(kept)]
