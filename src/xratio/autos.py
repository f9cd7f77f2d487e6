"""Field maps of k(v1..vn) given by variable images.

An :class:`Automorphism` stores one RatFunc image per ring variable and acts
on rational functions by substitution, which is automatically a field
homomorphism fixing k.  A permutation map, made by :func:`perm_automorphism`
from the permutation's source slots, is applied by permuting exponent tuples
instead: the same map, with no products.  It builds its images only when
they are asked for (a product with a generic map, ``is_identity``, ``repr``),
and two permutation maps compose by their slots into a third.  Nothing at
construction time guarantees the map is invertible;
:meth:`Automorphism.identity_power` finds the first power of the map that is
the identity, composing at most a given number of times, and a
non-invertible image map never reaches the identity instead of being
rejected up front.

Composition is (s*t)(f) = s(t(f)), so the images of s*t are s applied to
the images of t, and slot j of s*t is taken from slot t_src[s_src[j]].  With
the permutation convention p: v_k -> v_{p(k)} the map perm_automorphism is a
group homomorphism for this composition.
"""

from __future__ import annotations

from .fields import XratioError
from .poly import Ring
from .ratfunc import RatFunc, rat, rvar


class Automorphism:
    """Substitution endomorphism of the fraction field of `ring`."""

    __slots__ = ("ring", "_images", "_src")

    def __init__(self, ring: Ring, images: dict):
        missing = [v for v in ring.variables if v not in images]
        if missing:
            raise XratioError(f"no image given for variables {missing}")
        self.ring = ring
        self._images = {v: rat(ring, images[v]) for v in ring.variables}
        self._src = None

    @property
    def images(self) -> dict:
        """The RatFunc image of each ring variable, in ring order; a
        permutation map builds them on first use."""
        if self._images is None:
            vs = self.ring.variables
            slots = sorted((i, j) for j, i in enumerate(self._src))  # (source, target)
            self._images = {vs[i]: rvar(self.ring, vs[j]) for i, j in slots}
        return self._images

    def apply(self, f) -> RatFunc:
        f = rat(self.ring, f)
        if self._src is None:
            return f.substitute(self.images)
        # a renaming is a bijection of monomials: no denominator can vanish
        return RatFunc(self.ring, f.num.permute(self._src), f.den.permute(self._src))

    __call__ = apply

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        """(self*other)(f) = self(other(f))."""
        if other.ring is not self.ring:
            raise XratioError("automorphisms of different rings")
        if self._src is not None and other._src is not None:
            return _renaming(self.ring, tuple(other._src[i] for i in self._src))
        return Automorphism(self.ring, {v: self.apply(g) for v, g in other.images.items()})

    def is_identity(self) -> bool:
        return all(self.images[v] == rvar(self.ring, v) for v in self.ring.variables)

    def identity_power(self, m: int):
        """The least k in 1..m with self^k = id, or None when there is none.

        Composes self at most m - 1 times, so a map of infinite order costs m
        powers, not a search; a degenerate image map (for example a constant
        image) never reaches the identity.
        """
        p = self
        for k in range(1, m):
            if p.is_identity():
                return k
            p = self * p
        return m if p.is_identity() else None

    def fixes(self, f) -> bool:
        return self.apply(f) == rat(self.ring, f)

    def __repr__(self):
        body = ", ".join(f"{v} -> {self.images[v]}" for v in self.ring.variables)
        return f"Automorphism({body})"


def _renaming(ring: Ring, src) -> Automorphism:
    """The renaming taking exponent slot j from slot src[j], images unbuilt."""
    s = Automorphism.__new__(Automorphism)
    s.ring, s._images, s._src = ring, None, src
    return s


def perm_automorphism(ring: Ring, p) -> Automorphism:
    """v_k -> v_{p(k)} for the image tuple p (p[k-1] is the image of k).

    The convention is index-to-index: the image of the k-th ring variable is
    the p(k)-th ring variable, so exponent slot p(k) is taken from slot k.
    """
    p, vs = tuple(p), ring.variables
    if sorted(p) != list(range(1, len(vs) + 1)):
        raise XratioError(f"not a permutation of 1..{len(vs)}: {p}")
    return _renaming(ring, tuple(p.index(j) for j in range(1, len(vs) + 1)))
