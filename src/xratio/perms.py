"""The symmetric group on {1,2,3,4}: subgroups, conjugacy, splitting.

Everything here is small enough to be exhaustive: 24 elements, 30 subgroups,
11 conjugacy classes of subgroups.  The distinguished Klein subgroup V is
{id} plus the three double transpositions; for a subgroup S the exact
sequence of interest is

    1 -> S&V -> S -> image of S in Sym3 -> 1

(Sym3 = Sym4/V acting on the three pairings), and ``splits`` searches for a
complement: a subgroup C of S with C & (S&V) = {id} and |C|*|S&V| = |S|.

Composition convention: (p*q)(k) = p(q(k)), matching automorphism
composition by substitution elsewhere in the package.
Conjugacy classes are computed on the image tuples ``Perm.imgs``, and V is
built once at import.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import combinations, permutations

from .fields import XratioError

N = 4
_POINTS = (1, 2, 3, 4)


class Perm:
    """Permutation of {1..4}; imgs[k-1] is the image of k."""

    __slots__ = ("imgs",)

    def __init__(self, imgs):
        imgs = tuple(imgs)
        if sorted(imgs) != list(_POINTS):
            raise XratioError(f"not a permutation of 1..4: {imgs}")
        self.imgs = imgs

    def __call__(self, k: int) -> int:
        return self.imgs[k - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(tuple(self.imgs[other.imgs[k - 1] - 1] for k in _POINTS))

    def inverse(self) -> "Perm":
        out = [0] * N
        for k in _POINTS:
            out[self.imgs[k - 1] - 1] = k
        return Perm(out)

    def is_identity(self) -> bool:
        return self.imgs == _POINTS

    def order(self) -> int:
        p, n = self, 1
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    def __eq__(self, other):
        return isinstance(other, Perm) and other.imgs == self.imgs

    def __hash__(self):
        return hash(self.imgs)

    def cycles(self):
        seen, out = set(), []
        for start in _POINTS:
            if start in seen:
                continue
            cyc, k = [start], self(start)
            seen.add(start)
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self(k)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "id"
        return "".join("(" + " ".join(str(k) for k in c) + ")" for c in cyc)

    __repr__ = __str__


IDENTITY = Perm(_POINTS)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str) -> Perm:
    """Cycle notation: '(1 2 3 4)', '(1 2)(3 4)', 'id'."""
    text = text.strip()
    if text in ("id", "()", ""):
        return IDENTITY
    bodies = _CYCLE_RE.findall(text)
    rebuilt = "".join(f"({b})" for b in bodies)
    if "".join(text.split()) != "".join(rebuilt.split()):
        raise XratioError(f"bad cycle notation: {text!r}")
    imgs = list(_POINTS)
    seen = set()
    for body in bodies:
        pts = [int(tok) for tok in body.replace(",", " ").split()]
        if not pts or any(p not in _POINTS for p in pts) or len(set(pts)) != len(pts):
            raise XratioError(f"bad cycle {body!r}")
        if seen & set(pts):
            raise XratioError(f"cycles are not disjoint in {text!r}")
        seen |= set(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            imgs[a - 1] = b
    return Perm(imgs)


def all_perms():
    """The 24 elements in a fixed canonical (lexicographic) order."""
    return [Perm(p) for p in permutations(_POINTS)]


def closure(gens) -> frozenset:
    """Subgroup generated by `gens` (identity always included)."""
    group = {IDENTITY}
    frontier = [IDENTITY]
    gens = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                q = g * h
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(group)


@cache
def subgroups() -> tuple:
    """All subgroups of Sym4 as one sorted tuple, computed once per process.

    Every subgroup of Sym4 is generated by at most two elements, so closures
    of all pairs (plus singletons and the trivial group) are exhaustive.
    Every call returns the same immutable tuple of frozensets.
    """
    elems = all_perms()
    found = {frozenset({IDENTITY})}
    for g in elems:
        found.add(closure([g]))
    for g, h in combinations(elems, 2):
        found.add(closure([g, h]))
    return tuple(sorted(found, key=_subgroup_key))


def _subgroup_key(s):
    return (len(s), sorted(p.imgs for p in s))


def subgroup_conjugacy_classes():
    """Partition of all subgroups into conjugacy classes, ordered like
    subgroups(): each class is the sorted list of its members, the orbit of
    its first member under all 24 elements, compared as frozensets of image
    tuples.  g*p*g^-1 maps k to g(p(g^-1(k))), so it is four tuple lookups:
    g1 = (0,) + g.imgs has g1[x] = g(x), and a..d are g^-1(1..4) - 1."""
    subs = subgroups()
    index = {frozenset(p.imgs for p in s): k for k, s in enumerate(subs)}
    pairs = [((0,) + g.imgs, tuple(h - 1 for h in g.inverse().imgs)) for g in all_perms()]
    classes, placed = [], set()
    for k, s in enumerate(subs):
        if k in placed:
            continue
        imgs = [p.imgs for p in s]
        orbit = {index[frozenset([(g1[p[a]], g1[p[b]], g1[p[c]], g1[p[d]]) for p in imgs])]
                 for g1, (a, b, c, d) in pairs}
        placed |= orbit
        # a subsequence of the sorted tuple subgroups() is sorted itself
        classes.append([subs[j] for j in sorted(orbit)])
    return classes


_KLEIN = frozenset({
    IDENTITY,
    parse_perm("(1 2)(3 4)"),
    parse_perm("(1 3)(2 4)"),
    parse_perm("(1 4)(2 3)"),
})


def klein_group() -> frozenset:
    """{id} plus the three double transpositions; normal in Sym4."""
    return _KLEIN


def klein_part(s) -> frozenset:
    """S & V, the kernel of S acting on the three pairings."""
    return frozenset(s) & klein_group()


def splits(s):
    """Does 1 -> S&V -> S -> S/(S&V) -> 1 split inside S?

    Returns (bool, complement) with the witness complement subgroup (a
    frozenset) when it exists, (False, None) otherwise.  Exhaustive over
    subgroups of S.
    """
    s = frozenset(s)
    kern = klein_part(s)
    for c in subgroups():
        if c <= s and len(c & kern) == 1 and len(c) * len(kern) == len(s):
            return True, c
    return False, None


def has_fixed_point(s) -> bool:
    """Does some letter stay fixed under every element of S?"""
    return any(all(g(k) == k for g in s) for k in _POINTS)


def is_cyclic(s) -> bool:
    n = len(s)
    return any(g.order() == n for g in s)


def cyclic_order4_subgroups():
    return [s for s in subgroups() if len(s) == 4 and is_cyclic(s)]


def subgroup_str(s) -> str:
    return "{" + ", ".join(str(p) for p in sorted(s, key=lambda p: p.imgs)) + "}"
