"""The symmetric group on {1,2,3,4}: subgroups, conjugacy, splitting.

Everything here is small enough to be exhaustive: 24 elements, 30 subgroups,
11 conjugacy classes of subgroups.  The distinguished Klein subgroup V is
{id} plus the three double transpositions; for a subgroup S the exact
sequence of interest is

    1 -> S&V -> S -> image of S in Sym3 -> 1

(Sym3 = Sym4/V acting on the three pairings), and ``splits`` searches for a
complement: a subgroup C of S with C & (S&V) = {id} and |C|*|S&V| = |S|.

A permutation is its image tuple: p[k-1] is the image of k, and a subgroup
is a frozenset of such tuples.  Composition convention:
compose(p, q)(k) = p(q(k)), matching automorphism composition by
substitution elsewhere in the package.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import combinations, permutations

from .fields import XratioError

_POINTS = (1, 2, 3, 4)

IDENTITY = _POINTS

_LETTERS = {str(p): p for p in _POINTS}  # ASCII only, unlike int()

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_NOTATION_RE = re.compile(r"(?:\s*\([^()]*\))+\s*")


def parse_perm(text: str) -> tuple:
    """Cycle notation: '(1 2 3 4)', '(1 2)(3 4)', 'id'."""
    text = text.strip()
    if text in ("id", "()", ""):
        return IDENTITY
    if not _NOTATION_RE.fullmatch(text):
        raise XratioError(f"bad cycle notation: {text!r}")
    imgs = list(_POINTS)
    seen = set()
    for body in _CYCLE_RE.findall(text):
        pts = [_LETTERS.get(tok) for tok in body.replace(",", " ").split()]
        if not pts or None in pts or len(set(pts)) != len(pts):
            raise XratioError(f"bad cycle {body!r}")
        if seen & set(pts):
            raise XratioError(f"cycles are not disjoint in {text!r}")
        seen |= set(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            imgs[a - 1] = b
    return tuple(imgs)


def perm_str(p) -> str:
    """Cycle notation, each cycle from its least letter; 'id' for the
    identity.  parse_perm reads it back."""
    seen, out = set(), []
    for start in _POINTS:
        k = p[start - 1]
        if start in seen or k == start:
            continue
        cyc = [start]
        while k != start:
            cyc.append(k)
            k = p[k - 1]
        seen.update(cyc)
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "id"


def compose(p, q) -> tuple:
    """p after q: k -> p(q(k)), unrolled over the four letters."""
    a, b, c, d = q
    return (p[a - 1], p[b - 1], p[c - 1], p[d - 1])


def inverse(p) -> tuple:
    out = [0] * len(p)
    for k, image in enumerate(p, start=1):
        out[image - 1] = k
    return tuple(out)


def order(p) -> int:
    q, n = p, 1
    while q != IDENTITY:
        q, n = compose(q, p), n + 1
    return n


def all_perms():
    """The 24 elements in a fixed canonical (lexicographic) order."""
    return list(permutations(_POINTS))


def closure(gens) -> frozenset:
    """Subgroup generated by `gens` (identity always included)."""
    group = {IDENTITY}
    frontier = [IDENTITY]
    gens = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                q = compose(g, h)
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
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def subgroup_conjugacy_classes():
    """Partition of all subgroups into conjugacy classes, ordered like
    subgroups(): each class is the sorted list of its members, the orbit of
    its first member under all 24 elements.  g*p*g^-1 maps k to
    g(p(g^-1(k))), so it is four tuple lookups: g1 = (0,) + g has
    g1[x] = g(x), and a..d are g^-1(1..4) - 1."""
    subs = subgroups()
    index = {s: k for k, s in enumerate(subs)}
    pairs = [((0,) + g, tuple(h - 1 for h in inverse(g))) for g in all_perms()]
    classes, placed = [], set()
    for k, s in enumerate(subs):
        if k in placed:
            continue
        orbit = {index[frozenset([(g1[p[a]], g1[p[b]], g1[p[c]], g1[p[d]]) for p in s])]
                 for g1, (a, b, c, d) in pairs}
        placed |= orbit
        # a subsequence of the sorted tuple subgroups() is sorted itself
        classes.append([subs[j] for j in sorted(orbit)])
    return classes


# (1 2)(3 4), (1 3)(2 4) and (1 4)(2 3)
_KLEIN = frozenset({IDENTITY, (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)})


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
    return any(all(g[k - 1] == k for g in s) for k in _POINTS)


def is_cyclic(s) -> bool:
    n = len(s)
    return any(order(g) == n for g in s)


def cyclic_order4_subgroups():
    return [s for s in subgroups() if len(s) == 4 and is_cyclic(s)]


def subgroup_str(s) -> str:
    return "{" + ", ".join(map(perm_str, sorted(s))) + "}"
