"""Independent subgroup census of the symmetric group on 4 letters.

Recomputes, with raw image tuples and no project imports, the numbers the
test suite freezes: 30 subgroups, 11 conjugacy classes, the order profile,
which subgroups split over their intersection with the Klein four-group,
and the fixed-point criterion.  It checks its own census: every closure is
a subgroup, the classes partition the subgroups and each has a size that
divides 24, the counts are 30, 11 and the order profile below, the
non-split subgroups are exactly three cyclic groups of order 4, and no
subgroup violates the fixed-point criterion.  Exit status 0 when every
check agrees, 1 otherwise.  Run: python3 scripts/subgroup_census.py
"""

import sys
from collections import Counter
from itertools import permutations

PERMS = list(permutations(range(4)))
ID = (0, 1, 2, 3)
KLEIN = {ID, (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
PROFILE = {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}


def mul(p, q):
    # apply q first: (p*q)(k) = p(q(k))
    return tuple(p[q[k]] for k in range(4))


def inv(p):
    out = [0] * 4
    for k in range(4):
        out[p[k]] = k
    return tuple(out)


def closure(gens):
    elems = {ID}
    frontier = set(gens)
    while frontier:
        elems |= frontier
        frontier = {mul(a, b) for a in elems for b in elems} - elems
    return frozenset(elems)


def all_subgroups():
    found = {frozenset({ID})}
    for g in PERMS:
        for h in PERMS:
            found.add(closure({g, h}))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def conjugate(s, g):
    gi = inv(g)
    return frozenset(mul(mul(g, p), gi) for p in s)


def conjugacy_classes(subs):
    classes = []
    seen = set()
    for s in subs:
        if s in seen:
            continue
        orbit = {conjugate(s, g) for g in PERMS}
        seen |= orbit
        classes.append(orbit)
    return classes


def is_subgroup(s):
    return all(mul(a, b) in s for a in s for b in s)


def splits_over_klein(s):
    kern = s & KLEIN
    quot = len(s) // len(kern)
    for comp in (c for c in map(frozenset, _power(sorted(s))) if len(c) == quot):
        if ID in comp and is_subgroup(comp) and len(comp & kern) == 1:
            return True
    return False


def _power(items):
    n = len(items)
    for mask in range(1 << n):
        yield [items[k] for k in range(n) if mask >> k & 1]


def has_fixed_point(s):
    return any(all(p[k] == k for p in s) for k in range(4))


def main():
    subs = all_subgroups()
    classes = conjugacy_classes(subs)
    profile = Counter(len(s) for s in subs)
    print(f"subgroups: {len(subs)}")
    print(f"conjugacy classes: {len(classes)}")
    print("order profile:", dict(sorted(profile.items())))
    nonsplit = [s for s in subs if not splits_over_klein(s)]
    cyclic4 = [s for s in subs
               if len(s) == 4 and any(closure({g}) == s for g in s)]
    print(f"non-split over Klein part: {len(nonsplit)}")
    for s in nonsplit:
        print("  order", len(s), "cyclic:",
              any(closure({g}) == s for g in s), sorted(s))
    mismatch = [s for s in subs
                if has_fixed_point(s) != (len(s & KLEIN) == 1)]
    print(f"fixed-point <=> trivial-Klein-part violations: {len(mismatch)}")

    failed = [name for name, ok in (
        ("every closure is a subgroup", all(map(is_subgroup, subs))),
        ("the classes partition the subgroups",
         sum(map(len, classes)) == len(subs) and set().union(*classes) == set(subs)),
        ("every class size divides 24", all(24 % len(c) == 0 for c in classes)),
        ("30 subgroups in 11 classes", (len(subs), len(classes)) == (30, 11)),
        ("the order profile", dict(profile) == PROFILE),
        ("non-split exactly the three cyclic groups of order 4",
         nonsplit == cyclic4 and len(cyclic4) == 3),
        ("no fixed-point violation", not mismatch),
    ) if not ok]
    for name in failed:
        print(f"CHECK FAILED: {name}")
    print("census checks: " + (f"{len(failed)} failed" if failed else "all agree"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
