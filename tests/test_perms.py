from collections import Counter

import pytest

from xratio.fields import XratioError
from xratio.perms import (IDENTITY, all_perms, compose, cyclic_order4_subgroups,
                          has_fixed_point, inverse, klein_group, klein_part,
                          order, parse_perm, perm_str, splits,
                          subgroup_conjugacy_classes, subgroup_str, subgroups)


def conjugate(p, g):
    """g p g^-1."""
    return compose(compose(g, p), inverse(g))


def test_parse_and_cycle_notation_round_trip():
    for text in ("id", "(1 2)", "(1 2 3 4)", "(1 2)(3 4)", "(1 3 2)"):
        assert perm_str(parse_perm(text)) == text
    assert parse_perm("(2 1)") == parse_perm("(1 2)") == (2, 1, 3, 4)
    assert parse_perm("id") == IDENTITY == (1, 2, 3, 4)
    assert parse_perm("(1 2 3 4)") == (2, 3, 4, 1)
    assert all(parse_perm(perm_str(p)) == p for p in all_perms())


def test_parse_rejects_garbage():
    with pytest.raises(XratioError):
        parse_perm("(1 2 5)")
    with pytest.raises(XratioError):
        parse_perm("(1 1)")
    for text in ("(1 \u0662)", "(1 +2)", "(12)"):  # ASCII letters 1-4 only
        with pytest.raises(XratioError, match="^bad cycle "):
            parse_perm(text)


def test_composition_applies_right_factor_first():
    p = parse_perm("(1 2)")
    q = parse_perm("(2 3)")
    pq = compose(p, q)
    assert pq[2 - 1] == p[q[2 - 1] - 1] == 3
    assert pq[3 - 1] == p[2 - 1] == 1
    assert perm_str(pq) == "(1 2 3)"
    assert perm_str(compose(q, p)) == "(1 3 2)"


def test_inverse_and_order():
    c = parse_perm("(1 2 3 4)")
    assert order(c) == 4
    assert compose(c, inverse(c)) == compose(inverse(c), c) == IDENTITY
    assert inverse(c) == parse_perm("(1 4 3 2)")
    assert order(parse_perm("(1 2)(3 4)")) == 2
    assert order(IDENTITY) == 1


def test_group_order_and_element_orders():
    perms = all_perms()
    assert len(perms) == 24
    assert len(set(perms)) == 24 and perms == sorted(perms)
    assert Counter(order(p) for p in perms) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_klein_group():
    v4 = klein_group()
    assert len(v4) == 4
    assert all(compose(p, p) == IDENTITY for p in v4)
    assert all(conjugate(p, g) in v4 for p in v4 for g in all_perms())


def test_subgroup_census():
    subs = subgroups()
    assert len(subs) == 30
    assert Counter(len(s) for s in subs) == \
        {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    assert len(subgroup_conjugacy_classes()) == 11
    for s in subs:
        assert all(compose(p, q) in s for p in s for q in s)


def test_cyclic_order4_subgroups():
    cyc = cyclic_order4_subgroups()
    assert len(cyc) == 3
    generators = {perm_str(p) for s in cyc for p in s if order(p) == 4}
    assert generators == {"(1 2 3 4)", "(1 4 3 2)", "(1 3 2 4)", "(1 4 2 3)",
                          "(1 2 4 3)", "(1 3 4 2)"}
    for s in cyc:
        assert len(klein_part(s)) == 2


def test_split_witnesses():
    nonsplit = []
    for s in subgroups():
        did, comp = splits(s)
        if not did:
            assert comp is None
            nonsplit.append(s)
            continue
        kern = klein_part(s)
        assert len(comp & kern) == 1
        assert len(comp) * len(kern) == len(s)
        assert all(compose(p, q) in comp for p in comp for q in comp)
    assert sorted(map(subgroup_str, nonsplit)) == \
        sorted(map(subgroup_str, cyclic_order4_subgroups()))


def test_fixed_point_iff_trivial_klein_part():
    for s in subgroups():
        assert has_fixed_point(s) == (len(klein_part(s)) == 1)


def test_whole_group_and_trivial_group_edge_cases():
    subs = subgroups()
    whole = max(subs, key=len)
    assert len(whole) == 24
    assert splits(whole)[0]
    assert not has_fixed_point(whole)
    trivial = min(subs, key=len)
    assert trivial == frozenset({IDENTITY})
    assert splits(trivial)[0]
    assert has_fixed_point(trivial)


def test_subgroup_str_is_deterministic():
    s = frozenset({IDENTITY, parse_perm("(1 2)")})
    assert subgroup_str(s) == "{id, (1 2)}"


def test_subgroups_is_one_memoized_tuple():
    first = subgroups()
    assert subgroups() is first
    assert type(first) is tuple and len(first) == 30
    assert all(type(s) is frozenset for s in first)
    assert subgroups.__wrapped__() == first  # a fresh computation agrees


def test_splits_and_classes_pinned_on_memoized_tuple():
    subs = subgroups()
    classes = subgroup_conjugacy_classes()
    assert [[subs.index(s) for s in cls] for cls in classes] == [
        [0], [1, 2, 3, 4, 6, 8], [5, 7, 9], [10, 11, 12, 13], [14, 15, 16],
        [17], [18, 19, 20], [21, 22, 23, 24], [25, 26, 27], [28], [29]]
    complements = []
    for s in subs:
        did, comp = splits(s)
        complements.append(subs.index(comp) if did else None)
    assert complements == [0, 1, 2, 3, 4, 0, 6, 0, 8, 0, 10, 11, 12, 13, 1, 2,
                           3, 0, None, None, None, 21, 22, 23, 24, 1, 2, 3, 10,
                           21]


def test_conjugacy_classes_match_orbits_under_perm_conjugate():
    # reference: conjugate each subgroup elementwise with conjugate() and
    # group the subgroups by orbit, in the order of subgroups()
    subs, elems = subgroups(), all_perms()
    reference, placed = [], set()
    for s in subs:
        if s in placed:
            continue
        orbit = {frozenset(conjugate(p, g) for p in s) for g in elems}
        placed |= orbit
        reference.append([t for t in subs if t in orbit])
    assert subgroup_conjugacy_classes() == reference


def test_klein_group_is_the_identity_and_three_double_transpositions():
    assert klein_group() == frozenset(
        {IDENTITY} | {parse_perm(t) for t in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")})
