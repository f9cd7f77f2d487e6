"""Grouped denominator clearing against per-variable clearing.

`substitute_cleared` clears each distinct image denominator once, to the
largest total exponent of the variables that share it over a numerator and
its denominator together.  The reference below is an older clearing, kept
here as an oracle: each variable's denominator d_v is cleared on its own, to
the variable's degree, so D = prod d_v^deg_v, for each side separately, and
the sides are cross-multiplied.  Both give the same fraction; grouped
clearing never gives a denominator of larger total degree, and the same
substitutions make a denominator vanish.
"""

import random

import pytest

from xratio.fields import FieldElement, field_by_name
from xratio.poly import Ring
from xratio.ratfunc import DegenerateSubstitutionError, RatFunc, rat, rf_eq, rvar

FIELDS = ("Q", "Q(i)", "F2", "F5", "F101", "F3(i)", "F7(i)")
SOURCE = ("x", "y", "u", "t", "v")
TARGET = ("x", "y")  # x and y may stay unassigned
CASES = 40


def _reference_cleared(p, images, target):
    """p with v -> n_v/d_v as (N, D): every d_v cleared on its own."""
    names, degs = p.ring.variables, p.degrees()
    D = target.one
    for v, deg in zip(names, degs):
        if deg:
            D = D * images[v][1] ** deg
    N = target.zero
    for e, c in p.terms.items():
        term = target.const(FieldElement(p.ring.field, c))
        for v, k, deg in zip(names, e, degs):
            if deg:
                n, d = images[v]
                term = term * n ** k * d ** (deg - k)
        N = N + term
    return N, D


def _reference_substitute(f, assignment, target):
    occurs = map(max, f.num.degrees(), f.den.degrees())
    images = {}
    for v, deg in zip(f.ring.variables, occurs):
        if deg:
            g = rat(target, assignment[v]) if v in assignment else rvar(target, v)
            images[v] = (g.num, g.den)
    (nn, nd), (dn, dd) = (_reference_cleared(p, images, target) for p in (f.num, f.den))
    if dn.is_zero():
        raise DegenerateSubstitutionError("substitution sends the denominator to zero")
    return RatFunc(target, nn * dd, nd * dn)


def _scalar(field, rng, nonzero=False):
    c = field.from_int(rng.randint(-3, 3))
    i = field.sqrt_minus_one()
    if i is not None:
        c = c + field.from_int(rng.randint(-2, 2)) * i
    if field.characteristic == 0:
        c = c / field.from_int(rng.randint(1, 3))
    return _scalar(field, rng, True) if nonzero and c.is_zero() else c


def _poly(ring, rng, nonzero=False, max_exp=2):
    p = ring.poly({tuple(rng.randint(0, max_exp) for _ in ring.variables): _scalar(ring.field, rng)
                   for _ in range(rng.randint(1, 3))})
    return _poly(ring, rng, nonzero, max_exp) if nonzero and p.is_zero() else p


def _assignment(target, rng, case):
    """u always shares the denominator d; t and v cycle through the kinds of
    image, and x is assigned in every third case."""
    field = target.field
    d = _poly(target, rng, nonzero=True)
    u = RatFunc(target, _poly(target, rng), d)
    t_kinds = (
        lambda: RatFunc(target, _poly(target, rng), d),               # the same object
        lambda: RatFunc(target, _poly(target, rng), d + target.zero),  # an equal dict
        lambda: RatFunc(target, _poly(target, rng), d * _scalar(field, rng, True)),
        lambda: _poly(target, rng),                                   # a polynomial
        lambda: u,                                                    # t = u
    )
    v_kinds = (
        lambda: rng.randint(-2, 2),                                   # a constant
        lambda: RatFunc(target, _poly(target, rng), _poly(target, rng, nonzero=True)),
        lambda: RatFunc(target, _poly(target, rng), d),
    )
    assignment = {"u": u, "t": t_kinds[case % len(t_kinds)](),
                  "v": v_kinds[case % len(v_kinds)]()}
    if case % 3 == 0:
        assignment["x"] = RatFunc(target, _poly(target, rng), d)
    return assignment


def _function(source, rng, case):
    if case % 7 == 0:
        return rat(source, _scalar(source.field, rng))  # a constant
    u, t = source.var("u"), source.var("t")
    den = _poly(source, rng, nonzero=True, max_exp=1)
    if case % 5 == 4 or case % 10 == 0:
        den = den * (u - t)  # vanishes when t = u, case 4 mod 5
    return RatFunc(source, _poly(source, rng, max_exp=1), den)


@pytest.mark.parametrize("name", FIELDS)
def test_grouped_clearing_matches_per_variable_clearing(name):
    field = field_by_name(name)
    source, target = Ring(field, SOURCE), Ring(field, TARGET)
    rng = random.Random(f"grouped-clearing-{name}")
    degenerate = smaller = 0
    for case in range(CASES):
        f, assignment = _function(source, rng, case), _assignment(target, rng, case)
        try:
            expected = _reference_substitute(f, assignment, target)
        except DegenerateSubstitutionError:
            with pytest.raises(DegenerateSubstitutionError):
                f.substitute(assignment, target)
            degenerate += 1
            continue
        got = f.substitute(assignment, target)
        assert rf_eq(got, expected)
        assert got.den.total_degree() <= expected.den.total_degree()
        smaller += got.den.total_degree() < expected.den.total_degree()
    assert degenerate and smaller


def test_a_shared_denominator_is_cleared_once():
    """The presentation conic's shape: u = w/y and t = z/y share y, so the
    substituted denominator is y^2, not y^4."""
    field = field_by_name("Q")
    source, target = Ring(field, ("u", "t")), Ring(field, ("w", "y", "z"))
    w, y, z = target.vars()
    u, t = source.vars()
    f = RatFunc(source, 3 * u * u - t * t + 1)
    got = f.substitute({"u": RatFunc(target, w, y), "t": RatFunc(target, z, y + target.zero)},
                       target)
    assert got.den == y ** 2
    assert got.num == 3 * w * w - z * z + y * y


def test_numerator_and_denominator_share_one_clearing():
    """With u = w/y and t = z/y, -t/u clears y once for both sides: the
    result is -z/w with no factor y, where clearing each side on its own and
    cross-multiplying gives (-z*y)/(y*w)."""
    field = field_by_name("Q")
    source, target = Ring(field, ("u", "t")), Ring(field, ("w", "y", "z"))
    w, y, z = target.vars()
    u, t = source.vars()
    images = {"u": RatFunc(target, w, y), "t": RatFunc(target, z, y)}
    got = RatFunc(source, -t, u).substitute(images, target)
    assert got.num == -z and got.den == w
    # the numerator reaches D_y = 2, the denominator only 1: both sit over y^2
    got = RatFunc(source, u * u + 1, t).substitute(images, target)
    assert got.num == w * w + y * y and got.den == z * y
