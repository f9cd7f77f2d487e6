"""Derived quantities of the four-point function field and their action tables.

Everything downstream (conic presentations, fixed-field certificates, the
replay checklist) is phrased in a handful of named expressions in
k(x1, x2, x3, x4): three linear combinations w, y, z, the cross ratio a of
the four points, the ratios u, t, and characteristic-dependent invariants.
This module records the definitions, the 4-cycle's action on every derived
name and the change-of-variable identities as parseable text, so the replay
re-verifies them from scratch; an expression resolves only the names it uses.

Kept for the whole process, keyed by the field and the definition table as it
stands: each derived name's value and, keyed also by the claim table as it
stands, both sides of each entry of the claim tables SIGMA, SIGMA2 and
BASIS-IDS (:func:`claim_values`).  Every run still applies the 4-cycle to
each entry and compares, compares both sides of each basis identity,
re-checks the 4-cycle's orientation and parses the conic texts again (for
them the parse is the check); a query text is parsed on every call.  A text
that names no derived quantity is parsed straight into k[x1..x4], with no
substitution after the parse.

The permutation convention is sigma(x_k) = x_{sigma(k)}.  That orientation
is what makes the recorded tables correct (the other convention flips
sigma and sigma^-1); :func:`point_action` re-derives one table entry and
refuses to hand out an action that violates it.
"""

from __future__ import annotations

import functools

from .autos import Automorphism, perm_automorphism
from .exprparse import parse_expression, tokenize
from .fields import Field, XratioError
from .perms import parse_perm
from .poly import Ring
from .ratfunc import DegenerateSubstitutionError, RatFunc, rf_eq

POINT_VARS = ("x1", "x2", "x3", "x4")

CROSS_RATIO_TEXT = "((x4 - x1)*(x3 - x2))/((x4 - x2)*(x3 - x1))"

# definitions resolve in order: each may use point variables and earlier names
DERIVED_ODD = (
    ("w", "-x1 - x2 + x3 + x4"),
    ("y", "-x1 + x2 + x3 - x4"),
    ("z", "-x1 + x2 - x3 + x4"),
    ("a", CROSS_RATIO_TEXT),
    ("u", "w/y"),
    ("t", "z/y"),
    ("b", "1 - 2*a"),
    ("x", "b^2"),
)

DERIVED_CHAR2 = (
    ("w", "x1 + x2 + x3 + x4"),
    ("y", "x1 + x3"),
    ("z", "x1 + x4"),
    ("a", CROSS_RATIO_TEXT),
    ("u", "y/w"),
    ("t", "z/w"),
    ("inv_x", "a^2 + a"),
    ("inv_y", "u^2 + u"),
    ("inv_z", "a + u"),
)

# image of each derived name under the 4-cycle, written in derived names
SIGMA_ODD = (
    ("w", "-y"), ("y", "w"), ("z", "-z"), ("a", "1 - a"),
    ("u", "-1/u"), ("t", "-t/u"), ("b", "-b"), ("x", "x"),
)

SIGMA2_ODD = (
    ("w", "-w"), ("y", "-y"), ("z", "z"), ("a", "a"),
    ("u", "u"), ("t", "-t"), ("b", "b"), ("x", "x"),
)

SIGMA_CHAR2 = (
    ("w", "w"), ("y", "w + y"), ("z", "w + y + z"), ("a", "1 + a"),
    ("u", "1 + u"), ("t", "1 + u + t"),
    ("inv_x", "inv_x"), ("inv_y", "inv_y"), ("inv_z", "inv_z"),
)

SIGMA2_CHAR2 = (
    ("w", "w"), ("y", "y"), ("z", "w + z"), ("a", "a"),
    ("u", "u"), ("t", "1 + t"),
    ("inv_x", "inv_x"), ("inv_y", "inv_y"), ("inv_z", "inv_z"),
)

# linear change of basis, odd/zero characteristic: point-variable differences
# against derived names, plus the cross ratio rewritten in w, y, z alone
BASIS_IDS_ODD = (
    ("x4 - x1", "(w + z)/2"),
    ("x3 - x1", "(w + y)/2"),
    ("x3 - x2", "(w - z)/2"),
    ("x4 - x2", "(w - y)/2"),
    ("x2 - x1", "(y + z)/2"),
    ("x4 - x3", "(z - y)/2"),
    ("a", "(w^2 - z^2)/(w^2 - y^2)"),
)

# the pair (u, t) satisfies the presentation conic of its characteristic
CONIC_ODD_TEXT = "(1 - a)*u^2 - t^2 + a"
CONIC_CHAR2_TEXT = "a*u^2 + a*u + t^2 + t"


@functools.cache
def point_ring(field: Field) -> Ring:
    """k[x1..x4], one shared ring per field."""
    return Ring(field, POINT_VARS)


def four_cycle() -> tuple:
    return parse_perm("(1 2 3 4)")


def derived_definitions(field: Field):
    return DERIVED_CHAR2 if field.characteristic == 2 else DERIVED_ODD


def derived_values(field: Field) -> dict:
    """The whole definition table in k(x1..x4)."""
    table = derived_definitions(field)
    return {name: _resolved(field, table, name) for name, _ in table}


def in_derived(text: str, field: Field) -> RatFunc:
    """Parse `text` in x1..x4 and the derived names into k(x1..x4).  Only the
    names the text uses are resolved, each one at most once per process (see
    :func:`_resolved`)."""
    return _in_table(text, field, derived_definitions(field), None)


def claim_values(claims: tuple, field: Field) -> tuple:
    """The values in k(x1..x4) of both sides of each entry of `claims`, one of
    this module's constant claim tables, parsed once per process."""
    return _claim_values(field, derived_definitions(field), claims)


@functools.cache
def _claim_values(field, table, claims):
    return tuple(tuple(_in_table(text, field, table, None) for text in entry)
                 for entry in claims)


@functools.cache
def _resolved(field: Field, table: tuple, name: str) -> RatFunc:
    """The value of derived name `name` of definition table `table`.  The key
    holds the table as it stands, so a replaced table is resolved afresh."""
    k = [n for n, _ in table].index(name)
    return _in_table(table[k][1], field, table, k)


def _in_table(text, field, table, before):
    tokens = tokenize(text)
    used = {v for kind, v, _ in tokens if kind == "ident"}
    scope = tuple(name for name, _ in table[:before] if name in used)
    if not scope:  # nothing to substitute: parse straight into k[x1..x4]
        return parse_expression(tokens, point_ring(field))
    rf = parse_expression(tokens, Ring(field, POINT_VARS + scope))
    try:
        return rf.substitute({name: _resolved(field, table, name) for name in scope},
                             point_ring(field))
    except DegenerateSubstitutionError:
        raise XratioError(f"{text!r}: a denominator vanishes in k(x1..x4) once "
                          "the derived names are substituted") from None


def point_action(field: Field) -> Automorphism:
    """The 4-cycle acting by sigma(x_k) = x_{sigma(k)}, orientation-checked
    against the derived values."""
    act = perm_automorphism(point_ring(field), four_cycle())
    values = derived_values(field)
    if field.characteristic == 2:
        ok = rf_eq(act.apply(values["y"]), values["w"] + values["y"])
    else:
        ok = rf_eq(act.apply(values["w"]), -values["y"])
    if not ok:
        raise XratioError("permutation action violates the recorded orientation")
    return act
