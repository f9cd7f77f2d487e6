"""Known answers the benchmark checks every unit of work against.

Everything here is written by hand from the paper's statements and plain
integer arithmetic; nothing is imported from xratio, so a defect in the
program cannot also change the answer it is judged by.
"""

import random

PASS = "PASS"
EVIDENCE = "EVIDENCE"
ASSUMED = "ASSUMED-BY-PAPER"

ALL_CHECKS = (
    "CR-INV", "SIGMA-TABLE", "SIGMA2-TABLE", "BASIS-IDS", "CONIC-B",
    "LEM-A-INV", "LEM-A-REL", "ISO-CRIT", "ISO-SEARCH", "PARAM", "CERTS",
    "CHAR2-TABLE", "CONIC-C", "LEM-B-ALL", "SPLIT", "FIX-EQ", "SUBGRP-COUNT",
    "GENFREE", "INDEP", "MAIN-B-VERDICT", "MAIN-C-VERDICT",
)

# The checks whose work depends on the field set: the group-theoretic
# checks (SPLIT, FIX-EQ, SUBGRP-COUNT) and GENFREE (always over F101) do the
# same work whatever fields are selected.
FIELD_CHECKS = tuple(c for c in ALL_CHECKS
                     if c not in ("SPLIT", "FIX-EQ", "SUBGRP-COUNT", "GENFREE"))

# Default run: 19 PASS, GENFREE is sampled evidence, and INDEP is assumed in
# characteristic 2 (F2 is among the default fields).
DEFAULT_VERDICTS = {c: PASS for c in ALL_CHECKS}
DEFAULT_VERDICTS.update({"GENFREE": EVIDENCE, "INDEP": ASSUMED})

# All nine fields: every field-dependent claim holds, and INDEP stays
# assumed because F2 is selected.
WIDE_VERDICTS = {c: PASS for c in FIELD_CHECKS}
WIDE_VERDICTS["INDEP"] = ASSUMED

# The presentation conic has a k(x)-point exactly when k contains a square
# root of -1: never in Q or F_p with p = 3 mod 4, always in Q(i), F_p(i),
# and F_p with p = 1 mod 4.  Characteristic 2 is outside this criterion.
ISOTROPIC = {
    "Q": False, "Q(i)": True, "F3": False, "F5": True, "F7": False,
    "F3(i)": True, "F7(i)": True, "F101": True,
}

CHARACTERISTIC_2 = {"F2"}

# The affine stabilizer of {0, 1, 2} over F101 is {x, 2 - x}: it fixes
# infinity, so it is the stabilizer of the designed tuple (0, 1, 2, inf).
DESIGNED_STABILIZER_ORDER = 2


def genfree_trivial_count(seed: int, samples: int = 100, q: int = 101) -> int:
    """Trivial-stabilizer count among GENFREE's seeded draws, recounted.

    Uses the checklist's seeding convention (one ``random.Random`` per check
    seeded with "<seed>-<check id>").  For q = 101 a 4-subset of F_q has a
    nontrivial affine stabilizer exactly when it is symmetric under some
    x -> c - x, i.e. when it splits into two pairs with equal sum mod q.
    """
    rng = random.Random(f"{seed}-GENFREE")
    trivial = 0
    for _ in range(samples):
        a, b, c, d = rng.sample(range(q), 4)
        symmetric = ((a + b - c - d) % q == 0 or (a + c - b - d) % q == 0
                     or (a + d - b - c) % q == 0)
        trivial += not symmetric
    return trivial


# Identities of k(x1..x4) by characteristic, as (lhs, rhs) text in the point
# variables and the derived names.  Each holds; its false twin
# (lhs, "(rhs) + 1") never does, in any characteristic.
CROSS_RATIO = "((x4 - x1)*(x3 - x2))/((x4 - x2)*(x3 - x1))"

IDENTITIES_ODD = (
    # point differences in the basis w, y, z
    ("x4 - x1", "(w + z)/2"),
    ("x3 - x1", "(w + y)/2"),
    ("x3 - x2", "(w - z)/2"),
    ("x4 - x2", "(w - y)/2"),
    ("x2 - x1", "(y + z)/2"),
    ("x4 - x3", "(z - y)/2"),
    ("a", "(w^2 - z^2)/(w^2 - y^2)"),
    # the presentation conic
    ("(1 - a)*u^2 - t^2 + a", "0"),
    # the derived-name definitions
    ("w", "-x1 - x2 + x3 + x4"),
    ("y", "-x1 + x2 + x3 - x4"),
    ("z", "-x1 + x2 - x3 + x4"),
    ("a", CROSS_RATIO),
    ("u", "w/y"),
    ("t", "z/y"),
    ("b", "1 - 2*a"),
    ("x", "b^2"),
    ("u^2", "(w/y)^2"),
    ("a*(x3-x1)*(x4-x2)", "(x4-x1)*(x3-x2)"),
)

IDENTITIES_CHAR2 = (
    ("a*u^2 + a*u + t^2 + t", "0"),
    ("w", "x1 + x2 + x3 + x4"),
    ("y", "x1 + x3"),
    ("z", "x1 + x4"),
    ("a", CROSS_RATIO),
    ("u", "y/w"),
    ("t", "z/w"),
    ("inv_x", "a^2 + a"),
    ("inv_y", "u^2 + u"),
    ("inv_z", "a + u"),
    ("a*(x3-x1)*(x4-x2)", "(x4-x1)*(x3-x2)"),
)


def identities(field_name: str):
    return IDENTITIES_CHAR2 if field_name in CHARACTERISTIC_2 else IDENTITIES_ODD
