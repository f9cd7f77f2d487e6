"""Shared test helpers."""

import random

import pytest

from xratio.ratfunc import rvar


def _genfree_draws(seed, samples):
    """GENFREE's seeded draws, regenerated, each flagged as symmetric or not.

    Uses the checklist's seeding convention (one ``random.Random`` per check,
    seeded with "<seed>-<check id>").  Over F101 every affine map preserving
    a 4-subset has order 2 or 4 (3 does not divide 100), so a draw has a
    nontrivial upper-triangular stabilizer exactly when it splits into two
    pairs with equal sum mod 101, i.e. is symmetric under some x -> c - x.
    """
    q = 101
    rng = random.Random(f"{seed}-GENFREE")
    draws = []
    for _ in range(samples):
        a, b, c, d = raw = rng.sample(range(q), 4)
        symmetric = ((a + b - c - d) % q == 0 or (a + c - b - d) % q == 0
                     or (a + d - b - c) % q == 0)
        draws.append((tuple(raw), symmetric))
    return draws


@pytest.fixture(scope="session")
def genfree_draws():
    """``genfree_draws(seed, samples)`` -> list of (draw, symmetric) pairs."""
    return _genfree_draws


@pytest.fixture(scope="session")
def rvars():
    """``rvars(ring)`` -> every variable of ``ring`` as a rational function."""
    return lambda ring: tuple(rvar(ring, v) for v in ring.variables)
