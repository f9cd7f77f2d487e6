"""End-to-end acceptance gate.

Eight criteria, one test each, executed in order.  Every test prints a single
summary line `ACCEPTANCE <n> <name>: PASS|FAIL -- <detail> (<t> s)` before
asserting, so a transcript of the run always shows the verdict per criterion.
Symbolic assertions are exact.  The stabilizer sampling criterion checks
its seeded sample exactly: every draw is recounted by the equal-pair-sum rule
and the reported trivial count must match.  Its only statistical assertion is
a bound on the exceptional count, derived from the exact exceptional fraction
so that a faithful sampler exceeds it with probability below 1e-3.
"""

import subprocess
import sys
import time
from math import comb
from pathlib import Path

from xratio import conic
from xratio.certs import (VALID_CERT_NAMES, shipped_certificate,
                          verify_certificate)
from xratio.checks import run_checklist
from xratio.fields import field_by_name, prime_field, rationals
from xratio.perms import cyclic_order4_subgroups, splits, subgroups
from xratio.projline import ProjPoint1, borel_stabilizer
from xratio.ratfunc import rf_eq
from xratio.report import ASSUMED, EVIDENCE, PASS, RunConfig

IDENTITY_IDS = ("CR-INV", "SIGMA-TABLE", "SIGMA2-TABLE", "BASIS-IDS",
                "CONIC-B", "LEM-A-INV", "LEM-A-REL", "CHAR2-TABLE",
                "CONIC-C", "LEM-B-ALL")
GROUP_IDS = ("SUBGRP-COUNT", "SPLIT", "FIX-EQ")


def _line(n, name, ok, detail, secs):
    word = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {name}: {word} -- {detail} ({secs:.2f} s)")
    return ok


def _verdicts(only, **cfg):
    report = run_checklist(RunConfig(**cfg), only=set(only))
    return {c.id: c for c in report.checks}


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    by_id = _verdicts(IDENTITY_IDS)
    secs = time.perf_counter() - start
    bad = [cid for cid in IDENTITY_IDS if by_id[cid].verdict != PASS]
    ok = not bad and secs < 10.0
    detail = f"{len(IDENTITY_IDS)} symbolic identity checks, exact equality"
    if bad:
        detail = "non-PASS: " + ", ".join(bad)
    assert _line(1, "identity-suite", ok, detail, secs)
    assert secs < 10.0


def test_criterion_2_group_suite():
    start = time.perf_counter()
    by_id = _verdicts(GROUP_IDS)
    non_split = [s for s in subgroups() if not splits(s)[0]]
    expected = {frozenset(s) for s in cyclic_order4_subgroups()}
    secs = time.perf_counter() - start
    ok = (all(by_id[cid].verdict == PASS for cid in GROUP_IDS)
          and len(non_split) == 3
          and {frozenset(s) for s in non_split} == expected
          and secs < 1.0)
    assert _line(2, "group-suite", ok,
                 "30 subgroups, 11 classes, 3 non-split (all cyclic of "
                 "order 4), fixed-point criterion everywhere", secs)
    assert secs < 1.0


def test_criterion_3_isotropy_dichotomy():
    start = time.perf_counter()
    by_id = _verdicts(("ISO-CRIT", "ISO-SEARCH"))
    outcomes = {name: conic.decide_isotropy(field_by_name(name)).isotropic
                for name in ("Q", "Q(i)", "F3", "F5")}
    f3_none = conic.bounded_point_search(criterion := conic.criterion_form(
        prime_field(3)), 2)
    f5_hit = conic.bounded_point_search(conic.criterion_form(prime_field(5)), 0)
    secs = time.perf_counter() - start
    ok = (by_id["ISO-CRIT"].verdict == PASS
          and by_id["ISO-SEARCH"].verdict == PASS
          and outcomes == {"Q": False, "Q(i)": True, "F3": False, "F5": True}
          and f3_none is None and str(f5_hit) == "(0 : 2 : 1)"
          and secs < 5.0)
    assert _line(3, "isotropy-dichotomy", ok,
                 "isotropic over Q(i), F5; anisotropic over Q, F3; exhaustive "
                 "degree-2 search over F3 empty; F5 zero (0 : 2 : 1)", secs)
    assert secs < 5.0
    assert criterion.is_smooth()


def test_criterion_4_rationality_witnesses():
    start = time.perf_counter()
    qi = field_by_name("Q(i)")
    form_b = conic.standard_form(qi)
    base_b = conic.ProjPoint2(form_b.ring, (0, qi.sqrt_minus_one(), 1))
    pm_b = conic.parametrize(form_b, base_b)

    f2 = prime_field(2)
    form_c = conic.char2_form(f2)
    from xratio.ratfunc import rvar
    base_c = conic.ProjPoint2(form_c.ring, (rvar(form_c.ring, "x"), 1, 1))
    pm_c = conic.parametrize(form_c, base_c)

    checks = []
    for form, pm in ((form_b, pm_b), (form_c, pm_c)):
        fy, fz, fw = pm.forward
        plugged = form.eval_at(fy, fz, fw, target_ring=pm.param_ring)
        checks.append(rf_eq(plugged, 0))
        n1, n2 = pm.affine_names
        from xratio.ratfunc import RatFunc, rat
        ry = RatFunc(pm.param_ring, fy, fw)
        rz = RatFunc(pm.param_ring, fz, fw)
        images = {n1: ry, n2: rz,
                  "x": rat(pm.param_ring, pm.param_ring.var("x"))}
        recovered = pm.inverse.substitute(images, pm.param_ring)
        checks.append(rf_eq(recovered, rvar(pm.param_ring, "s")))
    secs = time.perf_counter() - start
    ok = all(checks)
    assert _line(4, "rationality-witnesses", ok,
                 f"forward {tuple(str(p) for p in pm_b.forward)} over Q(i) "
                 f"and {tuple(str(p) for p in pm_c.forward)} over F2; "
                 "form(forward) = 0 and inverse(forward) = s exactly", secs)


def test_criterion_5_certificates():
    start = time.perf_counter()
    outcomes = {}
    for name in VALID_CERT_NAMES:
        cert = shipped_certificate(name)
        field = prime_field(2) if cert.characteristic == "2" else rationals()
        outcomes[name] = verify_certificate(cert, field).valid
    perturbed = verify_certificate(
        shipped_certificate("negate_invert_perturbed"), rationals())
    flags = [c.ok for c in perturbed.conditions]
    secs = time.perf_counter() - start
    ok = all(outcomes.values()) and flags == [False, True, True, True]
    assert _line(5, "certificates", ok,
                 "6 shipped certificates valid; perturbed fixture fails "
                 "exactly condition (1)", secs)


def test_criterion_6_aggregate_verdicts():
    start = time.perf_counter()
    by_id = _verdicts(("MAIN-B-VERDICT", "MAIN-C-VERDICT"))
    rational = {name: conic.decide_isotropy(field_by_name(name)).isotropic
                for name in ("Q", "Q(i)", "F3", "F5")}
    secs = time.perf_counter() - start
    ok = (by_id["MAIN-B-VERDICT"].verdict == PASS
          and by_id["MAIN-C-VERDICT"].verdict == PASS
          and rational == {"Q": False, "Q(i)": True, "F3": False, "F5": True})
    assert _line(6, "aggregate-verdicts", ok,
                 "rational over Q(i), F5, F2; not rational over Q, F3", secs)


def _exceptional_bound(samples, q, false_alarm):
    """Smallest k with P(Binomial(samples, p) > k) < false_alarm, and that tail.

    p = q * C((q - 1) / 2, 2) / C(q, 4) is the exact fraction of 4-subsets of
    F_q symmetric under some x -> c - x (q involutions, C((q - 1) / 2, 2)
    sets each, no set counted twice).
    """
    p = q * comb((q - 1) // 2, 2) / comb(q, 4)
    k, tail = 0, 1 - (1 - p) ** samples
    while tail >= false_alarm:
        k += 1
        tail -= comb(samples, k) * p ** k * (1 - p) ** (samples - k)
    return k, tail


def test_criterion_7_generic_freeness_sampling(genfree_draws):
    seed, samples, q = 0, 100, 101
    start = time.perf_counter()
    by_id = _verdicts(("GENFREE",), seed=seed, samples=samples)
    res = by_id["GENFREE"]
    reported = int(res.details[0].split("/", 1)[0])
    f101 = prime_field(q)
    affine = [ProjPoint1.affine(f101, f101.from_int(v)) for v in range(q)]
    special = affine[:3] + [ProjPoint1.infinity(f101)]
    designed_order = len(borel_stabilizer(special, f101))
    draws = genfree_draws(seed, samples)
    mismatched = [raw for raw, symmetric in draws
                  if (len(borel_stabilizer([affine[v] for v in raw], f101)) > 1)
                  != symmetric]
    exceptional = sum(symmetric for _, symmetric in draws)
    bound, false_alarm = _exceptional_bound(samples, q, 1e-3)
    secs = time.perf_counter() - start
    ok = (not mismatched and reported == samples - exceptional
          and exceptional <= bound and res.verdict == EVIDENCE
          and designed_order > 1 and secs < 10.0)
    _line(7, "generic-freeness", ok,
          f"{reported}/{samples} sampled 4-subsets trivial, recounted exactly "
          f"by the equal-pair-sum rule ({len(mismatched)} mismatches); "
          f"{exceptional} exceptional <= bound {bound} "
          f"(false alarm {false_alarm:.1e}), verdict {res.verdict}, designed "
          f"tuple stabilizer order {designed_order}", secs)
    assert res.verdict == EVIDENCE
    assert designed_order > 1
    assert secs < 10.0
    assert not mismatched, (
        f"borel_stabilizer disagrees with the equal-pair-sum rule on {mismatched}")
    assert reported == samples - exceptional, (
        f"GENFREE reports {reported}/{samples} trivial; the recount of the "
        f"same seeded draws gives {samples - exceptional}")
    assert exceptional <= bound, (
        f"{exceptional}/{samples} exceptional draws exceed {bound}, which a "
        f"faithful uniform sampler exceeds with probability {false_alarm:.1e}")


def test_criterion_8_property_suites():
    start = time.perf_counter()
    suite = Path(__file__).with_name("test_properties.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(suite)],
        capture_output=True, text=True)
    secs = time.perf_counter() - start
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    assert _line(8, "property-suites", ok,
                 f"ring/field/substitution laws at 1000 cases each plus the "
                 f"exhaustive 24x24 composition table ({tail})", secs), \
        proc.stdout + proc.stderr
