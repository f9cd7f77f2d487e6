"""The replay checklist: every computational claim, re-verified from scratch.

Each check is a pure function of a :class:`_Ctx` (run configuration plus the
resolved coefficient fields) returning a verdict and human-readable detail
lines, declared once by :func:`check` with its id, the claim it verifies and
its field scope.  The context computes the objects checks share (the
orientation-checked 4-cycle action, certificate verifications, isotropy
decisions, conic parametrizations) once per run and per field; the derived
values and the constant claim and certificate texts are parsed once per
process by :mod:`tables` and :mod:`certs`.  Most claims are one claim per
selected field: such a check is a body for one field, and :func:`_per_field`
runs it over its scope (all, odd, characteristic 2 or finite fields), prefixes
the lines with the field name and applies the one verdict rule, SKIPPED when
no field is in scope or none verified anything.  Checks never abort the run:
any exception inside one becomes a FAIL with the error message in the details,
and one inside a per-field body replaces only that field's lines.
GENFREE, the one sampled check, draws from ``random.Random(f"{seed}-GENFREE")``
so it is reproducible in isolation and the whole run is deterministic for a
given configuration; every other verdict rests on exact work alone.

Several claims are deliberately covered twice by independent routes (for
example, the isotropy criterion is decided symbolically by ISO-CRIT and
confirmed exhaustively by ISO-SEARCH, and the certificate conditions behind
LEM-A-* are re-run wholesale by CERTS); redundancy is the point.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from . import certs, conic, tables
from .autos import perm_automorphism
from .fields import Field, XratioError, field_by_name, prime_field, rationals
from .perms import (all_perms, cyclic_order4_subgroups, has_fixed_point,
                    klein_group, klein_part, perm_str, splits,
                    subgroup_conjugacy_classes, subgroup_str, subgroups)
from .projline import ProjPoint1, borel_stabilizer
from .poly import Ring
from .ratfunc import RatFunc, jacobian_rank, rf_eq
from .report import (ASSUMED, EVIDENCE, FAIL, PASS, SKIPPED, CheckResult,
                     Report, RunConfig)


class _Ctx:
    __slots__ = ("config", "fields", "memo")

    def __init__(self, config, fields):
        self.config, self.fields = config, fields
        self.memo = {}  # shared objects, one run only

    def _once(self, key, make):
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

    def action(self, f: Field):
        return self._once(("action", f.name), lambda: tables.point_action(f))

    def verified(self, name: str, f: Field):
        return self._once(("cert", name, f.name), lambda: certs.verify_certificate(
            certs.shipped_certificate(name), f))

    def decision(self, f: Field):
        return self._once(("decision", f.name), lambda: conic.decide_isotropy(f))

    def param(self, f: Field):
        """The parametrization of `conic.known_point(f)`; f must have one."""
        return self._once(("param", f.name),
                          lambda: conic.parametrize(*conic.known_point(f)))


# scope -> (whether it covers a field, why a check is SKIPPED when no selected
# field is covered)
_SCOPES = {
    "fields": (lambda f: True, "no field selected"),
    "odd_fields": (lambda f: f.characteristic != 2, "no field of characteristic != 2 selected"),
    "char2_fields": (lambda f: f.characteristic == 2, "no field of characteristic 2 selected"),
    "finite_fields": (lambda f: f.is_finite, "no finite field selected"),
}


def _error_line(exc: Exception) -> str:
    """The detail line that reports an exception raised inside a check."""
    return f"error: {exc}" if isinstance(exc, XratioError) else f"internal error: {exc!r}"


def _per_field(scope, body):
    """The check that runs a body `(ctx, f) -> (ok, lines)` over the selected
    fields its _SCOPES entry `scope` covers, prefixing each line with the field
    name.  `ok` is True, False, or None for "verified nothing": the check FAILs
    if any field returns False or raises, is SKIPPED if no field is covered or
    every field returns None, and PASSes otherwise.  A field that raises costs
    only its own lines, which become the error."""
    covers, reason = _SCOPES[scope]

    def run(ctx):
        fields = [f for f in ctx.fields if covers(f)]
        if not fields:
            return SKIPPED, [reason]
        oks, details = [], []
        for f in fields:
            try:
                ok, lines = body(ctx, f)
            except Exception as exc:
                ok, lines = False, [_error_line(exc)]
            oks.append(ok)
            details += [f"{f.name}: {line}" for line in lines]
        if False in oks:
            return FAIL, details
        return (SKIPPED if all(ok is None for ok in oks) else PASS), details
    return run


@dataclass(frozen=True)  # bench/tracer.py rebuilds each spec with dataclasses.replace
class CheckSpec:
    id: str
    anchor: str
    run: object


CHECKS = []  # in declaration order; a tuple once the last check is declared


def check(check_id, anchor, scope=None):
    """Declare the decorated body the check `check_id` of the claim `anchor`.
    With a `scope` the body verifies one field and :func:`_per_field` runs it
    over the fields in that _SCOPES entry; without one it is the whole check."""
    def declare(body):
        CHECKS.append(CheckSpec(check_id, anchor,
                                body if scope is None else _per_field(scope, body)))
        return body
    return declare


def _table_errors(field: Field, act, claims) -> list:
    pairs = zip(claims, tables.claim_values(claims, field))
    return [name for (name, _), (value, image) in pairs
            if not rf_eq(act.apply(value), image)]


def _vanishes(f, text):
    zero = tables.in_derived(text, f).is_zero()
    return zero, [f"{text} " + ("vanishes identically in k(x1..x4)" if zero
                                else "does NOT vanish")]


# -- checks, in run order -----------------------------------------------------


@check("CR-INV", "the cross ratio of four points is fixed exactly by the Klein four-group of "
       "double transpositions", scope="fields")
def _run_cr_inv(ctx, f):
    ring, a, v4 = tables.point_ring(f), tables.derived_values(f)["a"], klein_group()
    bad = [perm_str(p) for p in all_perms()
           if rf_eq(perm_automorphism(ring, p).apply(a), a) != (p in v4)]
    return not bad, [f"wrong invariance at {', '.join(bad)}" if bad
                     else "all 24 permutations behave as predicted"]


@check("SIGMA-TABLE", "away from characteristic 2 the distinguished 4-cycle acts on (w, y, z, a, "
       "u, t, b, x) by the recorded table", scope="odd_fields")
def _run_sigma_table(ctx, f):
    bad = _table_errors(f, ctx.action(f), tables.SIGMA_ODD)
    return not bad, [f"mismatch at {', '.join(bad)}" if bad
                     else f"{len(tables.SIGMA_ODD)}/8 entries verified"]


@check("SIGMA2-TABLE", "the square of the 4-cycle negates w, y, t and fixes z, a, u, b, x",
       scope="odd_fields")
def _run_sigma2_table(ctx, f):
    act = ctx.action(f)
    bad = _table_errors(f, act * act, tables.SIGMA2_ODD)
    return not bad, [f"mismatch at {', '.join(bad)}" if bad
                     else f"{len(tables.SIGMA2_ODD)}/8 entries verified"]


@check("BASIS-IDS", "point differences are half sums/differences of w, y, z, and the cross ratio "
       "equals (w^2 - z^2)/(w^2 - y^2)", scope="odd_fields")
def _run_basis_ids(ctx, f):
    ids = tables.BASIS_IDS_ODD
    bad = [f"{lhs} = {rhs}" for (lhs, rhs), (lv, rv) in zip(ids, tables.claim_values(ids, f))
           if not rf_eq(lv, rv)]
    return not bad, [f"failed: {'; '.join(bad)}" if bad
                     else f"{len(ids)}/7 identities verified"]


@check("CONIC-B", "the pair (u, t) satisfies (1 - a)u^2 - t^2 + a = 0 over the "
       "cross-ratio field", scope="odd_fields")
def _run_conic_b(ctx, f):
    return _vanishes(f, tables.CONIC_ODD_TEXT)


_LEM_A_CERTS = ("negate_invert_full", "negate_base")


@check("LEM-A-INV", "x = b^2, y = b(u^2+1)/(2u), z = (u^2-1)/(2u) are invariant under "
       "b -> -b, u -> -1/u", scope="odd_fields")
def _run_lem_a_inv(ctx, f):
    firsts = [(name, ctx.verified(name, f).conditions[0]) for name in _LEM_A_CERTS]
    return all(c1.ok for _, c1 in firsts), [
        f"{name} invariance " + ("verified" if c1.ok else f"FAILED ({c1.detail})")
        for name, c1 in firsts]


@check("LEM-A-REL", "u is quadratic over the invariants via T^2 - 2zT - 1, every ambient "
       "generator is recovered, and the action has order 2", scope="odd_fields")
def _run_lem_a_rel(ctx, f):
    ok, lines = True, []
    for name in _LEM_A_CERTS:
        ver = ctx.verified(name, f)
        bad = "; ".join(f"({c.index}) {c.detail or c.description}"
                        for c in ver.conditions[1:] if not c.ok)
        ok &= not bad
        lines.append(f"{name} FAILED {bad}" if bad else
                     f"{name} relation kills the primitive, generators recovered, "
                     f"action order matches degree {ver.degree}")
    # the criterion form at (y : z : 1), with x set to the generator x
    ring = Ring(f, ("x", "Y", "Z", "W"))
    q = conic.criterion_form(f).eval_at(*ring.vars()[1:], ring)
    g = ctx.verified("negate_invert_full", f).generators
    conic_rel = RatFunc(ring, q).substitute(
        {"x": g["x"], "Y": g["y"], "Z": g["z"], "W": 1}, g["x"].ring).is_zero()
    lines.append("y^2 - x*z^2 - x " + ("= 0 holds among the generators" if conic_rel
                                       else "does NOT vanish on the generators"))
    return ok and conic_rel, lines


@check("ISO-CRIT", "Y^2 - xZ^2 - xW^2 has a k(x)-point precisely when k contains a "
       "square root of -1", scope="odd_fields")
def _run_iso_crit(ctx, f):
    dec = ctx.decision(f)
    agrees = dec.isotropic == (f.sqrt_minus_one() is not None)
    lines = [f"isotropic, verified witness {dec.witness}" if dec.isotropic else
             f"anisotropic; {len(dec.obstruction.steps)}-step obstruction "
             "verified at every degree (opaque tails)"]
    if not agrees:
        lines.append("DISAGREES with the square-root-of-minus-one criterion")
    return agrees, lines


@check("ISO-SEARCH", "exhaustive bounded-degree point search over finite fields agrees with the "
       "isotropy criterion", scope="finite_fields")
def _run_iso_search(ctx, f):
    d = conic.searchable_degree(f, ctx.config.degree_bound)
    if d < 0:
        return None, ["not searched (degree 0 already exceeds the budget)"]
    form = conic.criterion_form(f)
    pt = conic.bounded_point_search(form, d)
    expect_found = conic.known_point(f) is not None
    if pt is None:
        return not expect_found, [f"no zero with coordinates of degree <= {d} (exhaustive)"]
    on = form.is_point(pt)
    return on and expect_found, [f"first zero up to degree {d} is {pt}"
                                 + ("" if on else " which is NOT on the conic")]


@check("PARAM", "a conic with a point is parametrized by the pencil of lines through it, with "
       "verified forward and inverse maps", scope="fields")
def _run_param(ctx, f):
    inst = conic.known_point(f)
    if inst is None:
        return None, ["no known point, nothing to parametrize"]
    form, base = inst
    pm = ctx.param(f)
    # a spot check of the identities: every element of F_q up to q = 101
    values = (islice(f.elements(), 101) if f.is_finite
              else (-3, -1, 0, 1, 2, 5))
    good = total = 0
    for v in values:
        try:
            p2 = pm.point_at(v)
        except conic.DegenerateConicError:
            continue
        total += 1
        good += form.is_point(p2)
    return total > 0 and good == total, [
        f"base {base}, chart {pm.chart}; forward and inverse identities verified "
        f"symbolically; {good}/{total} sampled parameters land on the conic"]


def _certs_field(ctx, f):
    parts, ok = [], True
    for name, cert in sorted(certs.shipped_certificates().items()):
        if not cert.applies_to(f):
            continue
        ver = ctx.verified(name, f)
        if name in certs.COUNTEREXAMPLE_CERT_NAMES:
            # broken at invariance alone: conditions 2-4 must still hold
            good = [c.ok for c in ver.conditions] == [False, True, True, True]
            parts.append(f"{name} INVALID at condition 1 as intended"
                         if good else f"{name} UNEXPECTEDLY {ver.render()}")
        else:
            good = ver.valid
            parts.append(f"{name} VALID" if good else ver.render())
        ok &= good
    return ok, [", ".join(parts)]


@check("CERTS", "all shipped fixed-field certificates verify, and the deliberately perturbed "
       "fixture fails exactly the invariance condition")
def _run_certs(ctx):
    verdict, details = _per_field("fields", _certs_field)(ctx)
    checked = sum(cert.applies_to(f) for cert in certs.shipped_certificates().values()
                  for f in ctx.fields)
    details.append(f"{checked} certificate/field instances checked")
    return verdict, details


@check("CHAR2-TABLE", "in characteristic 2 the 4-cycle fixes w, shifts a and u by 1, and the "
       "recorded sigma and sigma^2 tables hold", scope="char2_fields")
def _run_char2_table(ctx, f):
    act = ctx.action(f)
    bad1 = _table_errors(f, act, tables.SIGMA_CHAR2)
    bad2 = _table_errors(f, act * act, tables.SIGMA2_CHAR2)
    if bad1 or bad2:
        return False, [f"mismatch at {', '.join(bad1)} / {', '.join(bad2)}"]
    return True, [f"sigma {len(tables.SIGMA_CHAR2)}/9 and "
                  f"sigma^2 {len(tables.SIGMA2_CHAR2)}/9 entries verified"]


@check("CONIC-C", "in characteristic 2 the pair (u, t) satisfies t^2 + t = a u^2 + a u over the "
       "cross-ratio field", scope="char2_fields")
def _run_conic_c(ctx, f):
    return _vanishes(f, tables.CONIC_CHAR2_TEXT)


_LEM_B_CERTS = ("shift_full_char2", "shift_base_char2", "conic_reflection_char2")


@check("LEM-B-ALL", "the characteristic-2 chain holds: the conic point (x : 1 : 1), the shift "
       "certificates, and the invariance of a^2+a, u^2+u, a+u", scope="char2_fields")
def _run_lem_b_all(ctx, f):
    form, pt = conic.known_point(f)
    on = form.is_point(pt)
    lines = ["(x : 1 : 1) " + ("lies on" if on else "is NOT on") + " the conic"]
    vers = [ctx.verified(name, f) for name in _LEM_B_CERTS]
    lines += [f"{name} " + ("VALID" if ver.valid else ver.render())
              for name, ver in zip(_LEM_B_CERTS, vers)]
    vals, act = tables.derived_values(f), ctx.action(f)
    moved = [n for n in ("inv_x", "inv_y", "inv_z")
             if not rf_eq(act.apply(vals[n]), vals[n])]
    lines.append("invariants a^2+a, u^2+u, a+u " + (
        "all fixed by the 4-cycle" if not moved else f"moved: {', '.join(moved)}"))
    return on and all(ver.valid for ver in vers) and not moved, lines


@check("SPLIT", "all 30 subgroups of the symmetric group on four letters split over their Klein "
       "part except the three cyclic groups of order 4")
def _run_split(ctx):
    subs = subgroups()
    nonsplit, bad_witness = [], []
    for s in subs:
        did, comp = splits(s)
        if not did:
            nonsplit.append(s)
            continue
        kern = klein_part(s)
        if len(comp & kern) != 1 or len(comp) * len(kern) != len(s):
            bad_witness.append(subgroup_str(s))
    expected = set(cyclic_order4_subgroups())
    ok = set(nonsplit) == expected and not bad_witness
    details = [f"{len(subs) - len(nonsplit)}/{len(subs)} subgroups split over "
               "their Klein part"]
    details.append("non-split subgroups: "
                   + "; ".join(sorted(subgroup_str(s) for s in nonsplit)))
    if set(nonsplit) != expected:
        details.append("EXPECTED exactly the three cyclic order-4 subgroups")
    if bad_witness:
        details.append(f"bad complement witnesses: {'; '.join(bad_witness)}")
    return (PASS if ok else FAIL), details


@check("FIX-EQ", "a subgroup fixes one of the four letters exactly when it meets the Klein "
       "four-group trivially")
def _run_fix_eq(ctx):
    subs = subgroups()
    bad = [subgroup_str(s) for s in subs
           if has_fixed_point(s) != (len(klein_part(s)) == 1)]
    details = [f"{len(subs) - len(bad)}/{len(subs)} subgroups satisfy: fixed point "
               "on the four letters <=> trivial intersection with the Klein group"]
    if bad:
        details.append(f"equivalence fails for: {'; '.join(bad)}")
    return (PASS if not bad else FAIL), details


@check("SUBGRP-COUNT", "the symmetric group on four letters has 30 subgroups in 11 conjugacy "
       "classes with the recorded order profile")
def _run_subgrp_count(ctx):
    subs = subgroups()
    classes = subgroup_conjugacy_classes()
    profile = Counter(len(s) for s in subs)
    expected = {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    ok = len(subs) == 30 and len(classes) == 11 and dict(profile) == expected
    details = [f"{len(subs)} subgroups in {len(classes)} conjugacy classes",
               "order profile " + " ".join(f"{k}:{v}" for k, v in sorted(profile.items()))]
    if not ok:
        details.append("EXPECTED 30 subgroups, 11 classes, profile "
                       + " ".join(f"{k}:{v}" for k, v in sorted(expected.items())))
    return (PASS if ok else FAIL), details


@check("GENFREE", "randomly sampled 4-subsets of the affine line over F101 generically have "
       "trivial upper-triangular stabilizer")
def _run_genfree(ctx):
    import random  # GENFREE is the one sampled check
    rng = random.Random(f"{ctx.config.seed}-GENFREE")
    f101 = prime_field(101)
    n = ctx.config.samples
    trivial = 0
    for _ in range(n):
        raw = rng.sample(range(101), 4)
        pts = [ProjPoint1.affine(f101, v) for v in raw]
        if len(borel_stabilizer(pts, f101)) == 1:
            trivial += 1
    special = [ProjPoint1.affine(f101, v) for v in (0, 1, 2)]
    special.append(ProjPoint1.infinity(f101))
    special_stab = borel_stabilizer(special, f101)
    details = [
        f"{trivial}/{n} sampled 4-subsets of the affine line over F101 have "
        "trivial stabilizer in the upper-triangular group",
        "every exceptional affine set is symmetric under some involution "
        "x -> c - x; such sets are 123725/4082925 (about 3.03%) of all 4-subsets",
        f"designed exceptional tuple (0, 1, 2, infinity) has stabilizer of "
        f"order {len(special_stab)}",
    ]
    if len(special_stab) <= 1:
        details.append("EXPECTED a nontrivial stabilizer for the designed tuple")
        return FAIL, details
    return EVIDENCE, details


@check("INDEP", "the cross ratio a and the ratio u are algebraically independent")
def _run_indep(ctx):
    q = rationals()
    vq = tables.derived_values(q)
    rank = jacobian_rank([vq["a"], vq["u"]], tables.POINT_VARS)
    ok0 = rank == 2
    details = [f"Jacobian of (a, u) in (x1..x4) has rank {rank} over Q "
               "(exact, characteristic 0)"]
    if not any(f.characteristic == 2 for f in ctx.fields):
        return (PASS if ok0 else FAIL), details
    details.append("independence in characteristic 2 is used without an "
                   "independent mechanical proof here")
    return (ASSUMED if ok0 else FAIL), details


def _main_b_field(ctx, f):
    dec = ctx.decision(f)
    if dec.isotropic:
        ctx.param(f)  # the witness is conic.known_point's (0 : s : 1)
        line = (f"RATIONAL over the cross-ratio subfield; conic point "
                f"{dec.witness} with verified parametrization")
    else:
        line = ("NOT rational: the presentation conic is anisotropic "
                "(verified obstruction, every degree)")
    return dec.isotropic == (f.sqrt_minus_one() is not None), [line]


@check("MAIN-B-VERDICT", "away from characteristic 2, the 4-cycle invariant field is "
       "rational over the cross-ratio invariants exactly when the coefficient field "
       "contains a square root of -1")
def _run_main_b(ctx):
    verdict, details = _per_field("odd_fields", _main_b_field)(ctx)
    if verdict != SKIPPED:
        details.append("criterion: rational exactly when the coefficient field "
                       "contains a square root of -1")
    return verdict, details


@check("MAIN-C-VERDICT", "in characteristic 2 the 4-cycle invariant field is always rational "
       "over the cross-ratio invariants", scope="char2_fields")
def _run_main_c(ctx, f):
    form, pt = conic.known_point(f)
    on = form.is_point(pt)
    certs_ok = all(ctx.verified(n, f).valid for n in _LEM_B_CERTS)
    if on:
        ctx.param(f)
    return on and certs_ok, [
        "RATIONAL; explicit conic point (x : 1 : 1), verified parametrization "
        "and certificate chain" if on and certs_ok else
        f"chain broken (point on conic: {on}, certificates valid: {certs_ok})"]


CHECKS = tuple(CHECKS)
CHECK_IDS = tuple(spec.id for spec in CHECKS)


def resolve_fields(names) -> tuple:
    return tuple(field_by_name(n) for n in names)


def run_checklist(config: RunConfig, only=None) -> Report:
    """Run the selected checks (all by default) and collect a Report."""
    fields = resolve_fields(config.fields)
    if only is not None:
        if not only:
            raise XratioError("no check ids given")
        wanted = set(only)
        if len(wanted) != len(only):
            raise XratioError(f"duplicate check ids in {','.join(only)}")
        unknown = sorted(wanted - set(CHECK_IDS))
        if unknown:
            raise XratioError(f"unknown check ids: {', '.join(unknown)}")
        selected = [spec for spec in CHECKS if spec.id in wanted]
    else:
        selected = list(CHECKS)
    ctx = _Ctx(config, fields)
    results = []
    for spec in selected:
        t0 = time.perf_counter()
        try:
            verdict, details = spec.run(ctx)
        except Exception as exc:
            verdict, details = FAIL, [_error_line(exc)]
        ms = int((time.perf_counter() - t0) * 1000)
        results.append(CheckResult(spec.id, spec.anchor, verdict, list(details), ms))
    results.sort(key=lambda r: r.id)
    return Report(config, results)
