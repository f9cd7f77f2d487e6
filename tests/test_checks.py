import json
from collections import Counter

import jsonschema
import pytest

from xratio import certs, checks, conic, exprparse, tables
from xratio.autos import Automorphism
from xratio.certs import Certificate
from xratio.checks import CHECK_IDS, CHECKS, resolve_fields, run_checklist
from xratio.fields import PrimeField, XratioError, field_by_name
from xratio.report import (ASSUMED, DEFAULT_FIELDS, EVIDENCE, FAIL, PASS,
                           REPORT_SCHEMA, SKIPPED, CheckResult, Report,
                           RunConfig)

EXPECTED_IDS = (
    "BASIS-IDS", "CERTS", "CHAR2-TABLE", "CONIC-B", "CONIC-C", "CR-INV",
    "FIX-EQ", "GENFREE", "INDEP", "ISO-CRIT", "ISO-SEARCH", "LEM-A-INV",
    "LEM-A-REL", "LEM-B-ALL", "MAIN-B-VERDICT", "MAIN-C-VERDICT", "PARAM",
    "SIGMA-TABLE", "SIGMA2-TABLE", "SPLIT", "SUBGRP-COUNT",
)


@pytest.fixture(scope="module")
def default_report():
    return run_checklist(RunConfig())


def test_checklist_inventory():
    assert len(CHECKS) == 21
    assert sorted(CHECK_IDS) == sorted(EXPECTED_IDS)
    assert all(spec.anchor for spec in CHECKS)


def test_default_run_verdicts(default_report):
    rep = default_report
    by_id = {c.id: c for c in rep.checks}
    assert sorted(by_id) == sorted(EXPECTED_IDS)
    assert by_id["GENFREE"].verdict == EVIDENCE
    assert by_id["INDEP"].verdict == ASSUMED
    for cid, res in by_id.items():
        if cid in ("GENFREE", "INDEP"):
            continue
        assert res.verdict == PASS, f"{cid}: {res.verdict} {res.details}"
    assert rep.exit_code == 0


def test_results_sorted_by_id(default_report):
    ids = [c.id for c in default_report.checks]
    assert ids == sorted(ids)


def test_only_filter_runs_selected_checks():
    rep = run_checklist(RunConfig(), only={"SPLIT"})
    assert [c.id for c in rep.checks] == ["SPLIT"]
    assert rep.checks[0].verdict == PASS


def test_unknown_check_id_rejected():
    with pytest.raises(XratioError, match="unknown check ids"):
        run_checklist(RunConfig(), only={"SPLIT", "NOPE"})


@pytest.mark.parametrize("only", [(), set(), []])
def test_empty_check_selection_rejected(only):
    with pytest.raises(XratioError, match="no check ids given"):
        run_checklist(RunConfig(), only=only)


def test_resolve_fields_validates_names():
    fields = resolve_fields(DEFAULT_FIELDS)
    assert [f.name for f in fields] == list(DEFAULT_FIELDS)
    with pytest.raises(XratioError):
        resolve_fields(("Q", "F4"))


def test_rational_only_run_skips_char2_checks():
    rep = run_checklist(RunConfig(fields=("Q",)))
    by_id = {c.id: c for c in rep.checks}
    for cid in ("CHAR2-TABLE", "CONIC-C", "LEM-B-ALL", "MAIN-C-VERDICT",
                "ISO-SEARCH"):
        assert by_id[cid].verdict == SKIPPED, cid
    assert by_id["CR-INV"].verdict == PASS
    assert by_id["INDEP"].verdict == PASS
    assert rep.exit_code == 0


def test_char2_only_run_skips_odd_checks():
    rep = run_checklist(RunConfig(fields=("F2",)))
    by_id = {c.id: c for c in rep.checks}
    for cid in ("SIGMA-TABLE", "BASIS-IDS", "CONIC-B", "LEM-A-INV",
                "LEM-A-REL", "ISO-CRIT", "MAIN-B-VERDICT"):
        assert by_id[cid].verdict == SKIPPED, cid
    assert by_id["CHAR2-TABLE"].verdict == PASS
    assert by_id["CONIC-C"].verdict == PASS


def test_genfree_reports_sample_statistics(default_report, genfree_draws):
    res = {c.id: c for c in default_report.checks}["GENFREE"]
    cfg = default_report.config
    draws = genfree_draws(cfg.seed, cfg.samples)
    trivial = sum(not symmetric for _, symmetric in draws)
    assert res.details[0].startswith(f"{trivial}/{cfg.samples} sampled")
    assert res.verdict == EVIDENCE


def test_json_deterministic_and_schema_valid(default_report):
    second = run_checklist(RunConfig())
    assert default_report.to_json() == second.to_json()
    payload = json.loads(default_report.to_json())
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["run"]["seed"] == 0
    assert payload["run"]["fields"] == list(DEFAULT_FIELDS)
    assert all(entry["ms"] == 0 for entry in payload["checks"])
    assert default_report.to_json().endswith("\n")


def test_text_report_layout(default_report):
    text = default_report.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("replay 0.1.0  seed=0  fields=Q,Q(i),F2,F3,F5")
    assert lines[1] == ""  # the configuration line alone: no axiom line remains
    assert not any(line.startswith("axiom") for line in lines)
    assert lines[-1] == "overall: OK"
    assert any(line.startswith("summary: 21 checks") for line in lines)


def test_exit_code_reflects_failures():
    cfg = RunConfig()
    rep = Report(cfg, [CheckResult("X", "anchor", FAIL, ["boom"], 3)])
    assert rep.exit_code == 1
    assert rep.counts()[FAIL] == 1
    assert "overall: FAIL" in rep.to_text()


def test_skipped_is_not_a_pass():
    rep = run_checklist(RunConfig(fields=("Q",)))
    counts = rep.counts()
    assert counts[SKIPPED] >= 5
    assert counts[PASS] + counts[EVIDENCE] + counts[ASSUMED] \
        + counts[SKIPPED] == 21
    assert counts[FAIL] == 0


def test_iso_search_that_searched_nothing_is_skipped():
    res = run_checklist(RunConfig(fields=("F1009",)), only={"ISO-SEARCH"}).checks[0]
    assert res.verdict == SKIPPED
    assert res.details == ["F1009: not searched (degree 0 already exceeds the budget)"]
    mixed = run_checklist(RunConfig(fields=("F3", "F1009")), only={"ISO-SEARCH"})
    assert mixed.checks[0].verdict == PASS


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 0}, "samples must be >= 1"),
    ({"degree_bound": -1}, "degree bound must be >= 0"),
    ({"degree_bound": -2}, "degree bound must be >= 0, got -2"),
    ({"fields": ("Q", "F3", "Q")}, "duplicate field names"),
    ({"fields": ()}, "no fields selected"),
])
def test_run_config_rejects_bad_values(kwargs, message):
    with pytest.raises(XratioError, match=message):
        RunConfig(**kwargs)


def test_run_config_refuses_names_that_repeat_after_stripping():
    with pytest.raises(XratioError, match=r"^duplicate field names in F5,F5$"):
        RunConfig(fields=("F5", " F5"))
    rep = run_checklist(RunConfig(fields=(" F5 ", "Q")), only=["CERTS"])
    assert json.loads(rep.to_json())["run"]["fields"] == ["F5", "Q"]
    assert rep.checks[0].details[-1] == "8 certificate/field instances checked"


def test_each_check_result_starts_with_its_own_detail_list():
    first, second = CheckResult("X", "anchor", PASS), CheckResult("Y", "anchor", PASS)
    first.details.append("one")
    assert second.details == []


def test_seed_changes_genfree_sampling_details():
    a = run_checklist(RunConfig(seed=1), only={"GENFREE"})
    b = run_checklist(RunConfig(seed=2), only={"GENFREE"})
    assert a.checks[0].details != b.checks[0].details


def test_run_computes_shared_objects_once_per_run(monkeypatch):
    verified, decided, parametrized = Counter(), Counter(), Counter()
    real_verify = certs.verify_certificate
    real_decide, real_param = conic.decide_isotropy, conic.parametrize

    def counting_verify(cert, field):
        verified[(cert.name, field.name)] += 1
        return real_verify(cert, field)

    def counting_decide(field):
        decided[field.name] += 1
        return real_decide(field)

    def counting_param(form, point):
        parametrized[form.ring.field.name] += 1
        return real_param(form, point)

    monkeypatch.setattr(certs, "verify_certificate", counting_verify)
    monkeypatch.setattr(conic, "decide_isotropy", counting_decide)
    monkeypatch.setattr(conic, "parametrize", counting_param)
    tables._resolved.cache_clear()
    first = run_checklist(RunConfig())
    assert len(verified) == 19
    assert set(verified.values()) == {1}
    # each derived name of each field's table is resolved once per process
    resolved = tables._resolved.cache_info()
    assert resolved.misses == 4 * 8 + 9
    # ISO-CRIT and MAIN-B-VERDICT share one decision per odd field; PARAM,
    # MAIN-B-VERDICT and MAIN-C-VERDICT share one parametrization per field
    # with a known conic point (a square root of -1, or characteristic 2)
    assert decided == {"Q": 1, "Q(i)": 1, "F3": 1, "F5": 1}
    assert parametrized == {"Q(i)": 1, "F2": 1, "F5": 1}
    # a second run shares only the derived values with the first
    second = run_checklist(RunConfig())
    assert set(verified.values()) == {2}
    assert tables._resolved.cache_info().misses == resolved.misses
    assert second.to_json() == first.to_json()


def test_a_table_patched_after_a_warm_run_still_fails(monkeypatch):
    run_checklist(RunConfig(fields=("Q",)))
    broken = tuple((name, "y" if name == "w" else image)
                   for name, image in tables.SIGMA_ODD)
    monkeypatch.setattr(tables, "SIGMA_ODD", broken)
    res = run_checklist(RunConfig(fields=("Q",)), only={"SIGMA-TABLE"}).checks[0]
    assert (res.verdict, res.details) == (FAIL, ["Q: mismatch at w"])



def test_cr_inv_names_the_wrong_permutations_in_cycle_notation(monkeypatch):
    # x1 + x2 - x3 - x4 is fixed by (1 2) and (3 4), which are not in the
    # Klein group, and moved by (1 3)(2 4) and (1 4)(2 3), which are
    bent = tuple((name, "x1 + x2 - x3 - x4" if name == "a" else text)
                 for name, text in tables.DERIVED_ODD)
    monkeypatch.setattr(tables, "DERIVED_ODD", bent)
    res = run_checklist(RunConfig(fields=("Q",)), only={"CR-INV"}).checks[0]
    assert (res.verdict, res.details) == (
        FAIL, ["Q: wrong invariance at (3 4), (1 2), (1 3)(2 4), (1 4)(2 3)"])


def _rebuilt(cert, **changes):
    """A copy of the certificate `cert` with the fields in `changes` replaced."""
    fields = {name: getattr(cert, name) for name in Certificate.__slots__}
    return Certificate(**{**fields, **changes})


def _recorded_parses(monkeypatch):
    """Record the text, without spaces, of each parse `tables` and `certs` make."""
    seen, real = [], exprparse.parse_expression

    def recording(text, ring):
        seen.append("".join(text.split()) if isinstance(text, str) else
                    "".join(str(v) for kind, v, _ in text if kind != "end"))
        return real(text, ring)

    monkeypatch.setattr(tables, "parse_expression", recording)
    monkeypatch.setattr(certs, "parse_expression", recording)
    return seen


def _recorded_work(monkeypatch):
    """Count, per run, the comparisons the checks make, the orientation checks
    and, per certificate/field instance, the work of each condition."""
    work, current, vers = Counter(), [], {}
    real_verify = certs.verify_certificate
    real_fixes, real_power = Automorphism.fixes, Automorphism.identity_power
    real_subst, real_eq, real_tables_eq = certs._substitute, checks.rf_eq, tables.rf_eq

    def verify(cert, field):
        current.append((cert.name, field.name))
        vers[current[-1]] = real_verify(cert, field)
        return vers[current[-1]]

    def counted(key, real):
        def run(*args):
            work[key() if callable(key) else key] += 1
            return real(*args)
        return run

    monkeypatch.setattr(certs, "verify_certificate", verify)
    monkeypatch.setattr(Automorphism, "fixes", counted(lambda: (current[-1], 1), real_fixes))
    monkeypatch.setattr(certs, "_substitute", counted(lambda: (current[-1], "2+3"), real_subst))
    monkeypatch.setattr(Automorphism, "identity_power",
                        counted(lambda: (current[-1], 4), real_power))
    monkeypatch.setattr(checks, "rf_eq", counted("compared", real_eq))
    monkeypatch.setattr(tables, "rf_eq", counted("oriented", real_tables_eq))
    return work, vers


def test_a_second_run_parses_no_constant_text_but_runs_every_check(monkeypatch):
    tables._claim_values.cache_clear()
    certs._parse.cache_clear()
    parsed = _recorded_parses(monkeypatch)
    work, vers = _recorded_work(monkeypatch)
    first = run_checklist(RunConfig())
    cold_parsed, cold_work = list(parsed), Counter(work)
    del parsed[:]
    work.clear()
    second = run_checklist(RunConfig())
    # the claim and certificate texts were parsed by the first run only; the
    # conic texts are parsed by every run, as for them the parse is the check
    conics = ["".join(tables.CONIC_ODD_TEXT.split())] * 4 + [
        "".join(tables.CONIC_CHAR2_TEXT.split())]
    assert sorted(parsed) == sorted(conics)
    assert len(cold_parsed) > 10 * len(parsed)
    assert work == cold_work
    assert work["oriented"] == len(DEFAULT_FIELDS)
    assert len(vers) == 19
    for (name, field_name), ver in vers.items():
        cert = certs.shipped_certificate(name)
        assert ver.valid == (name not in certs.COUNTEREXAMPLE_CERT_NAMES)
        assert work[((name, field_name), 1)] == len(cert.generators)
        assert work[((name, field_name), "2+3")] == 1 + len(cert.expressions)
        assert work[((name, field_name), 4)] == 1
    assert second.to_json() == first.to_json()


def test_a_warm_run_compares_every_claim(monkeypatch):
    claim_checks = {"SIGMA-TABLE", "SIGMA2-TABLE", "BASIS-IDS", "CHAR2-TABLE"}
    run_checklist(RunConfig(), only=claim_checks)
    parsed = _recorded_parses(monkeypatch)
    work, _ = _recorded_work(monkeypatch)
    rep = run_checklist(RunConfig(), only=claim_checks)
    assert parsed == []
    # SIGMA, SIGMA2 (8 entries each) and BASIS-IDS (7) over the four odd
    # fields, sigma and sigma^2 (9 entries each) over F2
    assert work["compared"] == 4 * (8 + 8 + 7) + 9 + 9
    assert {c.verdict for c in rep.checks} == {PASS}


def test_a_replaced_certificate_or_table_after_a_warm_run_is_parsed_afresh(monkeypatch):
    certs._parse.cache_clear()
    run_checklist(RunConfig(fields=("Q",)))
    q = field_by_name("Q")
    cert = certs.shipped_certificate("negate_invert_full")
    parsed = _recorded_parses(monkeypatch)
    assert certs.verify_certificate(cert, q).valid
    assert parsed == []
    bad = _rebuilt(cert, auto_images=[("b", "b"), ("u", "-1/u")])
    ver = certs.verify_certificate(bad, q)
    assert parsed[:2] == ["b", "-1/u"]
    assert [c.ok for c in ver.conditions] == [False, True, True, True]
    assert "INVALID" in ver.render()
    del parsed[:]
    broken = tuple((name, "y" if name == "w" else image)
                   for name, image in tables.SIGMA_ODD)
    monkeypatch.setattr(tables, "SIGMA_ODD", broken)
    res = run_checklist(RunConfig(fields=("Q",)), only={"SIGMA-TABLE"}).checks[0]
    assert "y" in parsed
    assert (res.verdict, res.details) == (FAIL, ["Q: mismatch at w"])


def test_broken_table_entry_fails_once_per_odd_field(monkeypatch, default_report):
    broken = tuple((name, "y" if name == "w" else image)
                   for name, image in tables.SIGMA_ODD)
    monkeypatch.setattr(tables, "SIGMA_ODD", broken)
    rep = run_checklist(RunConfig())
    by_id = {c.id: c for c in rep.checks}
    assert by_id["SIGMA-TABLE"].verdict == FAIL
    assert by_id["SIGMA-TABLE"].details == [
        f"{name}: mismatch at w" for name in ("Q", "Q(i)", "F3", "F5")]
    assert {c.id: c.verdict for c in rep.checks if c.id != "SIGMA-TABLE"} == {
        c.id: c.verdict for c in default_report.checks if c.id != "SIGMA-TABLE"}


def test_one_failing_field_outweighs_fields_that_verified_nothing(monkeypatch):
    # F5 has a square root of -1; hiding its known point makes the point the
    # search finds unexpected, while F1009 is too large to search at all
    real = conic.known_point
    monkeypatch.setattr(conic, "known_point",
                        lambda f: None if f.name == "F5" else real(f))
    res = run_checklist(RunConfig(fields=("F5", "F1009")),
                        only={"ISO-SEARCH"}).checks[0]
    assert res.verdict == FAIL
    assert res.details == [
        "F5: first zero up to degree 2 is (0 : 2 : 1)",
        "F1009: not searched (degree 0 already exceeds the budget)"]


_STEP_FOUR_ERROR = (
    "F5: error: obstruction replay over F5 failed at step 4, b^2 + c^2 = 0 has no "
    "solution with (b, c) != (0, 0)  [Euler's criterion in F5: (-1)^((q-1)/2) = -1]")


def test_step_four_refuses_a_field_whose_square_root_of_minus_one_is_hidden(monkeypatch):
    # with F5's square root of -1 hidden, steps 1-3 of the obstruction still
    # hold: only step 4, Euler's criterion in F5, can refuse the replay
    real = PrimeField.sqrt_minus_one
    monkeypatch.setattr(PrimeField, "sqrt_minus_one",
                        lambda f: None if f.p == 5 else real(f))
    rep = run_checklist(RunConfig(fields=("F5",)),
                        only=["ISO-CRIT", "MAIN-B-VERDICT", "ISO-SEARCH"])
    assert {c.id: c.verdict for c in rep.checks} == {
        "ISO-CRIT": FAIL, "MAIN-B-VERDICT": FAIL, "ISO-SEARCH": FAIL}
    assert rep.checks[0].details == [_STEP_FOUR_ERROR]


def test_a_field_that_raises_keeps_the_lines_of_the_other_fields(monkeypatch):
    cfg = RunConfig(fields=("F3", "F7", "F5"))
    clean = run_checklist(cfg, only=["ISO-CRIT"]).checks[0]
    real = PrimeField.sqrt_minus_one
    monkeypatch.setattr(PrimeField, "sqrt_minus_one",
                        lambda f: None if f.p == 5 else real(f))
    res = run_checklist(cfg, only=["ISO-CRIT"]).checks[0]
    assert res.verdict == FAIL
    assert res.details == clean.details[:2] + [_STEP_FOUR_ERROR]
    assert [line[:4] for line in clean.details[:2]] == ["F3: ", "F7: "]


def test_certs_keeps_the_lines_of_the_fields_that_verified(monkeypatch):
    real = checks._Ctx.verified

    def verified(ctx, name, f):
        if f.name == "F3":
            raise ZeroDivisionError("boom")
        return real(ctx, name, f)

    clean = run_checklist(RunConfig(fields=("Q", "F3")), only=["CERTS"]).checks[0]
    monkeypatch.setattr(checks._Ctx, "verified", verified)
    res = run_checklist(RunConfig(fields=("Q", "F3")), only=["CERTS"]).checks[0]
    assert res.verdict == FAIL
    assert res.details == [clean.details[0], "F3: internal error: ZeroDivisionError('boom')",
                           "8 certificate/field instances checked"]


def test_skipped_main_b_verdict_states_only_the_skip_reason():
    res = run_checklist(RunConfig(fields=("F2",)), only={"MAIN-B-VERDICT"}).checks[0]
    assert res.verdict == SKIPPED
    assert res.details == ["no field of characteristic != 2 selected"]


def _bent_form(field):
    """Y^2 - x*Z^2 - x^2*W^2: the criterion form with its W^2 term bent."""
    ring = conic.base_ring(field)
    x = ring.var("x")
    return conic.TernaryForm(ring, {("Y", "Y"): 1, ("Z", "Z"): -x, ("W", "W"): -x * x})


def test_lem_a_rel_evaluates_the_criterion_form(monkeypatch):
    monkeypatch.setattr(conic, "criterion_form", _bent_form)
    res = run_checklist(RunConfig(fields=("Q", "F3")), only={"LEM-A-REL"}).checks[0]
    assert res.verdict == FAIL
    assert [line for line in res.details if "y^2" in line] == [
        f"{name}: y^2 - x*z^2 - x does NOT vanish on the generators" for name in ("Q", "F3")]


def test_warm_lem_a_rel_parses_nothing(monkeypatch):
    # the generators come from the memoized certificate verification
    run_checklist(RunConfig(fields=("Q",)), only={"LEM-A-REL"})
    made, real = [], exprparse._Parser

    def parser(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(exprparse, "_Parser", parser)
    res = run_checklist(RunConfig(fields=("Q",)), only={"LEM-A-REL"}).checks[0]
    assert made == []
    assert res.verdict == PASS
    assert res.details[-1] == "Q: y^2 - x*z^2 - x = 0 holds among the generators"


def test_certs_fails_when_the_perturbed_fixture_breaks_beyond_invariance(monkeypatch):
    # the fixture must fail condition 1 and pass conditions 2-4; breaking its
    # relation as well leaves it invalid at condition 1, and CERTS must FAIL
    shipped = certs.shipped_certificates()
    cert = shipped["negate_invert_perturbed"]
    bad = _rebuilt(cert, relation="T^2 - 2*z*T + 1")
    monkeypatch.setitem(certs._cache, cert.name, bad)
    ver = certs.verify_certificate(bad, field_by_name("Q"))
    assert [c.ok for c in ver.conditions] == [False, False, True, True]
    (res,) = run_checklist(RunConfig(), only={"CERTS"}).checks
    assert res.verdict == FAIL
    assert "negate_invert_perturbed UNEXPECTEDLY" in res.details[0]


def test_indep_fails_when_u_depends_on_a(monkeypatch):
    # u = a^2 drops the Jacobian rank over Q to 1, whatever fields are selected
    mutated = tuple((name, "a^2" if name == "u" else text) for name, text in tables.DERIVED_ODD)
    monkeypatch.setattr(tables, "DERIVED_ODD", mutated)
    for fields in (("Q", "F3"), ("Q", "F2")):
        res = run_checklist(RunConfig(fields=fields), only=["INDEP"]).checks[0]
        assert res.verdict == FAIL, fields
        assert res.details[0].startswith("Jacobian of (a, u) in (x1..x4) has rank 1 over Q")


def test_indep_draws_nothing_from_the_seed():
    runs = [run_checklist(RunConfig(seed=seed, fields=("Q", "F2")), only=["INDEP"]).checks[0]
            for seed in (0, 1, 2)]
    assert {res.verdict for res in runs} == {ASSUMED}
    assert runs[0].details == runs[1].details == runs[2].details == [
        "Jacobian of (a, u) in (x1..x4) has rank 2 over Q (exact, characteristic 0)",
        "independence in characteristic 2 is used without an independent mechanical proof here"]
