import json
from collections import Counter

import jsonschema
import pytest

from xratio import certs, conic, tables
from xratio.checks import CHECK_IDS, CHECKS, resolve_fields, run_checklist
from xratio.fields import XratioError
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
    assert lines[1].startswith("axiom")
    assert lines[2].startswith("assumption")
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
    cfg = RunConfig(fields=("F3",))
    cfg.degree_bound = -1  # bypasses the RunConfig validation
    res = run_checklist(cfg, only={"ISO-SEARCH"}).checks[0]
    assert res.verdict == SKIPPED
    assert res.details == ["F3: not searched (the degree bound is negative)"]


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 0}, "samples must be >= 1"),
    ({"degree_bound": -1}, "degree bound must be >= 0"),
    ({"obstruction_degree": -1}, "obstruction degree must be >= 0"),
    ({"fields": ("Q", "F3", "Q")}, "duplicate field names"),
])
def test_run_config_rejects_bad_values(kwargs, message):
    with pytest.raises(XratioError, match=message):
        RunConfig(**kwargs)


def test_seed_changes_genfree_sampling_details():
    a = run_checklist(RunConfig(seed=1), only={"GENFREE"})
    b = run_checklist(RunConfig(seed=2), only={"GENFREE"})
    assert a.checks[0].details != b.checks[0].details


def test_run_computes_shared_objects_once_per_run(monkeypatch):
    verified, derived = Counter(), Counter()
    decided, parametrized = Counter(), Counter()
    real_verify, real_derived = certs.verify_certificate, tables.derived_values
    real_decide, real_param = conic.decide_isotropy, conic.parametrize

    def counting_verify(cert, field):
        verified[(cert.name, field.name)] += 1
        return real_verify(cert, field)

    def counting_derived(field):
        derived[field.name] += 1
        return real_derived(field)

    def counting_decide(field, degree_bound):
        decided[field.name] += 1
        return real_decide(field, degree_bound)

    def counting_param(form, point):
        parametrized[form.ring.field.name] += 1
        return real_param(form, point)

    monkeypatch.setattr(certs, "verify_certificate", counting_verify)
    monkeypatch.setattr(tables, "derived_values", counting_derived)
    monkeypatch.setattr(conic, "decide_isotropy", counting_decide)
    monkeypatch.setattr(conic, "parametrize", counting_param)
    first = run_checklist(RunConfig())
    assert len(verified) == 19
    assert set(verified.values()) == {1}
    assert set(derived) == set(DEFAULT_FIELDS)
    assert max(derived.values()) <= 2
    # ISO-CRIT and MAIN-B-VERDICT share one decision per odd field; PARAM,
    # MAIN-B-VERDICT and MAIN-C-VERDICT share one parametrization per field
    # with a known conic point (a square root of -1, or characteristic 2)
    assert decided == {"Q": 1, "Q(i)": 1, "F3": 1, "F5": 1}
    assert parametrized == {"Q(i)": 1, "F2": 1, "F5": 1}
    # a second run shares nothing with the first
    second = run_checklist(RunConfig())
    assert set(verified.values()) == {2}
    assert second.to_json() == first.to_json()
