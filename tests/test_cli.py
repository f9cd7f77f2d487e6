import contextlib
import importlib.util
import io
import json
import random
import signal
import time
from pathlib import Path

import pytest

from xratio import cli, poly
from xratio.cli import main
from xratio.exprparse import MAX_NESTING
from xratio.fields import MILLER_RABIN_BOUND

DATA = Path(__file__).parent / "data"
NINE_FIELDS = "Q,Q(i),F2,F3,F5,F7,F3(i),F7(i),F101"


def test_run_single_check_json_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--checks", "SPLIT", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [c["id"] for c in payload["checks"]] == ["SPLIT"]
    assert payload["checks"][0]["verdict"] == "PASS"
    assert payload["run"]["seed"] == 0


def test_run_text_to_stdout(capsys):
    code = main(["run", "--checks", "SUBGRP-COUNT"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("replay 0.1.0")
    assert "SUBGRP-COUNT" in out
    assert "overall: OK" in out


def test_run_odd_check_over_char2_field_is_skipped(capsys):
    code = main(["run", "--checks", "CONIC-B", "--fields", "F2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SKIPPED" in out


def test_run_unknown_check_id_is_usage_error(capsys):
    code = main(["run", "--checks", "NOT-A-CHECK"])
    assert code == 2
    assert "unknown check ids" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("CR-INV,CR-INV", "duplicate check ids in CR-INV,CR-INV"),
    # a repeat is refused before an unknown id is looked up
    ("SPLIT, NOT-A-CHECK,SPLIT", "duplicate check ids in SPLIT,NOT-A-CHECK,SPLIT"),
])
def test_run_repeated_check_ids_exit_2(capsys, value, message):
    assert main(["run", "--fields", "Q", "--checks", value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_unknown_field_is_usage_error(capsys):
    code = main(["run", "--fields", "F4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_identity_equal(capsys):
    code = main(["check-identity", "--field", "Q",
                 "--lhs", "u^2", "--rhs", "(w/y)^2"])
    assert code == 0
    assert "EQUAL over Q" in capsys.readouterr().out


def test_check_identity_not_equal(capsys):
    code = main(["check-identity", "--field", "Q",
                 "--lhs", "u", "--rhs", "t"])
    assert code == 1
    out = capsys.readouterr().out
    assert "NOT EQUAL over Q" in out
    assert "lhs =" in out and "rhs =" in out


def test_check_identity_over_a_large_prime_field(capsys):
    # an inverse over F_p is one modular power: no table with p entries
    assert main(["check-identity", "--field", "F1000000007",
                 "--lhs", "u", "--rhs", "t"]) == 1
    assert capsys.readouterr().out.startswith("NOT EQUAL over F1000000007: u  vs  t\n")


def test_large_prime_fields_answer_within_a_second(capsys):
    # Euler's criterion gives the square root of -1 and Miller-Rabin the
    # primality of 2^61 - 1: neither scans up to p or sqrt(p)
    start = time.perf_counter()
    assert main(["conic", "decide", "--field", "F1000000009"]) == 0
    assert main(["check-identity", "--field", "F2305843009213693951",
                 "--lhs", "u", "--rhs", "t"]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "isotropic over F1000000009(x)" in out
    assert "NOT EQUAL over F2305843009213693951: u  vs  t\n" in out


def test_a_modulus_above_the_primality_bound_exits_2(capsys):
    assert main(["check-identity", "--field", f"F{2 ** 89 - 1}",
                 "--lhs", "u", "--rhs", "u"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: cannot decide whether {2 ** 89 - 1} is prime: moduli "
                   f"must be below {MILLER_RABIN_BOUND}\n")


def test_check_identity_not_equal_exact_output(capsys):
    assert main(["check-identity", "--field", "Q", "--lhs", "u", "--rhs", "t"]) == 1
    assert capsys.readouterr().out == (
        "NOT EQUAL over Q: u  vs  t\n"
        "  lhs = (x1 + x2 - x3 - x4)/(x1 - x2 - x3 + x4)\n"
        "  rhs = (x1 - x2 + x3 - x4)/(x1 - x2 - x3 + x4)\n")


@pytest.mark.parametrize("field, lhs, shown", [
    ("Q", "(1 - a)*u^2 - t^2 + a + 1", "1"),  # a 25-term fraction equal to 1
    ("F5", "2*u/u", "2"),
])
def test_check_identity_shows_a_constant_side_as_its_value(capsys, field, lhs, shown):
    assert main(["check-identity", "--field", field, "--lhs", lhs, "--rhs", "0"]) == 1
    assert capsys.readouterr().out == (
        f"NOT EQUAL over {field}: {lhs}  vs  0\n  lhs = {shown}\n  rhs = 0\n")


@pytest.mark.parametrize("lhs, rhs", [("foo", "t"), ("foo", "u + bar")])
def test_check_identity_unknown_name_exits_2(capsys, lhs, rhs):
    assert main(["check-identity", "--field", "Q", "--lhs", lhs, "--rhs", rhs]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown variable 'foo' (position 0)\n"
    assert captured.out == ""


def test_check_identity_parse_error(capsys):
    for lhs, error in (("u +", "unexpected end of expression (position 3)"),
                       ("", "unexpected end of expression (position 0)"),
                       ("x1 +", "unexpected end of expression (position 4)"),
                       # the Arabic-Indic digit five is not the number 5
                       ("x1*٥", "unexpected character '٥' (position 3)")):
        assert main(["check-identity", "--field", "Q", "--lhs", lhs, "--rhs", "t"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""


def test_check_identity_denominator_vanishing_after_substitution(capsys):
    # u - w/y parses in the scope ring (u is a variable there) but is 0 in x1..x4
    assert main(["check-identity", "--field", "Q",
                 "--lhs", "1/(u - w/y)", "--rhs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: '1/(u - w/y)': a denominator vanishes in "
                            "k(x1..x4) once the derived names are substituted\n")
    assert captured.out == ""


def test_check_identity_mixed_scope(capsys):
    code = main(["check-identity", "--field", "F5",
                 "--lhs", "a*(x3 - x1)*(x4 - x2)",
                 "--rhs", "(x4 - x1)*(x3 - x2)"])
    assert code == 0
    assert "EQUAL over F5" in capsys.readouterr().out


def test_subgroups_census(capsys):
    code = main(["subgroups"])
    assert code == 0
    out = capsys.readouterr().out
    assert "30 subgroups, 11 conjugacy classes" in out
    assert out.count("splits NO") == 3
    assert "{id, (1 2)}" in out


def test_conic_decide_anisotropic(capsys):
    code = main(["conic", "decide", "--field", "Q"])
    assert code == 0
    out = capsys.readouterr().out
    assert "anisotropic" in out
    assert out.count("[ok]") == 4
    assert "every degree" in out
    assert "note:" not in out


def test_conic_decide_isotropic(capsys):
    code = main(["conic", "decide", "--field", "F5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "isotropic" in out
    assert "(0 : 2 : 1)" in out


def test_conic_search_found_and_exhausted(capsys):
    assert main(["conic", "search", "--field", "F5"]) == 0
    out = capsys.readouterr().out
    assert "first zero: (0 : 2 : 1)" in out
    assert main(["conic", "search", "--field", "F3",
                 "--degree-bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "no zero with coordinates of degree <= 2 (exhaustive)" in out


def test_conic_parametrize_default_point(capsys):
    code = main(["conic", "parametrize", "--field", "Q(i)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "base point (0 : i : 1)" in out
    assert "2*i*x*s" in out


def test_conic_parametrize_char2(capsys):
    code = main(["conic", "parametrize", "--field", "F2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "base point (x : 1 : 1)" in out
    assert "x*s^2 + s + 1" in out


def test_conic_parametrize_explicit_point(capsys):
    code = main(["conic", "parametrize", "--field", "F5",
                 "--point", "0,2,1"])
    assert code == 0
    assert "base point (0 : 2 : 1)" in capsys.readouterr().out


def test_conic_parametrize_without_sqrt_is_usage_error(capsys):
    code = main(["conic", "parametrize", "--field", "Q"])
    assert code == 2
    assert "pass --point" in capsys.readouterr().err


def test_stabilizer_with_infinity(capsys):
    code = main(["stabilizer", "--field", "F101",
                 "--points", "0,1,2,inf"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stabilizer order 2" in out
    assert "s -> 100*s + 2" in out


def test_stabilizer_trivial(capsys):
    code = main(["stabilizer", "--field", "F101", "--points", "0,1,2,4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stabilizer order 1" in out


def test_stabilizer_over_a_gaussian_field(capsys):
    code = main(["stabilizer", "--field", "F7(i)", "--points", "0,1,2,3"])
    assert code == 0
    assert capsys.readouterr().out == (
        "points {0, 1, 2, 3} over F7(i)\n"
        "  s -> s\n"
        "  s -> 6*s + 3\n"
        "stabilizer order 2\n")


def test_stabilizer_validation_errors(capsys):
    assert main(["stabilizer", "--field", "F7", "--points", "0,1,2"]) == 2
    assert "error:" in capsys.readouterr().err
    # only ASCII digits with an optional minus: int() would read the Arabic-
    # Indic and full-width three, 1_0 as ten and +3 as three
    for token in ("x", "٣", "３", "1_0", "+3"):
        assert main(["stabilizer", "--field", "F101",
                     "--points", f"0,1,2,{token}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --points: {token!r} is not an integer or 'inf'\n")


@pytest.mark.parametrize("argv", [["run", "--seed"], ["run", "--samples"],
                                  ["run", "--degree-bound"], ["conic", "search", "--degree-bound"]])
@pytest.mark.parametrize("token", ["٣", "３", "1_0", "+3", " 3", "3.0", ""])
def test_an_integer_option_takes_ascii_digits_only(capsys, argv, token):
    with pytest.raises(SystemExit) as info:
        main(argv + [token])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {argv[-1]}: {token!r} is not an integer\n")


@pytest.mark.parametrize("argv", [
    ["--lhs", "-x1", "--rhs", "-(x1 + x2) + x2"],
    ["--lhs=-x1", "--rhs", "-x1"],
    ["--rhs", "-x1", "--lhs", "-x1"],
])
def test_check_identity_values_may_start_with_a_minus(capsys, argv):
    assert main(["check-identity", "--field", "Q"] + argv) == 0
    assert capsys.readouterr().out.startswith("EQUAL over Q: -x1  vs  -")


def test_stabilizer_points_may_start_with_a_minus(capsys):
    assert main(["stabilizer", "--field", "F7", "--points", "-1,0,1,2"]) == 0
    assert capsys.readouterr().out == (
        "points {6, 0, 1, 2} over F7\n"
        "  s -> s\n"
        "  s -> 6*s + 1\n"
        "stabilizer order 2\n")


def test_conic_point_may_start_with_a_minus(capsys):
    assert main(["conic", "parametrize", "--field", "F2", "--point", "-x,1,1"]) == 0
    assert "base point (x : 1 : 1)" in capsys.readouterr().out


@pytest.mark.parametrize("argv, option", [
    (["check-identity", "--lhs", "x1", "--rhs"], "--rhs"),
    (["check-identity", "--rhs", "x1", "--lhs"], "--lhs"),
    (["stabilizer", "--field", "F7", "--points"], "--points"),
    (["conic", "parametrize", "--field", "F2", "--point"], "--point"),
    # a value missing in the middle: the next option is not taken as the value
    (["check-identity", "--lhs", "--rhs", "x1"], "--lhs"),
    (["check-identity", "--lhs", "--rhs=x1"], "--lhs"),
    (["stabilizer", "--points", "--field", "F7"], "--points"),
    (["conic", "parametrize", "--point", "--field", "F2"], "--point"),
])
def test_a_missing_option_value_exits_2(capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {option}: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # `--lh` is not read as `--lhs`, whether or not its value starts with "-"
    (["check-identity", "--lh", "x1", "--rhs", "x1"],
     "the following arguments are required: --lhs"),
    (["check-identity", "--lh", "-x1", "--rhs", "x1"],
     "the following arguments are required: --lhs"),
    (["run", "--check", "SPLIT"], "unrecognized arguments: --check SPLIT"),
    # a known command parses in its own parser, which names what it refused
    (["check-identity", "--lhs", "x1", "--rhs", "x1", "--fiel", "F5"],
     "replay check-identity: error: unrecognized arguments: --fiel F5"),
    (["conic", "decide", "--fie", "F5"],
     "replay conic: error: unrecognized arguments: --fie F5"),
])
def test_an_abbreviated_option_is_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_run_samples_below_one_exits_2(capsys, samples):
    assert main(["run", "--checks", "GENFREE", "--samples", samples]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


def test_run_negative_degree_bound_exits_2(capsys):
    assert main(["run", "--checks", "ISO-SEARCH", "--degree-bound", "-1"]) == 2
    assert "degree bound must be >= 0" in capsys.readouterr().err


def test_run_duplicate_fields_exits_2(capsys):
    assert main(["run", "--fields", "Q,Q"]) == 2
    assert "duplicate field names" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--samples", "0", "samples must be >= 1, got 0"),
    ("--degree-bound", "-2", "degree bound must be >= 0, got -2"),
    ("--fields", "Q,F3,Q", "duplicate field names in Q,F3,Q"),
    ("--fields", "F5, F5", "duplicate field names in F5,F5"),
    ("--fields", ",", "no fields selected"),
])
def test_run_config_refusals_keep_their_messages(capsys, option, value, message):
    assert main(["run", "--checks", "GENFREE", option, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("option, value, message", [
    ("--checks", ",", "no check ids given"),
    ("--checks", "", "no check ids given"),
    ("--fields", ",", "no fields selected"),
    ("--fields", "", "no fields selected"),
    ("--fields", "F5(i)", "F5(i) is not a field: X^2+1 is reducible mod 5 (need p = 3 mod 4)"),
    ("--fields", "F2(i)", "F2(i) is not a field: X^2+1 is reducible mod 2 (need p = 3 mod 4)"),
    ("--fields", "F9(i)", "9 is not prime"),
    ("--fields", "F5,F05", "unknown field name: 'F05'"),
])
def test_run_empty_selection_exits_2(capsys, option, value, message):
    # an empty list is not the default: it would run nothing and still say OK;
    # a k(i) that is not a field is refused by name before anything runs
    assert main(["run", option, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("argv, atom, tail", [
    (["check-identity", "--field", "Q", "--rhs", "x1", "--lhs"], "x1", ""),
    (["conic", "parametrize", "--field", "Q(i)", "--point"], "0", ",i,1"),
])
def test_nesting_up_to_the_bound_is_read_and_one_level_more_exits_2(capsys, argv, atom, tail):
    def nested(levels):
        return "(" * levels + atom + ")" * levels + tail
    assert main(argv + [nested(MAX_NESTING)]) == 0
    capsys.readouterr()
    assert main(argv + [nested(MAX_NESTING + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: parentheses nested deeper than {MAX_NESTING} levels (position {MAX_NESTING})\n")


def test_conic_decide_negative_degree_bound_exits_2(capsys):
    for field in ("Q", "F5"):
        assert main(["conic", "decide", "--field", field, "--degree-bound", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--degree-bound applies to 'conic search' only" in err
        assert "is not a variable" not in err


@pytest.mark.parametrize("action", ["decide", "parametrize"])
def test_conic_degree_bound_outside_search_exits_2(capsys, action):
    # the bound only sizes the exhaustive search; elsewhere it would be ignored
    assert main(["conic", action, "--field", "F5", "--degree-bound", "3"]) == 2
    captured = capsys.readouterr()
    assert ("error: --degree-bound applies to 'conic search' only, "
            f"not to 'conic {action}'") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("action", ["decide", "search"])
def test_conic_point_outside_parametrize_exits_2(capsys, action):
    # the point only seeds the parametrization; elsewhere it would be ignored
    assert main(["conic", action, "--field", "Q", "--point", "1,2,3"]) == 2
    captured = capsys.readouterr()
    assert ("error: --point applies to 'conic parametrize' only, "
            f"not to 'conic {action}'") in captured.err
    assert captured.out == ""


def test_conic_search_huge_degree_bound_exits_2_with_budget(capsys):
    assert main(["conic", "search", "--field", "F2", "--degree-bound", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: 2^60003 candidate triples exceed the "
                            "budget 10000000\n")
    assert captured.out == ""


def test_run_huge_degree_bound_searches_the_budget_degree(capsys):
    assert main(["run", "--fields", "F2", "--checks", "ISO-SEARCH",
                 "--degree-bound", "1000000"]) == 0
    assert "F2: first zero up to degree 6 is" in capsys.readouterr().out


def test_conic_search_negative_degree_bound_exits_2(capsys):
    assert main(["conic", "search", "--field", "F3", "--degree-bound", "-1"]) == 2
    assert "degree bound must be >= 0" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.mark.parametrize("argv, code, shown", [
    ([], 2, "replay: error: the following arguments are required: command"),
    (["-h"], 0, "{run,check-identity,subgroups,conic,stabilizer}"),
    (["bogus"], 2, "replay: error: argument command: invalid choice: 'bogus'"),
])
def test_an_argv_without_a_known_command_answers_from_the_top_level_parser(
        capsys, argv, code, shown):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    captured = capsys.readouterr()
    assert shown in captured.out + captured.err
    assert (captured.out + captured.err).startswith("usage: replay [-h] {")


def test_bad_format_choice_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["run", "--format", "yaml"])
    assert info.value.code == 2


def test_parser_built_once_and_each_call_starts_from_defaults(monkeypatch):
    seen = []

    class _Report:
        exit_code = 0

        def to_text(self):
            return ""

    def fake_run(config, only=None):
        seen.append((config.seed, config.samples, only))
        return _Report()

    monkeypatch.setattr(cli, "run_checklist", fake_run)
    cli.build_parser.cache_clear()
    assert main(["run", "--seed", "5", "--samples", "7", "--checks", "SPLIT"]) == 0
    assert main(["run"]) == 0
    with pytest.raises(SystemExit):  # the top-level parser is the same one
        main(["bogus"])
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert seen == [(5, 7, ["SPLIT"]), (0, 100, None)]


@pytest.mark.parametrize("target", ["missing/report.txt", "."])
def test_run_out_to_an_unwritable_path_exits_2(capsys, tmp_path, target):
    path = str(tmp_path / target)
    assert main(["run", "--checks", "SPLIT", "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot write {path!r}: ")


def test_check_identity_big_exponent_squares_its_powers(capsys, monkeypatch):
    calls = 0
    real = poly.MultiPoly.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return real(self, other)

    monkeypatch.setattr(poly.MultiPoly, "__mul__", counting)
    assert main(["check-identity", "--field", "Q",
                 "--lhs", "x1^100000", "--rhs", "x1^100000"]) == 0
    assert "EQUAL over Q" in capsys.readouterr().out
    assert calls < 1000


def _golden_maker():
    spec = importlib.util.spec_from_file_location("make_cli_goldens",
                                                  DATA / "make_cli_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN_MAKER = _golden_maker()


def _golden_records(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _assert_replays(name):
    # the file holds exactly the calls tests/data/make_cli_goldens.py lists,
    # and each call's exit code, stdout and stderr replay to its record
    records = _golden_records(name)
    assert [rec["argv"] for rec in records] == GOLDEN_MAKER.GOLDENS[name]()
    for rec in records:
        assert GOLDEN_MAKER.run_call(rec["argv"]) == (
            rec["exit"], rec["stdout"], rec["stderr"]), rec["argv"]


@pytest.mark.parametrize("name", sorted(set(GOLDEN_MAKER.GOLDENS) - {"report_golden.json"}))
def test_replay_output_matches_golden(name):
    _assert_replays(name)


def test_run_reports_match_golden():
    _assert_replays("report_golden.json")


# `run --format json --out FILE` writes nothing to stdout and exactly the
# bytes of the `run ... --format json` record in report_golden.json; the first
# parameter names the report file that record replaced
@pytest.mark.parametrize("golden, argv", [
    ("report_default.json", []),
    ("report_F2.json", ["--fields", "F2"]),
    ("report_Q_F7i.json", ["--fields", "Q,F7(i)"]),
    ("report_nine_fields.json", ["--fields", NINE_FIELDS]),
    ("report_nine_fields_iso_search.json",
     ["--fields", NINE_FIELDS, "--checks", "ISO-SEARCH"]),
])
def test_run_json_matches_golden_report(capsys, tmp_path, golden, argv):
    record, = [rec for rec in _golden_records("report_golden.json")
               if rec["argv"] == ["run"] + argv + ["--format", "json"]]
    out = tmp_path / "report.json"
    assert main(["run", "--format", "json", "--out", str(out)] + argv) == record["exit"] == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == record["stdout"].encode("utf-8")


# -- seeded boundary fuzz ------------------------------------------------------

FUZZ_FIELDS = NINE_FIELDS.split(",") + ["F1000003", "F1000033", "F1000003(i)"]
FUZZ_BAD_FIELDS = ["F9", "F1", "F0", "F5(i)", "F2(i)", "F 3"]
FUZZ_CALL_LIMIT_S = 2.0


class _CallOverrun(BaseException):
    """The per-call alarm.  Not an Exception: `run_checklist` turns an
    Exception inside a check into a FAIL with exit 1, which would hide it."""


def _fuzz_field(rng):
    return rng.choice(FUZZ_BAD_FIELDS if rng.random() < 0.1 else FUZZ_FIELDS)


def _fuzz_expr(rng, atoms, depth=4, powers=True):
    """An expression of at most `depth` nested parentheses over `atoms`, with
    now and then an atom no scope knows.  A power (exponent 0..3) is never
    nested inside another, so no request asks for a huge output."""
    if depth == 0 or rng.random() < 0.25:
        return "foo" if rng.random() < 0.02 else rng.choice(atoms)
    if powers and rng.random() < 0.2:
        return f"({_fuzz_expr(rng, atoms, depth - 1, False)})^{rng.randint(0, 3)}"
    return (f"({_fuzz_expr(rng, atoms, depth - 1, powers)}) {rng.choice('+-*/')} "
            f"({_fuzz_expr(rng, atoms, depth - 1, powers)})")


def _fuzz_argv(rng):
    """One `replay` call from the grammar of every subcommand."""
    kind = rng.choice(("identity", "identity", "stabilizer", "decide", "search",
                       "parametrize", "run", "run", "subgroups"))
    field = _fuzz_field(rng)
    if kind == "identity":
        atoms = ("x1", "x2", "x3", "x4", "u", "t", "w", "y", "z", "a", "1", "2", "-1", "1/2")
        lhs = _fuzz_expr(rng, atoms)
        rhs = lhs if rng.random() < 0.25 else _fuzz_expr(rng, atoms)
        return ["check-identity", "--field", field, "--lhs", lhs, "--rhs", rhs]
    if kind == "stabilizer":
        pool = ["inf", "0", "1", "2", "3", "-1", str(rng.randint(4, 200))]
        tokens = rng.sample(pool, rng.choice((4, 4, 4, 3, 5)))
        return ["stabilizer", "--field", field, "--points", ",".join(tokens)]
    if kind in ("decide", "search"):
        return ["conic", kind, "--field", field] + (
            ["--degree-bound", str(rng.randint(-1, 3))] if kind == "search" else [])
    if kind == "parametrize":
        argv = ["conic", "parametrize", "--field", field]
        if rng.random() < 0.5:
            point = ",".join(_fuzz_expr(rng, ("x", "i", "0", "1", "2", "-1", "1/2"), 2)
                             for _ in range(3))
            argv += ["--point", rng.choice(("0,i,1", "0,i/x,1/x", "x,1,1", point))]
        return argv
    if kind == "run":
        fields = [field] + [_fuzz_field(rng) for _ in range(rng.randint(0, 1))]
        checks = rng.sample(cli.CHECK_IDS + ("NOT-A-CHECK",), rng.randint(1, 3))
        return ["run", "--fields", ",".join(fields), "--checks", ",".join(checks)]
    return ["subgroups"]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_seeded_boundary_fuzz_exits_cleanly_and_in_time():
    # every call exits 0, 1 or 2 with no exception escaping `main` and within
    # FUZZ_CALL_LIMIT_S; calls run in this process under an interval timer
    def overrun(_signum, _frame):
        raise _CallOverrun

    rng = random.Random("cli-boundary-fuzz")
    bad = []
    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        for _ in range(1000):
            argv = _fuzz_argv(rng)
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, FUZZ_CALL_LIMIT_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except _CallOverrun:
                code = f"over {FUZZ_CALL_LIMIT_S} s"
            except Exception as exc:
                code = repr(exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if code not in (0, 1, 2) or "Traceback" in err.getvalue():
                bad.append((argv, code))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert bad == []
