"""Verdicts do not depend on process state.

Every golden replay in `tests/test_cli.py` runs inside one pytest process,
under one hash seed, with the parse caches, interned rings and kernels warmed
by whichever tests ran first.  These tests compare, byte for byte with the
same records: fresh interpreters under other hash seeds, each check run alone,
and the modules a fresh process imports on its way to a verdict.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import xratio
from xratio.checks import CHECK_IDS, run_checklist
from xratio.report import RunConfig

DATA = Path(__file__).parent / "data"
SRC = str(Path(xratio.__file__).resolve().parents[1])
NINE_FIELDS = "Q,Q(i),F2,F3,F5,F7,F3(i),F7(i),F101"


def _record(name, argv):
    records = json.loads((DATA / name).read_text(encoding="utf-8"))
    record, = [rec for rec in records if rec["argv"] == argv]
    return record


# (hash seed, golden file, argv): the default fields and all nine, as JSON;
# one NOT EQUAL check-identity record per characteristic, which shows its sides
COLD_CALLS = (
    ("0", "report_golden.json", ["run", "--format", "json"]),
    ("1", "report_golden.json", ["run", "--fields", NINE_FIELDS, "--format", "json"]),
    ("2", "check_identity_golden.json",
     ["check-identity", "--field", "Q", "--lhs", "t", "--rhs", "(z/y) + 1"]),
    ("3", "check_identity_golden.json",
     ["check-identity", "--field", "F2", "--lhs", "a",
      "--rhs", "(((x4 - x1)*(x3 - x2))/((x4 - x2)*(x3 - x1))) + 1"]),
    ("4", "check_identity_golden.json",
     ["check-identity", "--field", "F5", "--lhs", "u^2", "--rhs", "((w/y)^2) + 1"]),
)


def test_fresh_processes_under_other_hash_seeds_print_their_records():
    # all five interpreters start at once, so the test waits for the slowest
    procs = []
    for seed, name, argv in COLD_CALLS:
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed}
        procs.append(subprocess.Popen([sys.executable, "-m", "xratio.cli", *argv],
                                      env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True))
    for proc, (seed, name, argv) in zip(procs, COLD_CALLS):
        stdout, stderr = proc.communicate(timeout=60)
        record = _record(name, argv)
        assert (proc.returncode, stdout, stderr) == (
            record["exit"], record["stdout"], record["stderr"]), (seed, argv)


def test_each_check_run_alone_gives_its_lines_from_the_full_run():
    full = json.loads(_record("report_golden.json",
                              ["run", "--fields", NINE_FIELDS, "--format", "json"])["stdout"])
    expected = {c["id"]: (c["verdict"], c["details"]) for c in full["checks"]}
    config = RunConfig(fields=NINE_FIELDS.split(","))
    for check_id in reversed(CHECK_IDS):
        result, = run_checklist(config, only=[check_id]).checks
        assert (result.verdict, result.details) == expected[check_id], check_id


# One interpreter without `site` (which may preload `random`) walks from the
# import to the first Fraction.  No in-process test sees a broken lazy
# import: tests/test_payloads.py imports Fraction at module level.
_IMPORT_PATH = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
LAZY = ("fractions", "decimal", "numbers", "random")

def loaded():
    return [name for name in LAZY if name in sys.modules]

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

import xratio
from xratio import certs, cli
certs.shipped_certificates()
for name in sys.argv[2].split(","):
    xratio.field_by_name(name)
steps = {}
steps["cr_inv"] = [call(["run", "--checks", "CR-INV"])[0], loaded()]
steps["default_run"] = [call(["run"])[0], loaded()]
steps["equal_q"] = [call(json.loads(sys.argv[3]))[0], loaded()]
steps["not_equal_q"] = [call(json.loads(sys.argv[4])), loaded()]
q = xratio.rationals()
steps["inverse_of_3"] = repr(q.raw_inv(3))
print(json.dumps(steps))
"""

EQUAL_Q = ["check-identity", "--field", "Q", "--lhs", "x4 - x1", "--rhs", "(w + z)/2"]
NOT_EQUAL_Q = ["check-identity", "--field", "Q", "--lhs", "x4 - x1",
               "--rhs", "((w + z)/2) + 1"]


def test_a_fresh_process_imports_fractions_and_random_only_where_used():
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_PATH, SRC, NINE_FIELDS,
         json.dumps(EQUAL_Q), json.dumps(NOT_EQUAL_Q)],
        capture_output=True, text=True, check=True)
    steps = json.loads(out.stdout)
    assert steps["cr_inv"] == [0, []]
    assert steps["default_run"] == [0, ["random"]]
    assert steps["equal_q"] == [0, ["random"]]
    record = _record("check_identity_golden.json", NOT_EQUAL_Q)
    (code, shown), modules = steps["not_equal_q"]
    assert (code, shown) == (record["exit"], record["stdout"])
    assert "fractions" in modules
    assert steps["inverse_of_3"] == "Fraction(1, 3)"


# A fresh interpreter again: fields are interned and the caches last for a
# process, so an in-process count would depend on which tests ran first.
_ELEMENT_COUNT = r"""
import sys
sys.path.insert(0, sys.argv[1])
from xratio import fields
from xratio.checks import run_checklist
from xratio.report import RunConfig
built = [0]
init = fields.FieldElement.__init__

def counted(self, field, v):
    built[0] += 1
    init(self, field, v)

fields.FieldElement.__init__ = counted
run_checklist(RunConfig())
print(built[0])
"""


def test_a_default_run_builds_field_elements_only_where_values_leave_the_package():
    out = subprocess.run([sys.executable, "-I", "-c", _ELEMENT_COUNT, SRC],
                         capture_output=True, text=True, check=True)
    # the zero and one of each of the six fields the run builds (the five
    # defaults and GENFREE's F101), 17 from elements() and 11 from
    # sqrt_minus_one(); polynomials, points and maps hold payloads
    assert int(out.stdout) == 12 + 17 + 11
