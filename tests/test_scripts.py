"""The companion scripts as checked routes.

`scripts/subgroup_census.py` and `scripts/genfree_sampling.py` recompute the
enumerative facts with plain tuples and ints and no `xratio` import.  Each
exits 0 only when its own brute-force checks agree.  This test runs both in
a subprocess and compares what they print with the package's SUBGRP-COUNT,
SPLIT, FIX-EQ and GENFREE detail lines.  The scripts' Monte Carlo draw uses
its own RNG, so no sampled count is compared.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

from xratio.checks import run_checklist
from xratio.perms import subgroup_str
from xratio.report import RunConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _value(out, pattern):
    m = re.search(pattern, out, re.M)
    assert m, (pattern, out)
    return m.group(1)


def test_companion_scripts_agree_with_the_enumerative_checks():
    census = _run_script("subgroup_census.py")
    sampling = _run_script("genfree_sampling.py")
    report = run_checklist(RunConfig(),
                           only={"SUBGRP-COUNT", "SPLIT", "FIX-EQ", "GENFREE"})
    details = {c.id: c.details for c in report.checks}

    subs = int(_value(census, r"^subgroups: (\d+)$"))
    classes = int(_value(census, r"^conjugacy classes: (\d+)$"))
    profile = ast.literal_eval(_value(census, r"^order profile: (\{.*\})$"))
    assert (subs, classes) == (30, 11)
    assert details["SUBGRP-COUNT"][:2] == [
        f"{subs} subgroups in {classes} conjugacy classes",
        "order profile " + " ".join(f"{k}:{v}" for k, v in sorted(profile.items()))]

    # the script's non-split groups, as 0-based image tuples, in cycle notation
    nonsplit = [ast.literal_eval(m.group(2)) for m in
                re.finditer(r"^  order (\d+) cyclic: True (\[.*\])$", census, re.M)]
    assert len(nonsplit) == int(_value(census, r"^non-split over Klein part: (\d+)$")) == 3
    as_perms = [frozenset(tuple(k + 1 for k in imgs) for imgs in s) for s in nonsplit]
    assert details["SPLIT"] == [
        f"{subs - len(nonsplit)}/{subs} subgroups split over their Klein part",
        "non-split subgroups: " + "; ".join(sorted(map(subgroup_str, as_perms)))]

    violations = int(_value(census, r"^fixed-point <=> trivial-Klein-part violations: (\d+)$"))
    assert violations == 0
    assert details["FIX-EQ"][0].startswith(f"{subs - violations}/{subs} subgroups satisfy")

    # GENFREE still types its fraction; the script derives it by a formula
    # that it validates by brute force at q = 17
    fraction = _value(sampling, r"^q=101: exceptional 4-subsets (\d+/\d+) ")
    assert fraction == "123725/4082925"
    assert f"such sets are {fraction} " in details["GENFREE"][1]
