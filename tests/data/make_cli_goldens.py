"""Regenerate the pinned `replay` outputs: four golden files, one call list each.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_cli_goldens.py

``GOLDENS`` maps each file to the function that lists its calls:

* ``check_identity_golden.json``: 120 `check-identity` queries, each true
  identity next to a false twin, over the odd fields and F2, plus texts in
  the point variables alone and two refused queries;
* ``conic_golden.json``: `conic decide` and `conic parametrize` over each of
  the nine named fields, `conic parametrize --point` with a point on the
  conic and one off it, and `conic search` over each finite field at every
  degree bound from 0 up to the largest within the search budget, plus one
  bound past it;
* ``enum_golden.json``: `subgroups`, `stabilizer` over a fixed list of point
  sets (two of them refused: three points, and a repeated point), and `run`
  of the four checks that reach `perms` and `projline` as JSON for seeds 1-5;
* ``report_golden.json``: `run` as text for the default fields, for all nine
  fields and for each field alone, `run --format json` for each field alone,
  and `run --format json` on the default fields, on Q,F7(i), on all nine
  fields and on all nine with `--checks ISO-SEARCH`.

The call lists live here and in the JSON files themselves; nothing is
imported from the benchmark.  Each call runs in-process through ``cli.main``,
and every record is ``{argv, exit, stdout, stderr}``.  The text report's
per-check wall time is the one part that changes between runs, so every
"<ms> ms" column is replaced by "- ms" before a record is written or
compared.  `tests/test_cli.py` replays every record through ``run_call``.
Only a change that alters this output on purpose regenerates the files, and
their diff is reviewed with that change: on a rewrite the script prints, for
each file, how many records were added, removed or changed.
"""

import contextlib
import io
import json
import re
from pathlib import Path

NINE_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101")

# -- check-identity ------------------------------------------------------------

CROSS_RATIO = "((x4 - x1)*(x3 - x2))/((x4 - x2)*(x3 - x1))"

IDENTITIES_ODD = (
    ("x4 - x1", "(w + z)/2"),
    ("x3 - x1", "(w + y)/2"),
    ("x3 - x2", "(w - z)/2"),
    ("x4 - x2", "(w - y)/2"),
    ("x2 - x1", "(y + z)/2"),
    ("x4 - x3", "(z - y)/2"),
    ("a", "(w^2 - z^2)/(w^2 - y^2)"),
    ("(1 - a)*u^2 - t^2 + a", "0"),
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

ODD_FIELDS = ("Q", "Q(i)", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101")

# texts in the point variables alone; some hold only in some characteristics
POINT_QUERIES = (
    ("Q", "(x1 + x2)^2", "x1^2 + 2*x1*x2 + x2^2"),
    ("F2", "(x1 + x2)^2", "x1^2 + x2^2"),
    ("Q", "(x1 + x2)^2", "x1^2 + x2^2"),
    ("F3", "(x1 - x2)^3", "x1^3 - x2^3"),
    ("F5", "(x1 - x2)^3", "x1^3 - x2^3"),
    ("F5", "(x1 + x2)^5", "x1^5 + x2^5"),
    ("Q(i)", "(x1 + i*x2)*(x1 - i*x2)", "x1^2 + x2^2"),
    ("F7(i)", "(x3 - i*x4)*(x3 + i*x4)", "x3^2 + x4^2"),
    ("F3(i)", "i^2", "-1"),
    ("F101", "x1/x2 + x2/x1", "(x1^2 + x2^2)/(x1*x2)"),
    ("F7", "7*x1", "0"),
    ("F7", "x1^7 - x1", "0"),
    ("Q", "(x1^2 - x2^2)/(x1 - x2)", "x1 + x2"),
    ("F2", "(x1^2 + x3^2)/(x1 + x3)", "x1 + x3"),
    ("Q", "1/(x1 - x2) - 1/(x1 - x3)", "(x2 - x3)/((x1 - x2)*(x1 - x3))"),
    ("F101", "x4 - x3", "x3 - x4"),
    ("Q(i)", "x1*x2*x3*x4", "x4*x3*x2*x1"),
    ("F3", "x1 + x2 + x3 + x4", "x1 - 2*x2 + x3 + x4"),
    ("F2", "x1 + x1", "0"),
    ("Q", "x1 + x1", "0"),
    ("F5", "(x1 - x2)*(x3 - x4)/((x1 - x3)*(x2 - x4))", "1"),
    ("Q", "x1^0", "1"),
    ("F7(i)", "(x1 + x2)^7", "x1^7 + x2^7"),
    ("F3(i)", "(x1 + i*x2)^3", "x1^3 - i*x2^3"),
)

ERROR_QUERIES = (
    ("Q", "1/(u - w/y)", "1"),
    ("Q", "a + inv_x", "a"),
)


def check_identity_calls():
    queries = []
    for k, (lhs, rhs) in enumerate(IDENTITIES_ODD):
        for field in (ODD_FIELDS[k % 8], ODD_FIELDS[(k + 3) % 8]):
            queries += [(field, lhs, rhs), (field, lhs, f"({rhs}) + 1")]
    for lhs, rhs in IDENTITIES_CHAR2:
        queries += [("F2", lhs, rhs), ("F2", lhs, f"({rhs}) + 1")]
    return [["check-identity", "--field", field, "--lhs", lhs, "--rhs", rhs]
            for field, lhs, rhs in queries + list(POINT_QUERIES) + list(ERROR_QUERIES)]


# -- conic ---------------------------------------------------------------------

# (field, Y,Z,W): a rescaled rational point on Y^2 - x*Z^2 - x*W^2, and one off it
POINTS = (("Q(i)", "0,i/x,1/x"), ("F5", "1,1,1"))


def conic_calls():
    from xratio.conic import searchable_degree
    from xratio.fields import field_by_name
    out = []
    for name in NINE_FIELDS:
        out += [["conic", "decide", "--field", name],
                ["conic", "parametrize", "--field", name]]
    for name, point in POINTS:
        out.append(["conic", "parametrize", "--field", name, "--point", point])
    for name in NINE_FIELDS:
        field = field_by_name(name)
        if field.is_finite:
            top = searchable_degree(field, 10 ** 6)
            out += [["conic", "search", "--field", name, "--degree-bound", str(d)]
                    for d in range(top + 2)]
    return out


# -- subgroups, stabilizer and the enumerative checks ----------------------------

# (field, --points): sets with and without infinity, trivial and nontrivial
# stabilizers, F_p(i), and two refused inputs
STABILIZER_CASES = (
    ("F101", "0,1,2,inf"), ("F101", "0,1,2,3"), ("F101", "0,1,2,4"),
    ("F7", "0,1,2,3"), ("F13", "0,3,6,9"), ("F3(i)", "0,1,2,inf"),
    ("F7(i)", "0,1,2,3"), ("F5", "0,1,2,inf"),
    ("F7", "0,1,2"), ("F2", "0,1,inf,0"),
)

ENUM_CHECKS = "GENFREE,SPLIT,FIX-EQ,SUBGRP-COUNT"
SEEDS = (1, 2, 3, 4, 5)


def enum_calls():
    out = [["subgroups"]]
    out += [["stabilizer", "--field", field, "--points", points]
            for field, points in STABILIZER_CASES]
    out += [["run", "--checks", ENUM_CHECKS, "--format", "json", "--seed", str(seed)]
            for seed in SEEDS]
    return out


# -- run reports ---------------------------------------------------------------


def report_calls():
    nine = ",".join(NINE_FIELDS)
    out = [["run"], ["run", "--fields", nine]]
    out += [["run", "--fields", field] for field in NINE_FIELDS]
    out += [["run", "--fields", field, "--format", "json"] for field in NINE_FIELDS]
    return out + [["run", "--format", "json"],
                  ["run", "--fields", "Q,F7(i)", "--format", "json"],
                  ["run", "--fields", nine, "--format", "json"],
                  ["run", "--fields", nine, "--checks", "ISO-SEARCH", "--format", "json"]]


GOLDENS = {
    "check_identity_golden.json": check_identity_calls,
    "conic_golden.json": conic_calls,
    "enum_golden.json": enum_calls,
    "report_golden.json": report_calls,
}

# a text report check line is "<id:16> <verdict:16> <ms:>6> ms  <anchor>";
# detail lines start with spaces and the header line has no " ms  " column
TIMING = re.compile(r"^(\S.{33}) *\d+ ms  ", re.M)


def run_call(argv):
    """(exit code, stdout with the ms column set to "- ms", stderr) of one
    in-process `replay` call."""
    from xratio.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, TIMING.sub(r"\1     - ms  ", out.getvalue()), err.getvalue()


def main():
    for name, calls in GOLDENS.items():
        records = []
        for argv in calls():
            code, out, err = run_call(argv)
            records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
        path = Path(__file__).with_name(name)
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        was = {json.dumps(rec["argv"]): rec for rec in old}
        now = {json.dumps(rec["argv"]): rec for rec in records}
        changed = sum(was[key] != rec for key, rec in now.items() if key in was)
        print(f"{name}: {len(old)} -> {len(records)} records, "
              f"{len(now.keys() - was.keys())} added, {len(was.keys() - now.keys())} removed, "
              f"{changed} changed")
        path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
