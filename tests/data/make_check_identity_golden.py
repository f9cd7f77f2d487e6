"""Regenerate check_identity_golden.json: `replay check-identity` output pinned.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_check_identity_golden.py

The query list lives here and in the JSON file itself; nothing is imported
from the benchmark.  Each query runs in-process through ``cli.main``; its
exit code, stdout and stderr are recorded.  No test runs this script.  Only
a change that alters check-identity output on purpose regenerates the file,
and its diff is reviewed with that change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

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


def queries():
    out = []
    for k, (lhs, rhs) in enumerate(IDENTITIES_ODD):
        for field in (ODD_FIELDS[k % 8], ODD_FIELDS[(k + 3) % 8]):
            out += [(field, lhs, rhs), (field, lhs, f"({rhs}) + 1")]
    for lhs, rhs in IDENTITIES_CHAR2:
        out += [("F2", lhs, rhs), ("F2", lhs, f"({rhs}) + 1")]
    return out + list(POINT_QUERIES) + list(ERROR_QUERIES)


def run_query(main, field, lhs, rhs):
    """(exit code, stdout, stderr) of one in-process check-identity call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-identity", "--field", field, "--lhs", lhs, "--rhs", rhs])
    return code, out.getvalue(), err.getvalue()


def main():
    from xratio.cli import main as replay
    records = []
    for field, lhs, rhs in queries():
        code, out, err = run_query(replay, field, lhs, rhs)
        records.append({"field": field, "lhs": lhs, "rhs": rhs,
                        "exit": code, "stdout": out, "stderr": err})
    path = Path(__file__).with_name("check_identity_golden.json")
    path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(records)} queries to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
