"""Regenerate enum_golden.json: output of the enumerative commands pinned.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_enum_golden.py

The argument lists live here and in the JSON file itself.  Each call runs
in-process through ``cli.main``; its exit code, stdout and stderr are
recorded.  The calls are `replay subgroups`, `replay stabilizer` over a
fixed list of point sets (two of them refused: three points, and a repeated
point), and `replay run` of the four checks that reach `perms` and
`projline` (GENFREE, SPLIT, FIX-EQ, SUBGRP-COUNT) as JSON for seeds 1-5.
No test runs this script.  Only a change that alters this output on purpose
regenerates the file, and its diff is reviewed with that change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

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


def calls():
    out = [["subgroups"]]
    out += [["stabilizer", "--field", field, "--points", points]
            for field, points in STABILIZER_CASES]
    out += [["run", "--checks", ENUM_CHECKS, "--format", "json", "--seed", str(seed)]
            for seed in SEEDS]
    return out


def run_call(main, argv):
    """(exit code, stdout, stderr) of one in-process `replay` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    from xratio.cli import main as replay
    records = []
    for argv in calls():
        code, out, err = run_call(replay, argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    path = Path(__file__).with_name("enum_golden.json")
    path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(records)} calls to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
