"""Regenerate report_golden.json: `replay run` reports pinned as text and JSON.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_report_golden.py

The argument lists live here and in the JSON file itself.  Each call runs
in-process through ``cli.main``; its exit code, stdout and stderr are
recorded.  The calls are `replay run` as text for the default fields, for
all nine fields and for each field alone, and `replay run --format json` for
each field alone.  The text report's per-check wall time is the one part
that changes between runs, so every "<ms> ms" column is replaced by "- ms"
before it is recorded (and before a test compares).
No test runs this script.  Only a change that alters this output on purpose
regenerates the file, and its diff is reviewed with that change.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

NINE_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101")

# a check line is "<id:16> <verdict:16> <ms:>6> ms  <anchor>"; detail lines
# start with spaces and the header line has no " ms  " column
TIMING = re.compile(r"^(\S.{33}) *\d+ ms  ", re.M)


def strip_timings(text):
    return TIMING.sub(r"\1     - ms  ", text)


def calls():
    out = [["run"], ["run", "--fields", ",".join(NINE_FIELDS)]]
    out += [["run", "--fields", field] for field in NINE_FIELDS]
    out += [["run", "--fields", field, "--format", "json"] for field in NINE_FIELDS]
    return out


def run_call(main, argv):
    """(exit code, stdout with timings stripped, stderr) of one in-process
    `replay` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, strip_timings(out.getvalue()), err.getvalue()


def main():
    from xratio.cli import main as replay
    records = []
    for argv in calls():
        code, out, err = run_call(replay, argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    path = Path(__file__).with_name("report_golden.json")
    path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(records)} calls to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
