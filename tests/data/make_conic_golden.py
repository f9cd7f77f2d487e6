"""Regenerate conic_golden.json: `replay conic` output pinned.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_conic_golden.py

The argument lists live here and in the JSON file itself.  Each call runs
in-process through ``cli.main``; its exit code, stdout and stderr are
recorded.  The calls are `conic decide` and `conic parametrize` over each of
the nine named fields, `conic parametrize --point` with a point on the conic
and one off it, and `conic search` over each finite field at every degree
bound from 0 up to the largest within the search budget, plus one bound
past it.  No test runs this script.  Only a change that alters conic output
on purpose regenerates the file, and its diff is reviewed with that change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

NINE_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101")

# (field, Y,Z,W): a rescaled rational point on Y^2 - x*Z^2 - x*W^2, and one off it
POINTS = (("Q(i)", "0,i/x,1/x"), ("F5", "1,1,1"))


def calls():
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
    path = Path(__file__).with_name("conic_golden.json")
    path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(records)} calls to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
