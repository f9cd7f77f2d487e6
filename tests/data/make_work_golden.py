"""Regenerate work_golden.json: the traced work counts of two runs pinned.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_work_golden.py

Each run is `run_checklist` at seed 0 in a fresh interpreter, traced by
`bench/tracer.py`: one on the default fields and one on all nine named
fields.  A fresh interpreter matters, because the derived-value and
certificate caches last for a process and a second run would do less work.
The counts are deterministic: `poly.mul` calls, term pairs and terms out,
and the calls of the other layer functions named in ``CALLS``.

With a run name as its only argument the script prints that run's counts as
JSON instead; `tests/test_work_golden.py` compares those with the file.  A
change that moves the work on purpose regenerates the file, and its diff is
reviewed with that change: on a rewrite the script prints each run's counts
as ``old -> new (+x.x %)`` against the file it replaces.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TRACER = ROOT / "bench" / "tracer.py"

RUNS = {
    "default": None,  # RunConfig's default fields
    "nine_fields": ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101"),
}

# layer spans whose call counts are pinned, besides poly.mul
CALLS = ("ratfunc.substitute", "ratfunc.rf_eq", "exprparse.parse", "autos.apply",
         "certs.verify", "certs.parse", "projline.borel_stabilizer")


def measure(run: str) -> dict:
    """The traced counts of one checklist run in this process."""
    import xratio.cli  # noqa: F401  (the tracer wraps names in every xratio module)
    from xratio.checks import run_checklist
    from xratio.report import RunConfig

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    fields = RUNS[run]
    config = RunConfig(seed=0) if fields is None else RunConfig(seed=0, fields=fields)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        run_checklist(config)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    counts = {"poly.mul.calls": calls["poly.mul"],
              "poly.mul.term_pairs": tracer.counts["poly.mul.term_pairs"],
              "poly.mul.terms_out": tracer.counts["poly.mul.terms_out"]}
    counts.update((f"{name}.calls", calls[name]) for name in CALLS)
    return counts


def measure_fresh(run: str) -> dict:
    """measure(run) in a fresh interpreter that imports this checkout's src/."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, __file__, run], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(done.stdout)


def main():
    if len(sys.argv) == 2:
        print(json.dumps(measure(sys.argv[1])))
        return
    golden = {run: measure_fresh(run) for run in RUNS}
    path = Path(__file__).with_name("work_golden.json")
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for run, counts in golden.items():
        for name, new in counts.items():
            was = old.get(run, {}).get(name)
            change = f" ({100 * (new - was) / was:+.1f} %)" if was else ""
            print(f"{run} {name}: {was} -> {new}{change}")
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} runs to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
