"""Self-test of the benchmark, at reduced size.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json through run.py with --seconds 1, once
untraced and twice traced with the same seed, and checks that:

- the last line of stdout is the result object with exactly the keys
  correct, attempted, failed and metrics;
- every end-to-end metric (untraced) and per-layer metric (traced) named in
  BENCHMARK.json is emitted, with its unit, and nothing else;
- every unit matched its known answer (error_rate 0, correct true);
- the traced counts repeat exactly between the two traced runs.

It also checks that run.py fails without a result in a directory that holds
only BENCHMARK.json and the benchmark's files.  Prints one line per run and
exits 1 if any check failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "count-computed", "ratio")


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done, expected):
    """Problems with one run's result; the parsed result (or None)."""
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"], None
    res = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"correct={res['correct']} failed={res['failed']} "
                        f"attempted={res['attempted']}")
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))}")
    return problems, res


def main():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    failures = 0
    for w in SPEC["workloads"]:
        name = w["name"]
        problems, _ = result_of(bench(name, 0), end_to_end)
        traced = []
        for _ in range(2):
            more, res = result_of(bench(name, 1), per_layer)
            problems += more
            traced.append(res)
        if all(traced):
            a, b = (r["metrics"] for r in traced)
            drift = [n for n in a if a[n]["unit"] in EXACT_UNITS
                     and a[n]["value"] != b[n]["value"]]
            if drift:
                problems.append(f"traced counts differ between runs: {drift}")
        failures += bool(problems)
        print(f"{name}: " + ("ok" if not problems else "; ".join(problems)))

    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        ok = done.returncode != 0 and '"metrics"' not in done.stdout
        failures += not ok
        print("without the program: " + ("fails as it should" if ok else
              f"exit {done.returncode}, stdout {done.stdout[-200:]!r}"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
