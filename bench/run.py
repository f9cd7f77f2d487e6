"""xratio benchmark: time until a trusted verdict, on three workloads.

Run from the repository root:

    python3 bench/run.py --workload replay-default --seed 1 --seconds 25 --trace 0

Workloads (workloads.py): replay-default, symbolic-wide, identity-queries.
Each is one process with one client in a closed loop.  Every unit of work is
checked against hand-written answers (known.py).

--trace 0 reports the end-to-end metrics:
  setup_s         median over SETUP_PROBES fresh interpreters, spread over
                  the timed loop, of the cold set-up: import xratio, parse the
                  shipped certificates, build the workload's fields
  verdict_s_p50   median wall seconds per unit, after one warm-up unit
  verdicts_per_s  verdicts delivered per second of unit wall time
  peak_rss_mb     peak resident memory of this process
and prints verdict_s_p90 (only when the run has >= 100 units, so that ten
samples lie beyond it) and error_rate on the lines before the result.

--trace 1 runs the same untimed warm-up and timed loop, then a fixed number
of traced units (the workload's ``traced_units``, same inputs as the first
timed units) with every layer wrapped (tracer.py), and reports the
per-layer metrics over the traced set-up and those units.  Their counts
repeat exactly for a given seed.  trace.overhead_s is the traced minus the
untraced verdict_s_p50 of the same run.  The spans of a workload's latest
traced run are written to bench/out/spans-<workload>.tsv.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class SetupProbes:
    """Cold set-up timed in fresh interpreters (setup_probe.py).

    The host's speed drifts over tens of seconds, so the probes are spread
    evenly over the timed loop, between units, and see the same conditions
    as the units do.
    """

    def __init__(self, fields, seconds):
        self.fields = fields
        self.every = seconds / SETUP_PROBES
        self.times = []

    def catch_up(self, elapsed):
        while len(self.times) < SETUP_PROBES and len(self.times) * self.every <= elapsed:
            self._probe()

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self._probe()

    def _probe(self):
        done = subprocess.run(
            [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC), *self.fields],
            capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(done.stdout.split()[-1]))


class Tally:
    """Units attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, index, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"unit {index}: {'; '.join(errors)}")


def run_units(wl, seed, indices, tally, seconds=None, tracer=None, extra_check=None,
              between=None):
    """Run units in a closed loop; stop once `seconds` of wall have passed.

    Returns (per-unit seconds, verdicts delivered).  Only ``execute`` is
    timed; verification and ``between(elapsed)`` happen between units.
    """
    times, verdicts = [], 0
    t_start = perf_counter()
    for index in indices:
        unit = wl.unit(seed, index)
        if tracer is not None:
            tracer.unit_index = index
        t0 = perf_counter()
        try:
            result = wl.execute(unit)
        except Exception as exc:  # a unit that raises is a failed unit
            times.append(perf_counter() - t0)
            tally.record(index, [f"raised {exc!r}"])
        else:
            times.append(perf_counter() - t0)
            errors = wl.verify(unit, result)
            if extra_check is not None:
                errors += extra_check(index, result)
            verdicts += wl.count_verdicts(result)
            tally.record(index, errors)
        if between is not None:
            between(perf_counter() - t_start)
        if seconds is not None and perf_counter() - t_start >= seconds:
            break
    return times, verdicts


def check_times_agree(tracer):
    """Each traced check span must match the report's per-check ms (the report
    truncates to whole ms around the same call)."""
    def compare(index, report):
        spans = tracer.durations("checks.", index)
        bad = []
        for c in report.checks:
            span_ms = spans.get(f"checks.{c.id}", float("nan")) * 1000
            if not abs(span_ms - c.ms) <= 1.5:
                bad.append(f"{c.id} report {c.ms} ms vs span {span_ms:.3f} ms")
        return bad
    return compare


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "xratio" / "__init__.py").is_file():
        print(f"error: no xratio package under {SRC}; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import known
    import setup_probe
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    tally = Tally()
    probes = None if args.trace else SetupProbes(wl.fields, args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_probe.setup(wl.fields)
    if tracer is not None:
        tracer.uninstall()

    run_units(wl, args.seed, [0], tally)  # warm-up: process-wide caches fill
    times, verdicts = run_units(wl, args.seed, itertools.count(1), tally,
                                seconds=args.seconds,
                                between=probes and probes.catch_up)
    p50 = statistics.median(times)

    notes = [f"workload {wl.name}: seed {args.seed}, {len(times)} timed units "
             f"after 1 warm-up unit, closed loop, 1 client"]
    if tracer is None:
        probes.finish()
        metrics = {
            "setup_s": (statistics.median(probes.times), "s"),
            "verdict_s_p50": (p50, "s"),
            "verdicts_per_s": (verdicts / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes.append(f"setup_s is the median of {len(probes.times)} fresh interpreters")
        if len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[8]
            notes.append(f"verdict_s_p90 = {p90} s ({len(times)} units)")
        else:
            notes.append(f"verdict_s_p90 not defined: {len(times)} < 100 units")
    else:
        extra = check_times_agree(tracer) if isinstance(wl, workloads.Checklist) else None
        tracer.install()
        try:
            traced, _ = run_units(wl, args.seed, range(1, wl.traced_units + 1), tally,
                                  tracer=tracer, extra_check=extra)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, known.ALL_CHECKS)
        traced_p50 = statistics.median(traced)
        metrics["trace.units"] = (len(traced), "count")
        metrics["trace.verdict_s_p50"] = (traced_p50, "s")
        metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{wl.name}.tsv"
        tracer.write(spans_file)
        notes.append(f"per-layer metrics cover the traced set-up and {len(traced)} "
                     f"traced units; spans in {spans_file.relative_to(ROOT)}")
        notes.append("count-computed: derived from operand sizes, not counted")

    notes.append(f"error_rate = {tally.failed / tally.attempted} "
                 f"({tally.failed} of {tally.attempted} units)")
    notes += tally.messages
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
