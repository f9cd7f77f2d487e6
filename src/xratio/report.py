"""Replay report model: check results, text rendering, deterministic JSON.

Verdicts
--------
PASS / FAIL speak for themselves.  EVIDENCE marks a statistical or sampled
check that supports a claim without proving it (it never hard-fails the
run).  ASSUMED-BY-PAPER marks a claim the source argument uses without an
independent mechanical proof here; the check still gathers what evidence it
can.  SKIPPED means the run configuration made the check inapplicable (for
example, no field of the right characteristic was selected).  The
"evidence class" {EVIDENCE, ASSUMED-BY-PAPER} is what aggregation treats as
acceptable-but-not-proven; SKIPPED never counts as a pass.

Determinism
-----------
The JSON emitter is byte-identical across runs of the same configuration:
the per-check "ms" key is always written as 0 there, and the measured
wall-clock timings appear only in the text report.
"""

from __future__ import annotations

from .fields import XratioError

VERSION = "0.1.0"

PASS = "PASS"
FAIL = "FAIL"
EVIDENCE = "EVIDENCE"
ASSUMED = "ASSUMED-BY-PAPER"
SKIPPED = "SKIPPED"

VERDICTS = (PASS, FAIL, EVIDENCE, ASSUMED, SKIPPED)

DEFAULT_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5")

class RunConfig:
    __slots__ = ("seed", "fields", "degree_bound", "samples")

    def __init__(self, seed=0, fields=DEFAULT_FIELDS, degree_bound=2, samples=100):
        self.seed, self.degree_bound, self.samples = seed, degree_bound, samples
        self.fields = tuple(name.strip() for name in fields)
        if not self.fields:
            raise XratioError("no fields selected")
        if len(set(self.fields)) != len(self.fields):
            raise XratioError(f"duplicate field names in {','.join(self.fields)}")
        if self.samples < 1:
            raise XratioError(f"samples must be >= 1, got {self.samples}")
        if self.degree_bound < 0:
            raise XratioError(f"degree bound must be >= 0, got {self.degree_bound}")


class CheckResult:
    __slots__ = ("id", "anchor", "verdict", "details", "ms")

    def __init__(self, id, anchor, verdict, details=None, ms=0):
        self.id, self.anchor, self.verdict, self.ms = id, anchor, verdict, ms
        self.details = [] if details is None else details


class Report:
    __slots__ = ("config", "checks")

    def __init__(self, config, checks):
        self.config, self.checks = config, checks

    @property
    def exit_code(self) -> int:
        return 1 if any(c.verdict == FAIL for c in self.checks) else 0

    def counts(self) -> dict:
        return {v: sum(c.verdict == v for c in self.checks) for v in VERDICTS}

    def to_json(self) -> str:
        import json  # only JSON output needs it; a text run never imports it
        payload = {
            "run": {
                "seed": self.config.seed,
                "fields": list(self.config.fields),
                "version": VERSION,
            },
            "checks": [
                {
                    "id": c.id,
                    "verdict": c.verdict,
                    "anchor": c.anchor,
                    "details": list(c.details),
                    "ms": 0,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            f"replay {VERSION}  seed={cfg.seed}  fields={','.join(cfg.fields)}  "
            f"degree-bound={cfg.degree_bound}  samples={cfg.samples}",
            "",
        ]
        for c in self.checks:
            lines.append(f"{c.id:<16} {c.verdict:<16} {c.ms:>6} ms  {c.anchor}")
            for d in c.details:
                lines.append(f"{'':16} - {d}")
        n = self.counts()
        lines.append("")
        lines.append(
            f"summary: {len(self.checks)} checks  "
            + "  ".join(f"{v} {n[v]}" for v in VERDICTS if n[v]))
        lines.append("overall: " + ("FAIL" if self.exit_code else "OK"))
        return "\n".join(lines) + "\n"


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["run", "checks"],
    "additionalProperties": False,
    "properties": {
        "run": {
            "type": "object",
            "required": ["seed", "fields", "version"],
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer"},
                "fields": {"type": "array", "items": {"type": "string"}},
                "version": {"type": "string"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "verdict", "anchor", "details", "ms"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "verdict": {"enum": list(VERDICTS)},
                    "anchor": {"type": "string"},
                    "details": {"type": "array", "items": {"type": "string"}},
                    "ms": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}
