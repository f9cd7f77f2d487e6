"""The benchmark's three workloads.

Each workload is one client in a closed loop: a unit of work starts when the
previous one has returned.  A unit's inputs are a pure function of the
benchmark seed and the unit's index, and the program sees only those inputs.
``execute`` is the timed part; ``verify`` compares the result with the hand
written answers in ``known`` and is not timed.

Import this module only after ``src`` is on ``sys.path``.
"""

import contextlib
import io
import random

import known
from xratio import cli
from xratio.checks import run_checklist
from xratio.report import RunConfig

DEFAULT_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5")
NINE_FIELDS = ("Q", "Q(i)", "F2", "F3", "F5", "F7", "F3(i)", "F7(i)", "F101")


def _field_lines(details, fields):
    """{field name: [rest of each detail line "<field>: ..."]}."""
    out = {f: [] for f in fields}
    for line in details:
        name, sep, rest = line.partition(": ")
        if sep and name in out:
            out[name].append(rest)
    return out


class Checklist:
    """Back-to-back ``replay run`` units: one unit is one full Report,
    rendered as text the way ``replay run`` prints it."""

    traced_units = 1

    def __init__(self, name, fields, only, verdicts):
        self.name = name
        self.fields = fields
        self.only = only
        self.verdicts = verdicts

    def unit(self, seed, index):
        return seed + index

    def execute(self, unit_seed):
        report = run_checklist(RunConfig(seed=unit_seed, fields=self.fields),
                               only=self.only)
        report.to_text()
        return report

    def count_verdicts(self, report):
        return len(report.checks)

    def verify(self, unit_seed, report):
        errors = []
        got = {c.id: c.verdict for c in report.checks}
        if got != self.verdicts:
            diff = sorted(k for k in set(got) | set(self.verdicts)
                          if got.get(k) != self.verdicts.get(k))
            errors.append("verdicts differ at " + ", ".join(
                f"{k} {got.get(k)} != {self.verdicts.get(k)}" for k in diff))
        details = {c.id: c.details for c in report.checks}
        odd = [f for f in self.fields if f not in known.CHARACTERISTIC_2]
        for check, yes in (("ISO-CRIT", "isotropic"), ("MAIN-B-VERDICT", "RATIONAL")):
            for f, lines in _field_lines(details.get(check, ()), odd).items():
                if len(lines) != 1:
                    errors.append(f"{check}: {len(lines)} lines for {f}")
                elif lines[0].startswith(yes) != known.ISOTROPIC[f]:
                    errors.append(f"{check}: wrong isotropy for {f}: {lines[0]}")
        if "GENFREE" in self.verdicts:
            errors += _verify_genfree(unit_seed, details.get("GENFREE", ()))
        return errors


def _verify_genfree(unit_seed, details):
    errors = []
    want = known.genfree_trivial_count(unit_seed)
    head = details[0] if details else ""
    if not head.startswith(f"{want}/100 sampled"):
        errors.append(f"GENFREE: expected {want}/100 trivial, got {head!r}")
    order = known.DESIGNED_STABILIZER_ORDER
    if not any("designed exceptional tuple" in d and d.endswith(f"order {order}")
               for d in details):
        errors.append(f"GENFREE: designed tuple stabilizer is not of order {order}")
    return errors


class IdentityQueries:
    """A seeded stream of in-process ``replay check-identity`` calls: one unit
    is one EQUAL / NOT EQUAL answer."""

    name = "identity-queries"
    fields = NINE_FIELDS
    traced_units = 100

    def unit(self, seed, index):
        rng = random.Random(f"{seed}-{index}")
        field = rng.choice(NINE_FIELDS)
        lhs, rhs = rng.choice(known.identities(field))
        holds = index % 2 == 0
        return field, lhs, rhs if holds else f"({rhs}) + 1", holds

    def execute(self, query):
        field, lhs, rhs, _holds = query
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check-identity", "--field", field,
                             "--lhs", lhs, "--rhs", rhs])
        return code, out.getvalue()

    def count_verdicts(self, _result):
        return 1

    def verify(self, query, result):
        field, _lhs, _rhs, holds = query
        code, text = result
        word = "EQUAL" if holds else "NOT EQUAL"
        if code != (0 if holds else 1) or not text.startswith(f"{word} over {field}:"):
            return [f"{query}: expected {word}, got exit {code}: {text[:80]!r}"]
        return []


WORKLOADS = {w.name: w for w in (
    Checklist("replay-default", DEFAULT_FIELDS, None, known.DEFAULT_VERDICTS),
    Checklist("symbolic-wide", NINE_FIELDS, list(known.FIELD_CHECKS),
              known.WIDE_VERDICTS),
    IdentityQueries(),
)}
