"""Traced work counts match tests/data/work_golden.json exactly.

The counts (polynomial products and their term pairs, substitutions, rf_eq,
parses, automorphism applications, certificate verifications and parses,
Borel stabilizers) are deterministic for a fresh process, so they pin the
work a run does, not its time: a performance change shows up here as a
count diff that no host drift can blur.  `tests/data/make_work_golden.py`
measures each run in a fresh interpreter, loading `bench/tracer.py` from its
path as `tests/test_bench_tracer.py` does.  A change that moves the work on
purpose regenerates the file with that script and explains the diff; the
test is never loosened to absorb one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


def _maker():
    spec = importlib.util.spec_from_file_location("make_work_golden",
                                                  DATA / "make_work_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = json.loads((DATA / "work_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_traced_work_counts_match_golden(run):
    maker = _maker()
    assert sorted(GOLDEN) == sorted(maker.RUNS)
    assert maker.measure_fresh(run) == GOLDEN[run]
