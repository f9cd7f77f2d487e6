"""The benchmark's span tracer still finds every name it wraps.

`bench/tracer.py` rebinds package functions by name, at every binding that
holds them.  A renamed or deleted function would otherwise show only in a
traced benchmark run (`bench/run.py --trace 1`), as a `KeyError`.  This test
installs the tracer in process, checks that each listed layer function was
wrapped, uninstalls it and checks that every binding holds its original
value again.  It also runs the default checklist traced: the tracer rebinds
`checks.CHECKS`, so a check held anywhere else would run without its span.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import xratio.cli  # noqa: F401  (the tracer wraps names in every xratio module)
from xratio.checks import CHECK_IDS, run_checklist
from xratio.fields import FieldElement
from xratio.report import RunConfig

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """{(owner, attribute): value} over every xratio module and its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "xratio" and not name.startswith("xratio."):
            continue
        for owner in [module] + [c for c in vars(module).values()
                                 if inspect.isclass(c) and c.__module__ == name]:
            for attr, value in list(vars(owner).items()):
                out[(owner, attr)] = value
    return out


def test_tracer_wraps_every_layer_and_restores_every_binding():
    tracing = _load_tracer()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._undo, "install rebound nothing"
        for _span, modname, path, _note in tracing.LAYERS:
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            assert vars(owner)[attr] is not before[(owner, attr)], path
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_a_traced_default_run_records_one_span_per_check():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        run_checklist(RunConfig())
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    assert {name: n for name, n in calls.items() if name.startswith("checks.")} == \
        {f"checks.{check_id}": 1 for check_id in CHECK_IDS}


def test_every_counted_field_element_operator_is_defined_and_rebound():
    tracing = _load_tracer()
    before = dict(vars(FieldElement))
    for name in tracing.ELEM_OPS:
        assert name in before, (
            f"FieldElement.{name} is counted as fields.elem_ops by bench/tracer.py: "
            "the operator stays until a benchmark change retires fields.elem_ops")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rebound = [name for name in tracing.ELEM_OPS
                   if vars(FieldElement)[name] is not before[name]]
    finally:
        tracer.uninstall()
    assert rebound == list(tracing.ELEM_OPS)
