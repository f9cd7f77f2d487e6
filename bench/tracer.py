"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of xratio's layers from outside the
package.  Python resolves a name at call time, so each wrapped function is
replaced at every binding that holds it: the defining module's attribute, the
copies other xratio modules made with ``from ... import``, and class-level
aliases such as ``MultiPoly.__rmul__ = __mul__``.  A binding left unpatched
would let calls escape their spans.

A span is (name, start, end, parent span, unit index).  Spans stay in memory
in flat arrays and are written out by :meth:`Tracer.write`.  Self time is a
span's duration minus the durations of its direct child spans; total time
sums only spans with no enclosing span of the same name.
"""

import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

# FieldElement arithmetic: counted, not spanned (about a million calls per
# default run).
ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _mul_note(tracer, args, out):
    a, b = args
    if type(out) is type(a):
        width = len(b.terms) if isinstance(b, type(a)) else 1  # a scalar is one term
        tracer.counts["poly.mul.term_pairs"] += len(a.terms) * width
        tracer.counts["poly.mul.terms_out"] += len(out.terms)


def _derived_note(tracer, args, _out):
    tracer.keys["tables.derived_values"].add(args[0].name)


def _verify_note(tracer, args, _out):
    cert, field = args
    tracer.keys["certs.verify"].add((cert.name, field.name))


def _borel_note(tracer, args, _out):
    q = args[1].order
    tracer.counts["projline.borel_stabilizer.maps_scanned"] += q * (q - 1)


# (span name, module, attribute path, note run after the call)
LAYERS = (
    ("poly.mul", "xratio.poly", "MultiPoly.__mul__", _mul_note),
    ("poly.substitute", "xratio.poly", "MultiPoly.substitute", None),
    ("ratfunc.substitute", "xratio.ratfunc", "RatFunc.substitute", None),
    ("ratfunc.rf_eq", "xratio.ratfunc", "rf_eq", None),
    ("exprparse.parse", "xratio.exprparse", "parse_expression", None),
    ("tables.derived_values", "xratio.tables", "derived_values", _derived_note),
    ("tables.point_action", "xratio.tables", "point_action", None),
    ("autos.apply", "xratio.autos", "Automorphism.apply", None),
    ("certs.verify", "xratio.certs", "verify_certificate", _verify_note),
    ("certs.parse", "xratio.certs", "parse_certificate", None),
    ("conic.search", "xratio.conic", "bounded_point_search", None),
    ("conic.decide", "xratio.conic", "decide_isotropy", None),
    ("conic.parametrize", "xratio.conic", "parametrize", None),
    ("perms.subgroups", "xratio.perms", "subgroups", None),
    ("perms.splits", "xratio.perms", "splits", None),
    ("projline.borel_stabilizer", "xratio.projline", "borel_stabilizer", _borel_note),
    ("report.render", "xratio.report", "Report.to_text", None),
    ("report.render", "xratio.report", "Report.to_json", None),
    ("cli.main", "xratio.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._depth = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.outer = array("b")
        self._stack = []
        self.unit_index = -1  # -1 tags the set-up phase
        self.counts = Counter()
        self.keys = defaultdict(set)
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _spanned(self, name, fn, note):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        nid = self._ids[name]
        depth, stack = self._depth, self._stack
        ids, start, end = self.name_id, self.start, self.end
        parent, unit, outer = self.parent, self.unit, self.outer

        def wrapped(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            unit.append(self.unit_index)
            outer.append(depth[nid] == 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if note is not None:
                note(self, args, out)
            return out

        return wrapped

    def _counted(self, key, fn):
        counts = self.counts

        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    def _rebind(self, original, replacement, owners):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._undo.append((owner, attr, original))

    def install(self):
        """Wrap every layer function at every binding; undo with uninstall()."""
        modules = [m for n, m in sys.modules.items()
                   if n == "xratio" or n.startswith("xratio.")]
        for span, modname, path, note in LAYERS:
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = vars(owner)[attr]
            self._rebind(original, self._spanned(span, original, note),
                         modules + [owner] if cls else modules)
        fe = sys.modules["xratio.fields"].FieldElement
        for original in {vars(fe)[attr] for attr in ELEM_OPS}:  # aliases once
            self._rebind(original, self._counted("fields.elem_ops", original), [fe])
        checks = sys.modules["xratio.checks"]
        traced = tuple(replace(s, run=self._spanned(f"checks.{s.id}", s.run, None))
                       for s in checks.CHECKS)
        self._rebind(checks.CHECKS, traced, modules)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def durations(self, prefix, unit_index):
        """{span name: duration} for spans named prefix* in one unit."""
        out = {}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            if self.unit[i] == unit_index and name.startswith(prefix):
                out[name] = out.get(name, 0.0) + self.end[i] - self.start[i]
        return out

    def totals(self):
        """Per span name: (calls, self seconds, total seconds)."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if self.outer[i]:
                total_s[name] += dur[i]
        return calls, self_s, total_s

    def write(self, path):
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\tunit\n")
            for i, nid in enumerate(self.name_id):
                out.write(f"{i}\t{self.names[nid]}\t{self.start[i]!r}\t"
                          f"{self.end[i]!r}\t{self.parent[i]}\t{self.unit[i]}\n")


COMPUTED = "count-computed"  # derived from operand sizes, not counted directly


def layer_metrics(tracer, check_ids):
    """Per-layer metrics over everything the tracer recorded: {name: (value, unit)}."""
    calls, self_s, total_s = tracer.totals()
    c = tracer.counts

    def frac(key):
        return len(tracer.keys[key]) / calls[key] if calls[key] else 0.0

    m = {
        "fields.elem_ops": (c["fields.elem_ops"], "count"),
        "poly.mul.calls": (calls["poly.mul"], "count"),
        "poly.mul.term_pairs": (c["poly.mul.term_pairs"], COMPUTED),
        "poly.mul.terms_out": (c["poly.mul.terms_out"], "count"),
        "poly.mul.self_s": (self_s["poly.mul"], "s"),
        "poly.substitute.calls": (calls["poly.substitute"], "count"),
        "poly.substitute.self_s": (self_s["poly.substitute"], "s"),
        "ratfunc.substitute.calls": (calls["ratfunc.substitute"], "count"),
        "ratfunc.substitute.self_s": (self_s["ratfunc.substitute"], "s"),
        "ratfunc.rf_eq.calls": (calls["ratfunc.rf_eq"], "count"),
        "ratfunc.rf_eq.self_s": (self_s["ratfunc.rf_eq"], "s"),
        "exprparse.parse.calls": (calls["exprparse.parse"], "count"),
        "exprparse.parse.self_s": (self_s["exprparse.parse"], "s"),
        "tables.derived_values.calls": (calls["tables.derived_values"], "count"),
        "tables.derived_values.total_s": (total_s["tables.derived_values"], "s"),
        "tables.derived_values.distinct_frac": (frac("tables.derived_values"), "ratio"),
        "tables.point_action.calls": (calls["tables.point_action"], "count"),
        "tables.point_action.total_s": (total_s["tables.point_action"], "s"),
        "autos.apply.calls": (calls["autos.apply"], "count"),
        "autos.apply.total_s": (total_s["autos.apply"], "s"),
        "certs.verify.calls": (calls["certs.verify"], "count"),
        "certs.verify.total_s": (total_s["certs.verify"], "s"),
        "certs.verify.distinct_frac": (frac("certs.verify"), "ratio"),
        "certs.parse.calls": (calls["certs.parse"], "count"),
        "conic.search.calls": (calls["conic.search"], "count"),
        "conic.search.total_s": (total_s["conic.search"], "s"),
        "conic.decide.total_s": (total_s["conic.decide"], "s"),
        "conic.parametrize.total_s": (total_s["conic.parametrize"], "s"),
        "perms.subgroups.calls": (calls["perms.subgroups"], "count"),
        "perms.subgroups.total_s": (total_s["perms.subgroups"], "s"),
        "perms.splits.total_s": (total_s["perms.splits"], "s"),
        "projline.borel_stabilizer.calls": (calls["projline.borel_stabilizer"], "count"),
        "projline.borel_stabilizer.total_s": (total_s["projline.borel_stabilizer"], "s"),
        "projline.borel_stabilizer.maps_scanned":
            (c["projline.borel_stabilizer.maps_scanned"], COMPUTED),
    }
    for cid in check_ids:
        m[f"checks.{cid}.total_s"] = (total_s[f"checks.{cid}"], "s")
    m["report.render.total_s"] = (total_s["report.render"], "s")
    m["cli.main.self_s"] = (self_s["cli.main"], "s")
    return m
