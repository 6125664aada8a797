"""Span recording around calls into xfvar, installed from outside the program.

A Tracer keeps spans (name, start, end, parent, size) in memory. `patched`
wraps public functions at the module attribute their caller looks them up
through (for example `xfvar.cli.fit_model`, which `cli` imports by name)
and each mechanism class's `sample` method, then restores the originals.
Self times and per-name counts are derived from the span list afterwards,
so nothing is aggregated while the program runs.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from dataclasses import dataclass

# Span record fields, as a tuple per span to keep recording cheap.
NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, name, size=None):
        """fn with a span around every call; size(args, result) -> int."""
        clock, spans, stack_of = self.clock, self.spans, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)  # reserve the index so children can point at it
            stack.append(slot)
            out, ok = None, False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (name, t0, t1, parent, size(args, out) if size and ok else 0)
            return out

        traced.__wrapped__ = fn
        return traced


def _rows_arg(i):
    return lambda args, out: len(args[i])


def _result_len(args, out):
    return len(out)


def _csv_rows(args, out):
    return out[0].n


# (module, attribute, span name, size) for functions looked up at call time
# through a module attribute. cli and scm import these by name, so the wrap
# goes where they look them up, not where they are defined.
FUNCTION_TARGETS = (
    ("xfvar.cli", "read_csv", "fit.read_csv", _csv_rows),
    ("xfvar.cli", "fit_model", "fit.fit_model", None),
    ("xfvar.cli", "read_model", "scm.read_model", None),
    ("xfvar.cli", "write_model", "scm.write_model", None),
    ("xfvar.cli", "estimate_measure", "sensitivity.estimate_measure", None),
    ("xfvar.cli", "estimate_counterfactual_measure", "scm.estimate_counterfactual_measure", None),
    ("xfvar.cli", "counterfactual_total", "scm.counterfactual_total", None),
    ("xfvar.cli", "hoeffding_decompose", "anova_oracle.hoeffding_decompose", None),
    ("xfvar.cli", "exact_pickfreeze", "anova_oracle.exact_pickfreeze", None),
    ("xfvar.cli", "exact_contrast_var", "anova_oracle.exact_contrast_var", None),
    ("xfvar.cli", "dumps_report", "report.dumps_report", _result_len),
    ("xfvar.cli", "venn_svg", "venn.venn_svg", None),
    ("xfvar.scm", "pickfreeze_totals", "mc.pickfreeze_totals", None),
    ("xfvar.scm", "upper_estimate", "mc.upper_estimate", None),
    ("xfvar.scm", "measure_from_totals", "algebra.measure_from_totals", None),
    ("xfvar.sensitivity", "pickfreeze_totals", "mc.pickfreeze_totals", None),
    ("xfvar.sensitivity", "measure_from_totals", "algebra.measure_from_totals", None),
    ("xfvar.mc", "per_batch_sums", "mc.per_batch_sums", None),
    ("xfvar.mc", "hybrid", "mc.hybrid", None),
    ("xfvar.rng", "uniform_block", "rng.uniform_block", None),
)

# (module, class, method, span name, size) for methods.
METHOD_TARGETS = (
    ("xfvar.sensitivity", "IndependentSampler", "transform", "sensitivity.transform", _rows_arg(1)),
    ("xfvar.scm", "ScmModel", "outcome_values", "scm.outcome_values", _rows_arg(1)),
    ("xfvar.formula", "Formula", "evaluate", "formula.evaluate", None),
)


def _mechanism_classes():
    scm = importlib.import_module("xfvar.scm")
    return [
        cls for cls in vars(scm).values()
        if isinstance(cls, type) and issubclass(cls, scm.Mechanism) and cls is not scm.Mechanism
    ]


def mechanism_span_names() -> list:
    """Span names of the mechanism `sample` wrappers: scm.<kind>."""
    return ["scm." + cls.kind for cls in _mechanism_classes()]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span wrappers on every target; restore them on exit."""
    saved = []
    try:
        for mod_name, attr, span, size in FUNCTION_TARGETS:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), span, size))
        for mod_name, cls_name, meth, span, size in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            saved.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], span, size))
        for cls in _mechanism_classes():
            saved.append((cls, "sample", cls.__dict__["sample"]))
            cls.sample = tracer.wrap(cls.__dict__["sample"], "scm." + cls.kind, _rows_arg(1))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return [
        (sp[END] - sp[START]) - _covered(children[i], sp[START], sp[END])
        for i, sp in enumerate(spans)
    ]


@dataclass
class LayerStats:
    calls: int = 0
    size: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def layer_stats(spans, within=None) -> dict:
    """name -> LayerStats over all spans, or only those under span `within`."""
    selves = self_times(spans)
    keep = None
    if within is not None:
        keep = set()
        for i, sp in enumerate(spans):
            p = sp[PARENT]
            if i == within or (p >= 0 and p in keep):
                keep.add(i)  # parents precede their children in the list
    out = {}
    for i, sp in enumerate(spans):
        if keep is not None and i not in keep:
            continue
        st = out.setdefault(sp[NAME], LayerStats())
        st.calls += 1
        st.size += sp[SIZE]
        st.self_s += selves[i]
        st.total_s += sp[END] - sp[START]
    return out
