"""Per-layer metrics derived from the spans of one traced pass.

Each `.s` metric is the layer's self time summed over the pass: span
duration minus the time its child spans cover. Counts (`.calls`, `.rows`,
`scm.node_*`, `report.bytes`) do not depend on the machine and repeat
exactly from run to run.
"""

from __future__ import annotations

from tracing import LayerStats, mechanism_span_names

_EMPTY = LayerStats()

# mechanism kinds the workloads sample, each reported by its self time
MECHANISMS = (
    "root_gaussian", "root_uniform", "root_categorical",
    "hetero_gaussian", "quantile_table", "deterministic",
)


def _calls(name):
    return lambda st: st.get(name, _EMPTY).calls


def _size(name):
    return lambda st: st.get(name, _EMPTY).size


def _self(name):
    return lambda st: st.get(name, _EMPTY).self_s


def _all_mechanisms(field):
    return lambda st: sum(getattr(st.get(n, _EMPTY), field) for n in mechanism_span_names())


# metric name -> (unit, value from {span name: LayerStats})
SPAN_METRICS = {
    "sensitivity.transform.calls": ("count", _calls("sensitivity.transform")),
    "sensitivity.transform.rows": ("count", _size("sensitivity.transform")),
    "sensitivity.transform.s": ("s", _self("sensitivity.transform")),
    **{f"scm.{k}.s": ("s", _self(f"scm.{k}")) for k in MECHANISMS},
    "scm.node_evals": ("count", _all_mechanisms("calls")),
    "scm.node_rows": ("count", _all_mechanisms("size")),
    "scm.outcome_values.calls": ("count", _calls("scm.outcome_values")),
    "scm.outcome_values.rows": ("count", _size("scm.outcome_values")),
    "scm.outcome_values.s": ("s", _self("scm.outcome_values")),
    "formula.evaluate.calls": ("count", _calls("formula.evaluate")),
    "formula.evaluate.s": ("s", _self("formula.evaluate")),
    "mc.hybrid.calls": ("count", _calls("mc.hybrid")),
    "mc.hybrid.s": ("s", _self("mc.hybrid")),
    "mc.per_batch_sums.self_s": ("s", _self("mc.per_batch_sums")),
    "mc.pickfreeze_totals.s": ("s", _self("mc.pickfreeze_totals")),
    "mc.upper_estimate.s": ("s", _self("mc.upper_estimate")),
    "rng.uniform_block.calls": ("count", _calls("rng.uniform_block")),
    "rng.uniform_block.s": ("s", _self("rng.uniform_block")),
    "fit.read_csv.rows": ("count", _size("fit.read_csv")),
    "fit.read_csv.s": ("s", _self("fit.read_csv")),
    "fit.fit_model.s": ("s", _self("fit.fit_model")),
    "scm.write_model.s": ("s", _self("scm.write_model")),
    "scm.read_model.s": ("s", _self("scm.read_model")),
    "anova_oracle.hoeffding_decompose.s": ("s", _self("anova_oracle.hoeffding_decompose")),
    "anova_oracle.exact_pickfreeze.calls": ("count", _calls("anova_oracle.exact_pickfreeze")),
    "anova_oracle.exact_pickfreeze.s": ("s", _self("anova_oracle.exact_pickfreeze")),
    "anova_oracle.exact_contrast_var.calls": ("count", _calls("anova_oracle.exact_contrast_var")),
    "anova_oracle.exact_contrast_var.s": ("s", _self("anova_oracle.exact_contrast_var")),
    "algebra.measure_from_totals.s": ("s", _self("algebra.measure_from_totals")),
    "report.dumps_report.s": ("s", _self("report.dumps_report")),
    "report.bytes": ("bytes", _size("report.dumps_report")),
    "venn.venn_svg.s": ("s", _self("venn.venn_svg")),
}

# measured by the traced run itself rather than read from spans
RUN_METRICS = {
    "mc.speedup_t2": "ratio",  # op time at XFVAR_THREADS=1 over time at 2
    "trace.wall_s": "s",  # traced pass, wall time
    "trace.overhead_s": "s",  # traced wall_s minus untraced wall_s
}

WHOLE_UNITS = ("count", "bytes")

PER_LAYER_UNITS = {**{k: u for k, (u, _) in SPAN_METRICS.items()}, **RUN_METRICS}


def span_metrics(stats) -> dict:
    """metric name -> value for one pass's {span name: LayerStats}."""
    return {k: fn(stats) for k, (_, fn) in SPAN_METRICS.items()}


def layer_split(shares) -> list:
    """Whether each workload loads the layer it was chosen for, as text lines.

    shares maps op span names to {"self_share": ..., "total_share": ...},
    each a {layer: share of the op's wall time} map.
    """
    out = []
    if "op.gsa_k8" in shares:
        self_share = {n: v for n, v in shares["op.gsa_k8"]["self_share"].items()
                      if not n.startswith("op.")}
        top = max(self_share, key=self_share.get)
        out.append(f"largest layer in gsa_k8 is {top} ({100 * self_share[top]:.1f}%)"
                   f" [{'ok' if top == 'scm.root_gaussian' else 'NOT root_gaussian'}]")
    if "op.cf_income" in shares:
        v = shares["op.cf_income"]["total_share"].get("scm.quantile_table", 0.0)
        out.append(f"scm.quantile_table is {100 * v:.1f}% of cf_income [{'ok' if v >= 0.8 else 'below 80%'}]")
    if "op.oracle_k7" in shares:
        total = shares["op.oracle_k7"]["total_share"]
        v = total.get("anova_oracle.exact_pickfreeze", 0.0) + total.get("anova_oracle.exact_contrast_var", 0.0)
        out.append(f"exact_pickfreeze + exact_contrast_var are {100 * v:.1f}% of oracle_k7"
                   f" [{'ok' if v >= 0.8 else 'below 80%'}]")
    return out
