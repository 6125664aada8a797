"""Command-line front end.

Five subcommands: gsa (independent-input sensitivity), counterfactual
(causal-model explainability), fit (mechanisms from CSV data), oracle
(exact enumeration for small discrete models), venn (figure from a
report). Every failure exits nonzero and prints a single line with an
"error[EXX]:" prefix whose number is the exit code.

Exit codes: 0 ok, 1 internal, 2 usage/file/parse/model value, 3 cycle,
4 zero variance, 5 fit failure, 6 not oracle-reducible (a node that is
neither a discrete root nor deterministic) or too large to decompose,
7 venn variable count.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .algebra import clip_negative_atoms
from .anova_oracle import (
    ENUMERATION_BUDGET,
    exact_measure,
    hoeffding_decompose,
    indices_from_decomposition,
)

# Not called here: perfbench/tracing.py wraps these two at xfvar.cli through
# getattr, and `--trace 1` fails on every workload without them.
from .anova_oracle import exact_contrast_var, exact_pickfreeze  # noqa: F401
from .errors import (
    CycleError,
    DomainError,
    FitError,
    ModelError,
    NotReducibleError,
    ParseError,
    XfvarError,
    ZeroVarianceError,
)
from .fit import FitConfig, fit_model, read_csv, read_dag
from .formula import FormulaEvalError
from .mc import EstimatorConfig
from .report import (
    RunReport,
    dumps_report,
    format_table,
    read_report,
    subset_table,
)
from .scm import counterfactual_total, estimate_counterfactual_measure, read_model, write_model
from .sensitivity import estimate_measure, named_function
from .venn import venn_ascii, venn_svg


def _one_line(msg) -> str:
    return " ".join(str(msg).split())


def _fail(code: int, msg) -> int:
    print(f"error[E{code:02d}]: {_one_line(msg)}", file=sys.stderr)
    return code


def _seed(text) -> int:
    """--seed: an integer in [0, 2**64), the key width of the rng streams."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**64), got {text}")
    return v


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(samples=args.samples, seed=args.seed)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gsa(args) -> int:
    cfg = _estimator_config(args)
    config = {"command": "gsa", "samples": args.samples, "seed": args.seed}
    if args.func:
        f, sampler, names = named_function(args.func)
        measure = estimate_measure(f, sampler, cfg, names)
        config["function"] = args.func
    else:
        model = read_model(args.model)
        for n, mech in zip(model.dag.names, model.mechanisms):
            if n != model.outcome and not mech.is_root:
                raise DomainError(
                    f"gsa needs independent inputs, but node {n!r} has a {mech.kind} "
                    "mechanism, not a root; use the counterfactual command for causal models"
                )
        measure = estimate_counterfactual_measure(model, cfg, include_outcome=False)
        config["model"] = args.model
    rep = RunReport(measure, config=config)
    text = format_table(rep) if args.format == "table" else dumps_report(rep)
    _emit(text, args.out)
    return 0


def cmd_counterfactual(args) -> int:
    model = read_model(args.model)
    cfg = _estimator_config(args)
    if args.subset:
        nodes = [s.strip() for s in args.subset.split(",") if s.strip()]
        if not nodes:
            raise DomainError("--subset needs at least one node name")
        est = counterfactual_total(model, nodes, cfg)
        line = f"xi({' v '.join(nodes)}) = {est.value:.6f} +- {est.stderr:.6f}\n"
        _emit(line, args.out)
        return 0
    measure = estimate_counterfactual_measure(model, cfg, include_outcome=True)
    warnings = []
    if args.clip_atoms:
        measure = clip_negative_atoms(measure)
        warnings.append("negative atoms clipped to 0 and masses renormalized")
    config = {
        "command": "counterfactual",
        "model": args.model,
        "samples": args.samples,
        "seed": args.seed,
        "clip_atoms": bool(args.clip_atoms),
    }
    rep = RunReport(measure, config=config, warnings=tuple(warnings), outcome=model.outcome)
    _emit(dumps_report(rep), args.out)
    return 0


def cmd_fit(args) -> int:
    dag, outcome, categorical = read_dag(args.dag)
    data, warnings = read_csv(args.data, categorical=categorical, used=dag.names)
    cfg_kwargs = {"method": args.method, "min_cell": args.min_cell, "seed": args.seed}
    if args.levels:
        try:
            cfg_kwargs["levels"] = tuple(float(x) for x in args.levels.split(","))
        except ValueError:
            raise DomainError(f"--levels must be comma-separated numbers, got {args.levels!r}") from None
    cfg = FitConfig(**cfg_kwargs)
    model = fit_model(data, dag, cfg, outcome)
    write_model(model, args.out)
    for w in warnings:
        print("warning: " + w)
    for n, ps, mech in zip(dag.names, dag.parents, model.mechanisms):
        if not ps:
            print(f"node {n}: {mech.kind}")
        else:
            cells = getattr(mech, "cells", None)
            if cells is None:
                cells = mech.mean.cells
            print(f"node {n}: {mech.kind} over ({', '.join(ps)}), {len(cells)} cells")
    print(f"fitted {len(dag.names)} nodes from {data.n} rows; wrote {args.out}")
    return 0


def cmd_oracle(args) -> int:
    model = read_model(args.model)
    try:
        domain, f, names = model.oracle_domain()
    except DomainError as e:  # over-budget enumeration
        raise NotReducibleError(str(e)) from None
    # the Moebius inversion in hoeffding_decompose touches prod_j (1 + 2 d_j) elements
    work = math.prod(1 + 2 * d for d in domain.shape())
    if work > ENUMERATION_BUDGET:
        raise NotReducibleError(
            f"decomposition work {work} exceeds budget {ENUMERATION_BUDGET}"
        )
    dec = hoeffding_decompose(f, domain)
    idx = indices_from_decomposition(dec)
    rep = RunReport(
        exact_measure(dec, names),
        config={"command": "oracle", "model": args.model},
        outcome=model.outcome,
        extra_tables={"lower": subset_table(names, idx.lower_normalized, 1)},
    )
    _emit(dumps_report(rep), args.out)
    return 0


def cmd_venn(args) -> int:
    rep = read_report(args.report)
    try:
        if args.ascii:
            _emit(venn_ascii(rep.measure, rep.outcome), args.out)
        else:
            _emit(venn_svg(rep.measure, rep.outcome), args.out)
    except DomainError as e:
        return _fail(7, e)
    return 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error[E02]: {_one_line(message)}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="xfvar", description="Counterfactual explainability of model outputs")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_mc_flags(sp):
        sp.add_argument("--samples", type=int, default=200_000, help="number of sample pairs")
        sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("gsa", help="sensitivity measure for independent inputs")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--func", help="built-in test function name")
    g.add_argument("--model", help="model file with root inputs")
    add_mc_flags(sp)
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.set_defaults(fn=cmd_gsa)

    sp = sub.add_parser("counterfactual", help="explanation measure for a causal model")
    sp.add_argument("--model", required=True, help="model file")
    add_mc_flags(sp)
    sp.add_argument("--subset", help='comma-separated node names: report one total, e.g. "W1,W2"')
    sp.add_argument("--clip-atoms", action="store_true", help="clip negative atoms and renormalize")
    sp.set_defaults(fn=cmd_counterfactual)

    sp = sub.add_parser("fit", help="fit mechanisms from CSV data")
    sp.add_argument("--data", required=True, help="CSV file with a header row")
    sp.add_argument("--dag", required=True, help="DAG file (nodes, parents, outcome)")
    sp.add_argument(
        "--method",
        choices=("additive_empirical", "hetero_gaussian", "quantile_grid"),
        default="quantile_grid",
    )
    sp.add_argument("--levels", help="comma-separated quantile levels in (0,1)")
    sp.add_argument("--min-cell", type=int, default=20)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="output model file")
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("oracle", help="exact measure for small discrete models")
    sp.add_argument("--model", required=True, help="model file (discrete roots, others deterministic)")
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("venn", help="render a report as a Venn diagram")
    sp.add_argument("--report", required=True, help="report file from gsa/counterfactual/oracle")
    out = sp.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", help="output SVG file")
    out.add_argument("--ascii", action="store_true", help="print a region table instead")
    sp.set_defaults(fn=cmd_venn)
    return p


_EXIT_MAP = (
    (CycleError, 3),
    (ZeroVarianceError, 4),
    (FitError, 5),
    (NotReducibleError, 6),
    (ParseError, 2),
    (FormulaEvalError, 2),
    (ModelError, 2),
    (DomainError, 2),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        return _fail(2, e)
    except XfvarError as e:
        for etype, code in _EXIT_MAP:
            if isinstance(e, etype):
                return _fail(code, e)
        return _fail(1, e)
    except Exception as e:  # pragma: no cover - defensive
        return _fail(1, f"{type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())
