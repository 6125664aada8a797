"""The benchmark tracer (perfbench/tracing.py) wraps program functions by
name. A refactor that drops or moves one of those names must fail here,
naming the target, not only in a traced pass: the benchmark run with
`--trace 1` and the traced runs of perfbench/test_perfbench.py."""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


def test_function_targets_exist(tracing):
    for mod_name, attr, span, _ in tracing.FUNCTION_TARGETS:
        assert hasattr(importlib.import_module(mod_name), attr), (mod_name, attr, span)


def test_method_targets_are_defined_on_their_class(tracing):
    for mod_name, cls_name, meth, span, _ in tracing.METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert meth in cls.__dict__, (cls_name, meth, span)


def test_every_mechanism_defines_sample(tracing):
    classes = tracing._mechanism_classes()
    assert classes
    for cls in classes:
        assert "sample" in cls.__dict__, cls.__name__


def test_node_spans_count_memoized_mechanism_calls(tracing, tmp_path):
    # scm.node_evals sums the scm.<kind> spans. The memoized evaluator
    # reaches a root's sample through its class attribute, so each of its
    # evaluations is one span; other nodes run as stages and formula ops,
    # which no span wraps, and Formula.evaluate is not called
    chain = {
        "outcome": "Y",
        "nodes": [
            {"name": "A", "parents": [], "mechanism": {"kind": "root_gaussian"}},
            {"name": "B", "parents": ["A"], "mechanism": {
                "kind": "hetero_gaussian", "mean": {"expr": "A"}, "std": {"expr": "1 + abs(A)"}}},
            {"name": "Y", "parents": ["B"], "mechanism": {"kind": "deterministic", "expr": "B^2"}},
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    from xfvar.cli import main

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        argv = ["counterfactual", "--model", str(path), "--samples", "1000"]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    kinds = set(tracing.mechanism_span_names()) | {"formula.evaluate"}
    evals = Counter(sp[tracing.NAME] for sp in tracer.spans if sp[tracing.NAME] in kinds)
    # one block with every node queried: 2**|An*(A)| = 2 calls for A
    assert evals == {"scm.root_gaussian": 2}


def test_each_estimate_is_one_kernel_call(tracing):
    # mc.per_batch_sums.self_s measures the kernel only while every
    # estimator reaches it once, through its module attribute
    from xfvar.mc import EstimatorConfig
    from xfvar.sensitivity import (
        estimate_lower,
        estimate_measure,
        estimate_superset,
        estimate_upper,
        named_function,
    )

    f, sampler, names = named_function("quadratic3")
    cfg = EstimatorConfig(samples=1000)
    runs = {
        "pickfreeze_totals": lambda: estimate_measure(f, sampler, cfg, names),
        "upper_estimate": lambda: estimate_upper(f, sampler, (0, 2), cfg),
        "lower_estimate": lambda: estimate_lower(f, sampler, (1,), cfg),
        "superset_estimate": lambda: estimate_superset(f, sampler, (0, 1), cfg),
    }
    for estimator, run in runs.items():
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            run()
        kernel = [i for i, sp in enumerate(tracer.spans) if sp[tracing.NAME] == "mc.per_batch_sums"]
        assert len(kernel) == 1, estimator
        hybrids = [sp for sp in tracer.spans if sp[tracing.NAME] == "mc.hybrid"]
        assert hybrids and all(sp[tracing.PARENT] == kernel[0] for sp in hybrids), estimator
