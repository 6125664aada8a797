"""Tests of the benchmark's own logic: span analysis, checks and repeatability.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json

import pytest

import run

run.use_checkout()

import inputs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from xfvar.cli import main as cli_main  # noqa: E402


def test_self_time_is_duration_minus_time_covered_by_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a, as a span on another thread would
        ("a.child", 2.0, 3.0, 1, 0),
        ("late", 9.0, 12.0, 0, 0),  # ends after its parent: only [9, 10] is covered
        ("leaf", 7.0, 8.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [10.0 - (5.0 + 1.0 + 1.0), 2.0, 3.0, 1.0, 3.0, 1.0]
    under_a = tracing.layer_stats(spans, within=1)
    assert sorted(under_a) == ["a", "a.child"]
    assert under_a["a"].self_s == 2.0 and under_a["a"].total_s == 3.0


def test_tracer_records_parents_sizes_and_failed_calls():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap(lambda x: [0] * x, "inner", size=lambda args, out: len(out))
    outer = tr.wrap(lambda: len(inner(3)) + len(inner(4)), "outer")

    def fail():
        raise ValueError("boom")

    assert outer() == 7
    with pytest.raises(ValueError):
        tr.wrap(fail, "fail")()
    assert tr.spans == [
        ("outer", 0, 5, -1, 0),
        ("inner", 1, 2, 0, 3),
        ("inner", 3, 4, 0, 4),
        ("fail", 6, 7, -1, 0),
    ]


def test_patched_restores_every_original():
    import xfvar.mc
    import xfvar.scm

    before = (xfvar.mc.hybrid, xfvar.scm.RootGaussian.sample, xfvar.scm.ScmModel.outcome_values)
    with tracing.patched(tracing.Tracer()):
        assert xfvar.mc.hybrid is not before[0]
        assert xfvar.scm.RootGaussian.sample is not before[1]
    assert (xfvar.mc.hybrid, xfvar.scm.RootGaussian.sample, xfvar.scm.ScmModel.outcome_values) == before


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        out = {}
        for w in workloads.WORKLOADS:
            for f, path in inputs.write_inputs(w, seed, str(d)).items():
                out[f] = workloads.sha256_file(path)
        return out

    a, b, c = files(7, "a"), files(7, "b"), files(8, "c")
    assert a == b
    assert all(a[f] != c[f] for f in a if f != "income_dag.json")


def test_check_failures_are_reported_not_raised(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.txt").write_text("x\n")

    def bad(res):
        raise workloads.CheckError("wrong value")

    res = workloads.OpResult("op", 0.1, 0, "", "")
    assert run.check_op(workloads.Op("op", (), ("out.txt",), bad), res, None) == "CheckError: wrong value"
    ok = workloads.Op("op", (), ("out.txt",), lambda r: None)
    assert run.check_op(ok, res, None) == ""
    assert "differs from the digest" in run.check_op(ok, res, {"out.txt": "0" * 64})
    assert run.check_op(ok, workloads.OpResult("op", 0.1, 2, "", "error[E02]: no"), None).startswith(
        "exit code 2"
    )


def _shrunk(op, factor=10):
    """The op with its sample count cut, so a traced pass takes seconds."""
    argv = list(op.argv)
    if "--samples" in argv:
        i = argv.index("--samples") + 1
        argv[i] = str(int(argv[i]) // factor)
    return dataclasses.replace(op, argv=tuple(argv))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts_and_digests(workload, tmp_path, monkeypatch):
    inputs.write_inputs(workload, 3, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    ops = [_shrunk(op) for op in workloads.ops_for(workload, 3)]
    seen = []
    for _ in range(2):
        p = run.run_pass(ops, cli_main, None, tracing.Tracer())
        assert [r.error for r in p.results] == [""] * len(ops)
        metrics = layers.span_metrics(tracing.layer_stats(p.spans))
        counts = {k: v for k, v in metrics.items() if layers.PER_LAYER_UNITS[k] in ("count", "bytes")}
        seen.append((counts, [r.digests for r in p.results]))
    assert seen[0] == seen[1]
    assert any(v > 0 for v in seen[0][0].values())


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
