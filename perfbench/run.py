"""Seeded end-to-end and per-layer benchmark of the xfvar command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formula_mc --seed 0 --seconds 35 --trace 0

The benchmark writes the workload's inputs from --seed (untimed), then
runs the workload's ops back to back through `xfvar.cli.main` in this one
process (closed loop, one client, XFVAR_THREADS=1, BLAS pools at one
thread) and repeats the pass until --seconds would be exceeded. Every op's
exit code and output is checked after each pass; at the default seed the
SHA-256 of every output must also match perfbench/digests.json.

--trace 0 reports the end-to-end metrics: op times are best-of-N over the
passes, set-up time is a median.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/layers.py, derived from spans recorded around the
calls into xfvar (perfbench/tracing.py).

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics. Details of
the run (environment, every pass, per-op times, spans) are written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = BENCH_DIR / "digests.json"

# thread pools are pinned to one thread so every run uses at most nproc
# threads and the BLAS layer cannot add its own parallelism
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPS = 5  # at least this many set-up samples per run


class CheckoutError(Exception):
    """The directory holds no xfvar source tree to benchmark."""


def use_checkout() -> None:
    """Put the checkout's src/ first on sys.path and make sure xfvar comes from it."""
    if not (SRC / "xfvar" / "cli.py").is_file():
        raise CheckoutError(f"no xfvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xfvar

    if SRC.resolve() not in Path(xfvar.__file__).resolve().parents:
        raise CheckoutError(f"xfvar was imported from {xfvar.__file__}, not from {SRC}")


def pin_threads() -> None:
    """One thread for every pool: BLAS, OpenMP and XFVAR_THREADS (its default)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["XFVAR_THREADS"] = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def run_environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "XFVAR_THREADS": os.environ.get("XFVAR_THREADS"),
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Ops and passes


@dataclass
class Pass:
    wall: float
    results: list
    spans: list | None = None


@dataclass
class Run:
    metrics: dict
    plain: list  # untraced passes at XFVAR_THREADS=1: the per-op times
    traced: list = field(default_factory=list)
    other: list = field(default_factory=list)  # single-op passes at two threads
    detail: dict = field(default_factory=dict)

    def passes(self):
        return self.plain + self.traced + self.other


def run_op(op, cli_main, tracer=None):
    """Run one op; returns an OpResult with its wall time and captured output."""
    call = cli_main if tracer is None else tracer.wrap(cli_main, "op." + op.name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = call(list(op.argv))
        except SystemExit as e:  # argparse exits on usage errors
            code = e.code if isinstance(e.code, int) else 1
        t1 = time.perf_counter()
    return workloads.OpResult(op.name, t1 - t0, code, out.getvalue(), err.getvalue())


def check_op(op, res, pinned) -> str:
    """Empty string if the op's output is right, else what is wrong."""
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.strip()}"
    try:
        op.check(res)
        res.digests = {f: workloads.sha256_file(f) for f in op.outputs}
    except Exception as e:  # a broken output must count as a failure, not stop the run
        return f"{type(e).__name__}: {e}"
    if pinned is not None:
        for f, d in res.digests.items():
            if pinned.get(f) != d:
                return f"{f}: sha256 {d} differs from the digest pinned for the default seed"
    return ""


def run_pass(ops, cli_main, pinned, tracer=None) -> Pass:
    """All ops back to back, then the checks (outside any timing and tracing)."""
    for op in ops:  # so that an op which writes nothing cannot pass on a stale file
        for f in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(f)
    results = []
    with tracing.patched(tracer) if tracer else contextlib.nullcontext():
        for op in ops:
            results.append(run_op(op, cli_main, tracer))
    for op, res in zip(ops, results):
        res.error = check_op(op, res, pinned)
    return Pass(sum(r.seconds for r in results), results, tracer.spans if tracer else None)


def setup_time() -> float:
    """Seconds for a fresh interpreter to import xfvar.cli.

    This process has already imported xfvar, so bytecode is compiled and
    the files are in the page cache, as they are for a user's second run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-c", "import xfvar.cli"], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    t = time.perf_counter() - t0
    if r.returncode != 0:
        raise CheckoutError(f"importing xfvar.cli failed: {r.stderr.decode(errors='replace')}")
    return t


def op_times(passes, stat=min) -> dict:
    """op name -> stat of its times over the passes (best-of-N by default)."""
    names = [r.name for r in passes[0].results]
    return {n: stat(p.results[i].seconds for p in passes) for i, n in enumerate(names)}


def best_wall(passes) -> float:
    """The workload's time with every op at its best: sum of per-op minima.

    Interference from other tenants only ever adds time, so on a shared
    machine the minimum is the steadiest estimate of an op's cost.
    """
    return sum(op_times(passes).values())


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end_run(ops, cli_main, pinned, seconds):
    deadline = time.perf_counter() + seconds
    passes, setup = [], []
    while True:
        # set-up samples are spread over the run, one per pass, so that a
        # burst of load from other tenants skews few of them
        setup.append(setup_time())
        passes.append(run_pass(ops, cli_main, pinned))
        if time.perf_counter() + passes[-1].wall + setup[-1] > deadline:
            break
    while len(setup) < SETUP_REPS:
        setup.append(setup_time())
    metrics = {
        "wall_s": best_wall(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return Run(metrics, passes, detail={"setup_samples_s": setup})


def traced_run(ops, cli_main, pinned, seconds, speedup_op):
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        plain.append(run_pass(ops, cli_main, pinned))
        traced.append(run_pass(ops, cli_main, pinned, tracing.Tracer()))
        t1 = op_times(plain)[speedup_op.name]
        if time.perf_counter() + plain[-1].wall + traced[-1].wall + t1 > deadline:
            break
    # mc.speedup_t2: the same op, untraced, with two worker threads
    threads = min(2, nproc())
    os.environ["XFVAR_THREADS"] = str(threads)
    try:
        t2 = [run_pass([speedup_op], cli_main, pinned)]
        while len(t2) < 3 and time.perf_counter() + t2[-1].wall <= deadline:
            t2.append(run_pass([speedup_op], cli_main, pinned))
    finally:
        os.environ["XFVAR_THREADS"] = "1"

    per_pass = [layers.span_metrics(tracing.layer_stats(p.spans)) for p in traced]
    # counts repeat exactly from pass to pass; median_low keeps them whole numbers
    metrics = {
        k: (statistics.median_low if unit in layers.WHOLE_UNITS else statistics.median)(
            m[k] for m in per_pass)
        for k, (unit, _) in layers.SPAN_METRICS.items()
    }
    wall_plain, wall_traced = best_wall(plain), best_wall(traced)
    metrics["mc.speedup_t2"] = t1 / min(p.wall for p in t2)
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    detail = {
        "speedup": {"op": speedup_op.name, "threads": threads, "t1_s": t1,
                    "t2_s": [p.wall for p in t2]},
        "shares": op_shares(traced[-1].spans),
        "traced_passes": [[r.seconds for r in p.results] for p in traced],
    }
    return Run(metrics, plain, traced, t2, detail)


def op_shares(spans) -> dict:
    """Per op span: its wall time and each layer's self time as a share of it."""
    out = {}
    for i, sp in enumerate(spans):
        if sp[tracing.PARENT] != -1:
            continue
        wall = sp[tracing.END] - sp[tracing.START]
        stats = tracing.layer_stats(spans, within=i)
        out[sp[tracing.NAME]] = {
            "wall_s": wall,
            "self_share": {n: s.self_s / wall for n, s in sorted(
                stats.items(), key=lambda kv: -kv[1].self_s)},
            "total_share": {n: s.total_s / wall for n, s in stats.items()},
        }
    return out


# ---------------------------------------------------------------------------


def _fmt(v, unit) -> str:
    return f"{v:d} {unit}" if isinstance(v, int) else f"{v:.6g} {unit}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        pin_threads()  # before numpy is first imported
        use_checkout()
    except CheckoutError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    import inputs  # numpy: only after the thread pools are pinned
    from xfvar.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]

    env = run_environment()
    print("env: " + json.dumps(env, sort_keys=True))
    work = OUT_DIR / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs.write_inputs(args.workload, args.seed, str(work))
    ops = workloads.ops_for(args.workload, args.seed)
    os.chdir(work)
    try:
        if args.trace:
            speedup_op = next(o for o in ops if o.name == workloads.SPEEDUP_OP[args.workload])
            run = traced_run(ops, cli_main, pinned, args.seconds, speedup_op)
            units = layers.PER_LAYER_UNITS
        else:
            run = end_to_end_run(ops, cli_main, pinned, args.seconds)
            units = END_TO_END
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in run.passes() for r in p.results]
    failures = [(r.name, r.error) for r in results if r.error]
    for name, err in failures:
        print(f"perfbench: {args.workload} op {name} failed: {err}", file=sys.stderr)
    timed_ops = {o.name for o in ops if o.timed}
    per_op = {n: v for n, v in op_times(run.plain).items() if n in timed_ops}
    per_op_median = op_times(run.plain, statistics.median)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.plain)} untraced passes, {len(run.traced)} traced, "
          f"{len(results)} ops, {len(failures)} failed")
    for name, v in per_op.items():
        print(f"  {name + '_s':<40} {_fmt(v, 's')}  (best of {len(run.plain)}; "
              f"median {per_op_median[name]:.6g} s)")
    metrics = run.metrics
    for name, v in metrics.items():
        print(f"  {name:<40} {_fmt(v, units[name])}")
    print(f"  {'ops':<40} {len(results)} count")
    print(f"  {'ops_failed':<40} {len(failures)} count")
    shares = run.detail.get("shares", {})
    for op_span, share in shares.items():
        top = list(share["self_share"].items())[:4]
        print(f"  {op_span} self time: " + ", ".join(f"{n} {100 * s:.1f}%" for n, s in top))
    for line in layers.layer_split(shares):
        print(f"  layer split: {line}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics,
        "op_best_s": per_op,
        "op_median_s": {n: per_op_median[n] for n in per_op},
        "passes": [[r.seconds for r in p.results] for p in run.plain],
        "failures": failures, **run.detail,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.traced:
        with open(OUT_DIR / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size"],
                       "passes": [p.spans for p in run.traced]}, fh)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
