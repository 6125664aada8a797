"""Pin the SHA-256 of every output at the default seed into digests.json.

The benchmark fails an op whose default-seed output bytes differ from
these digests, so re-pin only for a change that is meant to alter output
bytes, and say so in that change. Run from the root of a checkout:

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.pin_threads()
    run.use_checkout()
    import inputs
    import workloads
    from xfvar.cli import main as cli_main

    digests = {}
    for workload in workloads.WORKLOADS:
        work = run.OUT_DIR / f"work-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        inputs.write_inputs(workload, workloads.DEFAULT_SEED, str(work))
        ops = workloads.ops_for(workload, workloads.DEFAULT_SEED)
        os.chdir(work)
        try:
            p = run.run_pass(ops, cli_main, pinned=None)
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(work, ignore_errors=True)
        for res in p.results:
            if res.error:
                print(f"{workload} op {res.name} failed: {res.error}", file=sys.stderr)
                return 1
            digests.update(res.digests)
    text = json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True)
    run.DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
