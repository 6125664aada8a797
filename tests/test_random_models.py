"""The compiled plan against the node loop, on random models.

scm.HybridOutcomes compiles a block's mask list into a plan that
computes each unit once per key of its noise ancestry; the reference is
ScmModel.outcome_values of each noise hybrid, the node loop. On models
drawn by random_models.random_model, with random mask lists, both must
give the same outcome bytes, and where a node check fails, the same
error class and message at the same first failing hybrid. The full
measure must also be byte-equal at one and two worker processes.
"""

import os
import re
from collections import Counter

import numpy as np
import pytest

from random_models import CHILD_KINDS, ROOT_KINDS, random_masks, random_model
from xfvar import mc, rng, scm
from xfvar.algebra import members
from xfvar.errors import XfvarError
from xfvar.mc import EstimatorConfig, hybrid
from xfvar.scm import HybridOutcomes, estimate_counterfactual_measure, model_from_json

SEED = 20261019
MODELS = 200


def _run(outcomes):
    """(the bytes of each outcome, then (error class, message) or None)
    of an iterator of outcomes that may stop at an error."""
    got = []
    try:
        for y in outcomes:
            got.append(np.asarray(y, dtype=float).tobytes())
    except XfvarError as e:
        return got, (type(e).__name__, str(e))
    return got, None


def _noise(rs, rows, n):
    """Uniform noise, now and then with the edges 0, 0.5 and 1 put in."""
    e = rs.random((rows, n))
    if rs.random() < 0.2:
        e[rs.random((rows, n)) < 0.1] = rs.choice([0.0, 0.5, 1.0])
    return e


def _noise_that(rs, model, rows, runs):
    """Noise on which the node loop computes the outcome (runs) or stops
    at a node check (not runs), when one of five draws gives it."""
    for _ in range(5):
        e = _noise(rs, rows, model.n_nodes)
        try:
            model.outcome_values(e)
        except XfvarError:
            if not runs:
                return e
        else:
            if runs:
                return e
    return e


def _exprs(obj):
    """The formula texts of a model-file object."""
    for nd in obj["nodes"]:
        mech = nd["mechanism"]
        for fn in (mech, mech.get("mean"), mech.get("std")):
            if isinstance(fn, dict) and "expr" in fn:
                yield fn["expr"]


def test_plan_matches_the_node_loop_on_random_models(monkeypatch):
    rs = np.random.default_rng(SEED)
    kinds, exprs, failures = Counter(), [], Counter()
    live_values = scm.LIVE_VALUES
    for case in range(MODELS):
        obj = random_model(rs)
        model = model_from_json(obj)
        kinds.update(nd["mechanism"]["kind"] for nd in obj["nodes"])
        exprs.extend(_exprs(obj))
        # every fourth model at one live value, where most units run again
        # for each hybrid that reads them
        monkeypatch.setattr(scm, "LIVE_VALUES", 1 if case % 4 == 3 else live_values)
        n = model.n_nodes
        outcomes = HybridOutcomes(model)
        masks = random_masks(rs, n)
        # the second block reuses the first one's plan; the third compiles
        # another, which starts at E itself, drawn so that it runs, where
        # E' is drawn so that it fails
        for block, masks in enumerate((masks, masks, [0] + random_masks(rs, n))):
            rows = 1 if rs.random() < 0.3 else int(rs.integers(2, 40))
            e, ep = _noise(rs, rows, n), _noise(rs, rows, n)
            if block == 2:
                e, ep = _noise_that(rs, model, rows, True), _noise_that(rs, model, rows, False)
            got = _run(outcomes.open_block(e, ep, masks))
            want = _run(model.outcome_values(hybrid(e, ep, members(m))) for m in masks)
            assert got == want, (case, obj, masks)
            if want[1] is not None:
                failures["first" if not want[0] else "later"] += 1
    # the draws reach every mechanism kind, every op and number form the
    # formula lexer takes, and both ends of the node checks
    assert set(kinds) == set(ROOT_KINDS + CHILD_KINDS), kinds
    text = " ".join(exprs)
    for token in (r"\+", "-", r"\*", "/", r"\^", ",", r"\(", r"\)", "exp", "log", "abs",
                  "sigmoid", "sqrt", "min", "max", "1e-1", "E[+]", r"(?<![0-9])\.25",
                  r"3\.(?![0-9])"):
        assert re.search(token, text), token
    # some blocks stop at a node check, at the first hybrid and later
    assert failures["first"] >= 20 and failures["later"] >= 5, failures
    assert sum(failures.values()) <= 0.2 * 3 * MODELS, failures


@pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="forks workers (Linux)"
)
def test_full_measure_is_byte_equal_at_one_and_two_workers(monkeypatch):
    # three blocks: block 0 here, and at two workers one child runs block 2
    rs = np.random.default_rng(SEED + 1)
    cfg = EstimatorConfig(samples=2 * rng.BLOCK_LEN + 300, seed=int(rs.integers(100)))
    ran = 0
    for case in range(12):
        model = model_from_json(random_model(rs, max_nodes=4))
        include_outcome = bool(case % 2)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_max_workers", lambda: workers)
            try:
                m = estimate_counterfactual_measure(model, cfg, include_outcome)
                results.append([x.hex() for x in np.concatenate([m.atom_mass, m.atom_stderr])])
            except XfvarError as e:
                results.append((type(e).__name__, str(e)))
        assert results[0] == results[1], case
        ran += isinstance(results[0], list)
    assert ran >= 8, ran
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
