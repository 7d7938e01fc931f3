"""The benchmark's cli-catalog workload, run as ``bench/run.py`` runs its
warm-up pass: every payload must pass the workload's own checks, which
read ``oracles`` and the catalog's JSON, not finhaar."""

from pathlib import Path

import pytest
import workloads

import finhaar

ROOT = Path(__file__).resolve().parents[1]


# between them the four seeds draw each of the workload's pair groups
@pytest.mark.parametrize("seed, pair_group", [(1, "S4"), (2, "S3"), (5, "D8"), (9, "Q8")])
def test_cli_catalog_payloads_pass_the_benchmark_checks(seed, pair_group):
    wl = workloads.WORKLOADS["cli-catalog"]
    state = dict(wl.prepare(seed, ROOT), **wl.setup(finhaar, seed, ROOT))
    assert next(a for a in state["argvs"] if a[0] == "commute-cert")[-1] == pair_group
    outputs = {}
    for name, step in wl.steps(state):
        outputs[name] = step(outputs)
    assert wl.check(state, outputs) == []
