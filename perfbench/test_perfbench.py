"""Self-test of the benchmark.

    python3 -m pytest -q perfbench

Takes a few minutes: it runs every workload once as child processes and
once traced in-process.  It checks that the traced pass gives the same
output bytes as the untraced one, and that every per-layer metric is
non-zero on the workloads it is mapped to.
"""

import json
from time import perf_counter

import pytest

import run
import tracing
import workloads


def test_benchmark_json_matches_the_code():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in config["workloads"]}
    assert whys == {name: make(1).why for name, make in workloads.WORKLOADS.items()}
    listed = {m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]}
    assert listed == tracing.METRICS
    mapped = {name for metrics, *_ in tracing.MAPPING for name in metrics}
    assert mapped == set(tracing.METRICS) - {"trace.overhead_s"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_pass(name):
    workload = workloads.WORKLOADS[name](1)
    deadline = perf_counter() + 600
    run.OUT.mkdir(exist_ok=True)
    plain, _, _, untraced = run.end_to_end(workload, 0, deadline)
    assert plain.problems == []
    checker, metrics, _, traced = run.traced(workload, 1, 0, deadline)
    assert checker.problems == []
    for job, a, b in zip(workload.jobs, untraced, traced):
        assert a == b, job.name
    for names, _, on, _ in tracing.MAPPING:
        if name in on:
            for metric in names:
                assert metrics[metric][0] > 0, metric
