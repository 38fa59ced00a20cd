"""The benchmark's per-layer tracer still fits the package.

``perfbench/tracing.py`` rebinds palrich functions and methods by name and
reads their arguments and results.  Installing it, running five small jobs
and uninstalling it catches a renamed or reshaped name in seconds, without
running the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import palrich.cli
from palrich import factors, generators

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    return (
        factors.build_index,
        factors.stabilized_prefix,
        generators.get_family,
        factors.FactorIndex.__dict__["right_extensions"],
    )


def test_tracer_installs_runs_and_uninstalls(capsys):
    originals = bindings()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert palrich.cli.main(["analyze", "--word", "abaab", "--n-max", "2"]) == 0
        assert palrich.cli.main(["analyze", "--generator", "tribonacci", "--n-max", "3"]) == 0
        # Tribonacci's factor sets come from its exact construction.
        tribonacci_factors = tracer.metrics()["generators.exact_sets.factors"]
        assert palrich.cli.main(["verify", "--generator", "cassaigne-aab", "--n-max", "8"]) == 0
        assert palrich.cli.main(
            ["graph", "--generator", "fibonacci", "--n", "3", "--tier", "super"]
        ) == 0
        assert palrich.cli.main(["verify", "--word", "abaaba"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert bindings() == originals
    assert tribonacci_factors > 0
    metrics = tracer.metrics()
    for name in (
        "factors.build_index.inserts",
        "generators.produce.letters",
        "factors.extensions.s",
        "analysis.theorem2_check.self_s",
        "rauzy.dot.s",
    ):
        assert metrics[name] > 0, name
    # verify evolves its reduced graphs, so only the graph job builds one;
    # both jobs super-reduce through the traced module attribute.
    assert metrics["analysis.orders"] == 9
    assert metrics["rauzy.build_rauzy.calls"] == 1
    assert metrics["rauzy.super_reduce.s"] > 0
