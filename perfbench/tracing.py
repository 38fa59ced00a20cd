"""Per-layer tracing of the palrich package from outside its source.

A :class:`Tracer` rebinds the public functions of each layer, in every
``palrich`` module that bound them at import, to wrappers that record a
span (name, start, end, parent span, job id) and a few work counts.  Spans
stay in memory until the run ends.  A layer's time is its self time: the
span's duration minus the time of the spans it caused.  ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# Every per-layer metric the traced run reports: name -> (unit, better).
METRICS: dict[str, tuple[str, str]] = {
    "generators.produce.s": ("s", "lower"),
    "generators.produce.letters": ("count", "lower"),
    "generators.exact_sets.s": ("s", "lower"),
    "generators.exact_sets.factors": ("count", "lower"),
    "factors.build_index.s": ("s", "lower"),
    "factors.build_index.inserts": ("count", "lower"),
    "factors.build_index.distinct": ("count", "lower"),
    "factors.build_index.useful_ratio": ("ratio", "higher"),
    "factors.stabilized_prefix.s": ("s", "lower"),
    "factors.stabilized_prefix.letters": ("count", "lower"),
    "factors.stabilized_prefix.doublings": ("count", "lower"),
    "factors.extensions.s": ("s", "lower"),
    "analysis.profile_from_index.s": ("s", "lower"),
    "palindromes.eertree_build.s": ("s", "lower"),
    "palindromes.eertree_build.calls": ("count", "lower"),
    "palindromes.eertree_build.letters": ("count", "lower"),
    "palindromes.eertree_build.nodes": ("count", "lower"),
    "palindromes.is_rich_incremental.s": ("s", "lower"),
    "palindromes.is_rich_by_count.s": ("s", "lower"),
    "palindromes.is_rich_by_returns.s": ("s", "lower"),
    "palindromes.is_rich_by_returns.letters": ("count", "lower"),
    "counting.count_rich.s": ("s", "lower"),
    "counting.count_rich.words": ("count", "higher"),
    "counting.count_rich.pushes": ("count", "lower"),
    "counting.count_rich.yield": ("ratio", "higher"),
    "counting.oracle.s": ("s", "lower"),
    "rauzy.build_rauzy.s": ("s", "lower"),
    "rauzy.build_rauzy.calls": ("count", "lower"),
    "rauzy.vertices": ("count", "lower"),
    "rauzy.edges": ("count", "lower"),
    "rauzy.reduce.s": ("s", "lower"),
    "rauzy.simple_paths": ("count", "lower"),
    "rauzy.super_reduce.s": ("s", "lower"),
    "rauzy.conditions.s": ("s", "lower"),
    "rauzy.dot.s": ("s", "lower"),
    "analysis.theorem1_experiment.self_s": ("s", "lower"),
    "analysis.theorem2_check.self_s": ("s", "lower"),
    "analysis.orders": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# What each group of layer metrics should move: (metrics, end-to-end metrics
# it should move, workloads where it is non-zero and should move, workloads
# where a change to it should leave the end-to-end metrics unchanged).
MAPPING = (
    (("generators.produce.s", "generators.produce.letters"),
     ("wall_ref",), ("prefix-scan",), ("deep-orders",)),
    (("generators.exact_sets.s", "generators.exact_sets.factors"),
     ("wall_ref", "peak_rss_mb"), ("deep-orders",), ("prefix-scan",)),
    (("factors.build_index.s", "factors.build_index.inserts", "factors.build_index.distinct",
      "factors.build_index.useful_ratio"),
     ("wall_ref", "peak_rss_mb"), ("prefix-scan",), ("deep-orders",)),
    (("factors.stabilized_prefix.s", "factors.stabilized_prefix.letters",
      "factors.stabilized_prefix.doublings"),
     ("wall_ref", "max_job_ref"), ("prefix-scan", "triangle"), ()),
    (("factors.extensions.s",), ("wall_ref",), ("deep-orders", "prefix-scan"), ()),
    (("analysis.profile_from_index.s",), ("wall_ref",), ("deep-orders",), ()),
    (("palindromes.eertree_build.s", "palindromes.eertree_build.calls",
      "palindromes.eertree_build.letters", "palindromes.eertree_build.nodes"),
     ("wall_ref",), ("triangle",), ("count",)),
    (("palindromes.is_rich_incremental.s", "palindromes.is_rich_by_count.s"),
     ("wall_ref",), ("triangle",), ()),
    (("palindromes.is_rich_by_returns.s", "palindromes.is_rich_by_returns.letters"),
     ("wall_ref", "max_job_ref"), ("triangle", "prefix-scan"), ("count",)),
    (("counting.count_rich.s", "counting.count_rich.words", "counting.count_rich.pushes",
      "counting.count_rich.yield"),
     ("wall_ref",), ("count",), ("triangle",)),
    (("counting.oracle.s",), ("wall_ref", "max_job_ref"), ("count",), ()),
    (("rauzy.build_rauzy.s", "rauzy.build_rauzy.calls", "rauzy.vertices", "rauzy.edges"),
     ("wall_ref",), ("deep-orders",), ("triangle",)),
    (("rauzy.reduce.s", "rauzy.simple_paths"), ("wall_ref",), ("deep-orders",), ()),
    (("rauzy.super_reduce.s",), ("wall_ref",), ("deep-orders",), ()),
    (("rauzy.conditions.s",), ("wall_ref",), ("deep-orders",), ()),
    (("rauzy.dot.s",), ("wall_ref",), ("deep-orders",), ()),
    (("analysis.theorem1_experiment.self_s", "analysis.orders"),
     ("wall_ref",), ("triangle", "deep-orders"), ()),
    (("analysis.theorem2_check.self_s",), ("wall_ref",), ("prefix-scan",), ()),
    (("cli.main.self_s", "cli.import_s"),
     ("setup_s", "wall_ref"), ("triangle", "deep-orders", "prefix-scan", "count"), ()),
)

# Span name -> the metric that receives its self time.
SELF_TIME_METRIC = {
    "analysis.theorem1_experiment": "analysis.theorem1_experiment.self_s",
    "analysis.theorem2_check": "analysis.theorem2_check.self_s",
    "cli.main": "cli.main.self_s",
}


def _windows(args, kwargs, idx) -> dict:
    w, n_max = args[0], args[1]
    depth = n_max + 1
    inserts = sum(len(w) - n + 1 for n in range(1, depth + 1))
    distinct = sum(idx.complexity(n) for n in range(1, depth + 1))
    return {"factors.build_index.inserts": inserts, "factors.build_index.distinct": distinct}


def _stabilized(args, kwargs, sp) -> dict:
    return {
        "factors.stabilized_prefix.letters": len(sp.word),
        "factors.stabilized_prefix.doublings": len(sp.lengths_tried),
    }


def _eertree(args, kwargs, tree) -> dict:
    return {
        "palindromes.eertree_build.calls": 1,
        "palindromes.eertree_build.letters": len(tree),
        "palindromes.eertree_build.nodes": tree.node_count,
    }


def _returns(args, kwargs, report) -> dict:
    return {"palindromes.is_rich_by_returns.letters": len(args[0])}


def _rauzy(args, kwargs, g) -> dict:
    return {
        "rauzy.build_rauzy.calls": 1,
        "rauzy.vertices": len(g.vertices),
        "rauzy.edges": len(g.edges),
    }


def _reduced(args, kwargs, rg) -> dict:
    return {"rauzy.simple_paths": len(rg.edges)}


def _theorem1(args, kwargs, report) -> dict:
    return {"analysis.orders": len(report.orders)}


def _produced(args, kwargs, word) -> dict:
    return {"generators.produce.letters": len(word)}


def _exact_sets(args, kwargs, sets) -> dict:
    return {"generators.exact_sets.factors": sum(len(s) for s in sets)}


# (module, attribute, span name, counter)
FUNCTIONS = (
    ("palrich.factors", "build_index", "factors.build_index", _windows),
    ("palrich.factors", "stabilized_prefix", "factors.stabilized_prefix", _stabilized),
    ("palrich.analysis", "profile_from_index", "analysis.profile_from_index", None),
    ("palrich.analysis", "theorem1_experiment", "analysis.theorem1_experiment", _theorem1),
    ("palrich.analysis", "theorem2_check", "analysis.theorem2_check", None),
    ("palrich.palindromes", "is_rich_incremental", "palindromes.is_rich_incremental", None),
    ("palrich.palindromes", "is_rich_by_count", "palindromes.is_rich_by_count", None),
    ("palrich.palindromes", "is_rich_by_returns", "palindromes.is_rich_by_returns", _returns),
    ("palrich.counting", "count_rich_naive", "counting.oracle", None),
    ("palrich.counting", "enumerate_balanced", "counting.oracle", None),
    ("palrich.counting", "sturmian_palindrome_enumeration_oracle", "counting.oracle", None),
    ("palrich.rauzy", "build_rauzy", "rauzy.build_rauzy", _rauzy),
    ("palrich.rauzy", "reduce", "rauzy.reduce", _reduced),
    ("palrich.rauzy", "super_reduce", "rauzy.super_reduce", None),
    ("palrich.rauzy", "palindromic_path_condition", "rauzy.conditions", None),
    ("palrich.rauzy", "is_tree", "rauzy.conditions", None),
    ("palrich.rauzy", "path_counting_identity", "rauzy.conditions", None),
    ("palrich.rauzy", "rauzy_dot", "rauzy.dot", None),
    ("palrich.rauzy", "reduced_dot", "rauzy.dot", None),
    ("palrich.rauzy", "super_dot", "rauzy.dot", None),
    ("palrich.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans and counts of one traced process."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.job: str | None = None
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._rich_counts: dict[tuple[int, int], int] = {}
        self._count_rich = None

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.self_time[name] += end - start - frame[1]
                tracer.spans[index] = (name, start, end, parent, tracer.job)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def reset(self) -> None:
        """Start a new traced pass: clear the aggregates, keep the spans."""
        self.self_time.clear()
        self.counts.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last reset."""
        out = {name: 0 for name in METRICS}
        for span, seconds in self.self_time.items():
            out[SELF_TIME_METRIC.get(span, span + ".s")] = seconds
        out.update(self.counts)
        inserts = out["factors.build_index.inserts"]
        out["factors.build_index.useful_ratio"] = (
            out["factors.build_index.distinct"] / inserts if inserts else 0.0
        )
        pushes = out["counting.count_rich.pushes"]
        out["counting.count_rich.yield"] = (
            out["counting.count_rich.words"] / pushes if pushes else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    # -- installation -------------------------------------------------------

    def _rebind(self, module: str, attr: str, replacement) -> None:
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "palrich" and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def _set_class_attr(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from palrich import counting, factors, palindromes

        for module, attr, span, counter in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            self._rebind(module, attr, self.wrap(span, fn, counter))
        self._count_rich = counting.count_rich
        self._rebind("palrich.counting", "count_rich",
                     self.wrap("counting.count_rich", counting.count_rich, self._pushes))
        self._rebind("palrich.generators", "get_family", self._traced_families())
        for attr in ("right_extensions", "left_extensions"):
            method = factors.FactorIndex.__dict__[attr]
            self._set_class_attr(factors.FactorIndex, attr,
                                 self.wrap("factors.extensions", method))
        build = palindromes.Eertree.__dict__["build"].__func__
        self._set_class_attr(palindromes.Eertree, "build", classmethod(
            self.wrap("palindromes.eertree_build", build, _eertree)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_families(self):
        from palrich import generators

        get_family = generators.get_family

        def traced_get_family(name, **params):
            family = get_family(name, **params)
            exact = family.exact_sets
            return dataclasses.replace(
                family,
                produce=self.wrap("generators.produce", family.produce, _produced),
                exact_sets=exact and self.wrap("generators.exact_sets", exact, _exact_sets),
            )

        return traced_get_family

    def _pushes(self, args, kwargs, total) -> dict:
        # count_rich(k, n) pushes the first letter once, then every letter
        # after each rich prefix of length 1..n-1 that starts with it, so it
        # makes 1 + sum_{1<=d<n} R_k(d) pushes (R_k(d)/k prefixes, k letters
        # each).  The rich table asks for R_k(d), d < n, before R_k(n).
        k, n = args[0], args[1]
        self._rich_counts[k, n] = total
        pushes = 0
        if n > 0:
            for d in range(1, n):
                if (k, d) not in self._rich_counts:
                    self._rich_counts[k, d] = self._count_rich(k, d)
                pushes += self._rich_counts[k, d]
            pushes += 1
        return {"counting.count_rich.words": total, "counting.count_rich.pushes": pushes}
