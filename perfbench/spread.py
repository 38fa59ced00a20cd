"""Run-to-run spread of the end-to-end metrics, and the design record.

    python3 perfbench/spread.py

Runs ``run.py`` once per seed 1..10 for every workload of ``BENCHMARK.json``,
one run at a time, and prints each end-to-end metric's median and its
spread: the distance between the first and third quartiles as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them.  The
figures go into ``design.json`` together with the rest of the design record:
each workload's reason and jobs, the layer mapping, the Python version and
the number of CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Seconds as measured, before division by the reference child's time;
# reported for comparison, not as benchmark metrics.
RAW_SECONDS = ("wall_s", "cpu_s", "max_job_s", "help_s")
RUNS = 10


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def measure(workload: str, seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    failed = 0
    run_s = []
    for seed in range(1, RUNS + 1):
        start = perf_counter()
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        run_s.append(round(perf_counter() - start, 1))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        notes = json.loads(next(l[2:] for l in lines if l.startswith("# {")))
        for name in RAW_SECONDS:
            values.setdefault(f"raw {name}", []).append(notes[name])
    return {
        "failed": failed,
        "run_s": run_s,
        "metrics": {
            name: {"median": statistics.median(vs), "spread": spread(vs), "values": vs}
            for name, vs in values.items()
        },
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = [w["name"] for w in config["workloads"]]
    measured = {}
    for name in names:
        measured[name] = measure(name, config["run_seconds"])
        print(f"{name}: failed={measured[name]['failed']} run_s={measured[name]['run_s']}")
        for metric, stats in measured[name]["metrics"].items():
            bound = bounds.get(metric)
            share = f"({stats['spread'] / bound:.2f} of bound {bound})" if bound else ""
            print(f"  {metric:16s} median {stats['median']:10.4f}  spread "
                  f"{stats['spread']:.4f}  {share}  "
                  + " ".join(f"{v:.4g}" for v in stats["values"]))
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": config["run_seconds"],
        "runs_per_workload": RUNS,
        "workloads": {},
        "layer_mapping": [
            {"metrics": list(metrics), "moves": list(moves), "on": list(on),
             "unchanged_on": list(unchanged)}
            for metrics, moves, on, unchanged in tracing.MAPPING
        ],
    }
    for name in names:
        workload = workloads.WORKLOADS[name](1)
        record["workloads"][name] = {
            "why": workload.why,
            "jobs": [job.name for job in workload.jobs],
            "inputs_seed_1": workload.inputs,
            "spread": measured[name],
        }
    (HERE / "design.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
