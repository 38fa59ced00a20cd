"""Benchmark of the ``palrich`` command line, end to end or traced per layer.

    python3 perfbench/run.py --workload triangle --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every job of the workload as a user does: one child
``python -m palrich.cli ...`` per job, with the checkout's ``src`` on
``PYTHONPATH``, one child at a time.  Passes over the job list repeat, at
least two, while the next one still fits in ``--seconds``.  Each job's time
is its median over the passes.  The wall times summed over the jobs
(``wall_ref``), the CPU times from the ``os.wait4`` rusage summed the same
way (``cpu_ref``) and the largest wall time (``max_job_ref``) are divided
by the median wall or CPU time of a reference child, which runs before
every job; the seconds as measured are printed too.  ``peak_rss_mb`` is the
largest ``ru_maxrss`` of any job child, and ``success_rate`` the share of
job executions that exit 0 and pass their check.  ``setup_s`` is the wall
time of a ``--help`` child, run with a reference child before every job:
the median over those pairs of the ``--help`` time divided by the
reference time beside it, in seconds at ``REFERENCE_S``.

``--trace 1`` runs the same job list in this process through
``palrich.cli.main``: once to warm up, then untraced and traced with the
wrappers of ``tracing.py`` in pairs, repeated while a pair fits in
``--seconds``.  It reports per-layer self times and counts, and the tracing
overhead.  The spans are written to ``perfbench/out/``.

Every job's output is checked after the timed passes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from workloads import CheckFailed, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
# Every run must end within 180 s; jobs still running at this point are
# killed and counted as failed.
RUN_DEADLINE_S = 150.0


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _deadline(at: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(at - perf_counter(), 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass(frozen=True)
class Execution:
    wall: float
    cpu: float
    rss_mb: float
    status: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PALRICH_MAX_PREFIX", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, deadline: float, command=(sys.executable, "-m", "palrich.cli")):
    """One child, by default ``python -m palrich.cli``; its rusage comes from wait4."""
    if perf_counter() >= deadline:
        raise JobTimeout()
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [*command, *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        try:
            with _deadline(deadline):
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # The run deadline or a termination signal: stop the child first.
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Execution(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                         code, out.read(), err.read())


def run_inprocess(argv, deadline: float) -> Execution:
    """One job through ``palrich.cli.main`` in this process."""
    cli = sys.modules["palrich.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with _deadline(deadline), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    wall = perf_counter() - start
    return Execution(wall, 0.0, 0.0, code, out.getvalue().encode(), err.getvalue().encode())


class Checker:
    """Checks executions; each distinct output of a job is checked once."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, bytes], str | None] = {}

    def execution(self, job: Job, ex: Execution) -> bool:
        """Record one execution; true if it exited 0 and passed its check."""
        self.attempted += 1
        problem = None
        if ex.status != 0:
            text = (ex.stderr or ex.stdout).decode(errors="replace").strip()
            problem = f"exit status {ex.status}: {text.splitlines()[-1] if text else ''}"
        else:
            key = (job.name, ex.stdout)
            if key not in self._verdicts:
                self._verdicts[key] = self._check(job, ex.stdout)
            problem = self._verdicts[key]
        if problem:
            self.fail(job, problem)
        return problem is None

    def fail(self, job: Job, problem: str) -> None:
        self.problems.append(f"{job.name}: {problem}")

    def timeout(self, job: Job) -> None:
        self.attempted += 1
        self.fail(job, "did not finish before the run deadline")

    @staticmethod
    def _check(job: Job, stdout: bytes) -> str | None:
        try:
            job.check(stdout)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError,
                ImportError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    @property
    def failed(self) -> int:
        return len(self.problems)


HELP = Job("--help", ("--help",), lambda out: workloads.expect(
    out.startswith(b"usage: palrich"), "no usage text"))

# The reference child: interpreter start-up, imports and argument parsing,
# like a job's, from the standard library alone (-I ignores PYTHONPATH), so
# no change to palrich can move it.  The host's speed drifts by tens of
# percent over minutes; a job's time divided by the reference's median in
# the same run does not.
# setup_s is given in seconds at this reference time: the reference child's
# median wall time on the 2-vCPU x86_64 guest, Python 3.11, where the
# benchmark was designed.
REFERENCE_S = 0.14

REFERENCE = Job("reference", (
    "-I", "-c",
    "import argparse, csv, dataclasses, decimal, email.parser, fractions, http.client, "
    "json, logging, pathlib, statistics, tempfile, unittest, xml.dom.minidom; "
    "argparse.ArgumentParser().parse_args([])",
), lambda out: None)


def end_to_end(workload: workloads.Workload, seconds: float, deadline: float):
    env = _child_env()
    checker = Checker()
    run_child(HELP.argv, env, deadline)  # writes bytecode caches; not timed
    helps, references, passes = [], [], []
    started = perf_counter()
    timed_out = False
    while not timed_out:
        t0 = perf_counter()
        executions = []
        for job in workload.jobs:
            try:
                # Set-up and reference samples before every job spread them
                # over the run like the jobs themselves.
                helps.append(run_child(HELP.argv, env, deadline))
                references.append(run_child(REFERENCE.argv, env, deadline, (sys.executable,)))
                executions.append(run_child(job.argv, env, deadline))
            except JobTimeout:
                timed_out = True
                break
        passes.append(executions)
        took = perf_counter() - t0
        if len(passes) >= MIN_PASSES and perf_counter() - started + took > seconds:
            break
    for ex in helps:
        checker.execution(HELP, ex)
    for ex in references:
        checker.execution(REFERENCE, ex)
    # The success rate counts job executions only; a failed --help or
    # reference child still makes the run incorrect through the checker.
    jobs_attempted = jobs_passed = 0
    for executions in passes:
        for job, ex in zip(workload.jobs, executions):
            jobs_attempted += 1
            jobs_passed += checker.execution(job, ex)
    if timed_out:
        checker.timeout(workload.jobs[len(passes[-1])])
        jobs_attempted += 1
    # Each job's median over the passes; one pass is the sum over its jobs.
    per_job = [job_runs for job_runs in zip(*passes)]
    wall = [statistics.median(ex.wall for ex in job_runs) for job_runs in per_job]
    cpu = [statistics.median(ex.cpu for ex in job_runs) for job_runs in per_job]
    ref_wall = statistics.median(ex.wall for ex in references)
    ref_cpu = statistics.median(ex.cpu for ex in references)
    metrics = {
        "wall_ref": (sum(wall) / ref_wall, "ref"),
        "cpu_ref": (sum(cpu) / ref_cpu, "ref"),
        "max_job_ref": (max(wall, default=0.0) / ref_wall, "ref"),
        "setup_s": (REFERENCE_S * statistics.median(
            h.wall / r.wall for h, r in zip(helps, references)), "s"),
        "peak_rss_mb": (max((ex.rss_mb for p in passes for ex in p), default=0.0), "MiB"),
        "success_rate": (jobs_passed / jobs_attempted, "ratio"),
    }
    notes = {"passes": len(passes),
             "pass_wall_s": [round(sum(ex.wall for ex in p), 3) for p in passes],
             "wall_s": sum(wall), "cpu_s": sum(cpu), "max_job_s": max(wall, default=0.0),
             "reference_wall_s": ref_wall, "reference_cpu_s": ref_cpu,
             "help_s": statistics.median(ex.wall for ex in helps),
             "setup_samples": len(helps)}
    return checker, metrics, notes, [ex.stdout for ex in passes[-1]]


def _inprocess_pass(workload: workloads.Workload, deadline: float, tracer=None, index=0):
    executions = []
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = f"{index}:{job.name}"
        executions.append(run_inprocess(job.argv, deadline))
    return executions


def traced(workload: workloads.Workload, seed: int, seconds: float, deadline: float):
    import tracing

    os.environ.pop("PALRICH_MAX_PREFIX", None)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    importlib.import_module("palrich.cli")
    import_s = perf_counter() - start
    checker = Checker()
    tracer = tracing.Tracer()
    plain_walls, traced_walls, layer_runs, outputs = [], [], [], []
    try:
        # An unmeasured first pass: the process's first allocations and
        # lazy imports would otherwise count against one side of the
        # overhead.
        for job, ex in zip(workload.jobs, _inprocess_pass(workload, deadline)):
            checker.execution(job, ex)
        started = perf_counter()
        while True:
            t0 = perf_counter()
            plain = _inprocess_pass(workload, deadline)
            tracer.install()
            try:
                observed = _inprocess_pass(workload, deadline, tracer, len(layer_runs))
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.metrics())
            tracer.reset()
            for job, a, b in zip(workload.jobs, plain, observed):
                checker.execution(job, a)
                checker.execution(job, b)
                if a.stdout != b.stdout:
                    checker.fail(job, "traced output differs from the untraced output")
            plain_walls.append(sum(ex.wall for ex in plain))
            traced_walls.append(sum(ex.wall for ex in observed))
            outputs = [ex.stdout for ex in observed]
            took = perf_counter() - t0
            if perf_counter() - started + took > seconds:
                break
    except JobTimeout:
        checker.timeout(workload.jobs[0])
    tracer.write_spans(OUT / f"spans-{workload.name}-{seed}.jsonl")
    layer_runs = layer_runs or [tracer.metrics()]
    metrics = {}
    for name, (unit, _) in tracing.METRICS.items():
        metrics[name] = (statistics.median(run[name] for run in layer_runs), unit)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls or [0.0]) - statistics.median(plain_walls or [0.0]), "s")
    notes = {"pairs": len(layer_runs), "untraced_wall_s": [round(w, 3) for w in plain_walls],
             "traced_wall_s": [round(w, 3) for w in traced_walls],
             "spans": len(tracer.spans)}
    return checker, metrics, notes, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_S
    signal.signal(signal.SIGTERM, _on_term)
    if not (SRC / "palrich" / "cli.py").is_file():
        print(f"error: no palrich sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"jobs={len(workload.jobs)} inputs={json.dumps(workload.inputs)}")
    if args.trace:
        checker, metrics, notes, _ = traced(workload, args.seed, args.seconds, deadline)
    else:
        checker, metrics, notes, _ = end_to_end(workload, args.seconds, deadline)
    print(f"# {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
