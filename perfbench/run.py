"""Benchmark: seeded CLI workloads, checked against known answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 55 --trace 0

Each job goes through the CLI's own code path in this process:
``cli.parse_manifest`` -> ``cli.run(command, ...)`` -> ``Report.to_json()``.
The load is a closed loop: one client, one job at a time, no threads.

With ``--trace 0`` the run goes through the job list, repeats jobs until
``--seconds`` are spent and prints the end-to-end metrics.  With
``--trace 1`` it times a traced pass between two untraced passes, whatever
``--seconds`` says, writes the spans under perfbench/out/ and prints the
per-layer metrics.  Every job is checked against its known answer; one row
per job goes to standard output before the final line, which is a single
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 9
# A job that runs longer than this is stopped and counted as failed, so a
# pathological input cannot hang the run.
JOB_GUARD_S = 60


class JobTimeout(BaseException):
    """Raised by the guard's alarm; not an Exception, so no handler in the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_program():
    """Import orbifunctor from this checkout's src/; returns (cli, seconds).

    Set-up is the import of the package; it is repeated from a clean module
    table SETUP_REPEATS times and the median is reported, so that work moved
    into import time shows.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "orbifunctor", "__init__.py")):
        raise SystemExit(f"error: no orbifunctor sources under {src}")
    sys.path.insert(0, src)
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == "orbifunctor" or m.startswith("orbifunctor.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        from orbifunctor import cli
        times.append(time.perf_counter() - t0)
    return cli, statistics.median(times)


class Outcome:
    __slots__ = ("seconds", "verdict", "ok", "failed", "digest")

    def __init__(self, seconds, verdict, ok, failed, digest):
        self.seconds = seconds
        self.verdict = verdict
        self.ok = ok
        self.failed = failed
        self.digest = digest


def check(report, exit_code, expect):
    """Does the report carry the known answer?  Returns (ok, reason)."""
    if exit_code != expect["exit"]:
        return False, f"exit {exit_code}, expected {expect['exit']}"
    groups = {g["name"]: g["value"] for g in report["groups"]}
    if groups != expect["groups"]:
        wrong = sorted(k for k in set(groups) | set(expect["groups"])
                       if groups.get(k) != expect["groups"].get(k))
        return False, f"groups differ at {wrong[:3]}"
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    for name, passed in expect["verdicts"].items():
        if verdicts.get(name) != passed:
            return False, f"verdict {name!r} is {verdicts.get(name)}"
    if sorted(report["witnesses"]) != expect["witnesses"]:
        return False, "witnesses differ"
    return True, ""


def run_job(cli, job):
    """One job through the CLI path, timed, guarded and checked."""
    args = argparse.Namespace(degree=None, truncation=job.truncation,
                              mode=None, model=None)
    signal.alarm(JOB_GUARD_S)
    t0 = time.perf_counter()
    try:
        manifest = cli.parse_manifest(job.text)
        report = cli.run(job.command, manifest, args)
        text = report.to_json()
        seconds = time.perf_counter() - t0
    except cli.ManifestError as err:
        return Outcome(time.perf_counter() - t0, f"exit 2: {err}",
                       False, True, None)
    except JobTimeout:
        return Outcome(time.perf_counter() - t0, "over guard", False, True,
                       None)
    except Exception as err:  # a traceback is a failed job, not a dead run
        traceback.print_exc()
        return Outcome(time.perf_counter() - t0,
                       f"raised {type(err).__name__}: {err}", False, True,
                       None)
    finally:
        signal.alarm(0)
    exit_code = 0 if report.passed else 1
    ok, why = check(json.loads(text), exit_code, job.expect)
    verdict = f"exit {exit_code}" + ("" if ok else f" WRONG: {why}")
    return Outcome(seconds, verdict, ok, False,
                   hashlib.sha256(text.encode("utf-8")).hexdigest())


class Tally:
    """Samples per job, correctness and byte stability across repeats."""

    def __init__(self, workload, jobs):
        self.workload = workload
        self.jobs = jobs
        self.samples = {job.name: [] for job in jobs}
        self.verdicts = {job.name: [] for job in jobs}
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.unstable = 0

    def add(self, job, out):
        self.attempted += 1
        self.failed += out.failed
        if not out.failed:
            self.samples[job.name].append(out.seconds)
            self.wrong += not out.ok
            first = self.digests.setdefault(job.name, out.digest)
            if first != out.digest:
                self.unstable += 1
                out.verdict += " REPORT BYTES CHANGED"
        if out.verdict not in self.verdicts[job.name]:
            self.verdicts[job.name].append(out.verdict)

    def rows(self):
        """One row per job: workload, job, median seconds, verdict."""
        for job in sorted(self.jobs, key=lambda j: j.name):
            times = self.samples[job.name]
            seconds = f"{statistics.median(times):.4f}s" if times else "-"
            line = (f"row {self.workload} {job.name} {seconds} n={len(times)}"
                    f" {'; '.join(self.verdicts[job.name])}")
            if job.name in workloads.BASELINE_S:
                line += f" (re-anchor baseline {workloads.BASELINE_S[job.name]}s)"
            print(line)

    @property
    def correct(self):
        checked = self.attempted - self.failed
        return checked > 0 and self.wrong == 0 and self.unstable == 0


def measure(cli, tally, seconds):
    """Run the job list once, then repeat jobs until the time is spent.

    Each repeat goes to a job with the fewest samples so far whose last time
    still fits in the budget, so the jobs get nearly equal sample counts.
    Returns the wall time of the first pass.
    """
    start = time.perf_counter()
    last = {}
    for job in tally.jobs:
        out = run_job(cli, job)
        last[job.name] = out.seconds
        tally.add(job, out)
    first_pass = time.perf_counter() - start
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [job for job in tally.jobs if last[job.name] <= left]
        if not fits:
            return first_pass
        job = min(fits, key=lambda j: len(tally.samples[j.name]))
        out = run_job(cli, job)
        last[job.name] = out.seconds
        tally.add(job, out)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(tally, setup_s):
    # Each job's latency is its median over the run's repeats, so a job
    # that got one more repeat than another does not shift the percentiles.
    # wall_s, the time of the whole job list, is the sum of these medians:
    # one pass timed end to end would be a single sample of each job.
    medians = [statistics.median(s) for s in tally.samples.values() if s]
    ok_jobs = tally.attempted - tally.failed - tally.wrong
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (sum(medians), "s"),
        "job_s.p50": (statistics.median(medians) if medians else 0.0, "s"),
        "job_s.p90": (percentile(medians, 0.9) if medians else 0.0, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "verdicts_ok": (ok_jobs / tally.attempted, "fraction"),
        "completed_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
    }
    samples = sum(len(s) for s in tally.samples.values())
    print(f"info {tally.workload} percentiles over {len(medians)} job "
          f"medians from {samples} job runs")
    # failed_frac is 1 - completed_frac; the result line carries the latter,
    # which is never 0, so that a relative bound applies to it.
    print(f"metric {tally.workload} failed_frac = "
          f"{tally.failed / tally.attempted:.6g} fraction")
    return metrics


def traced(cli, tally, workload, seed):
    from tracer import Tracer

    def untraced_pass():
        t0 = time.perf_counter()
        for job in tally.jobs:
            tally.add(job, run_job(cli, job))
        return time.perf_counter() - t0

    # The traced pass sits between two untraced ones, so that a drift in
    # machine speed does not read as tracing overhead.
    untraced_s = untraced_pass()
    tracer = Tracer()
    tracer.install()
    try:
        jobs_s = 0.0
        t0 = time.perf_counter()
        for job in tally.jobs:
            tracer.job = job.name
            out = run_job(cli, job)
            jobs_s += out.seconds
            tally.add(job, out)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    untraced_s = (untraced_s + untraced_pass()) / 2
    metrics = tracer.metrics(traced_s, jobs_s)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload}-{seed}.json"))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, setup_s = import_program()
    with open(os.path.join(ROOT, workloads.SHIPPED_MANIFEST),
              encoding="utf-8") as fh:
        shipped = fh.read()
    jobs = workloads.make_jobs(args.workload, args.seed, shipped)
    tally = Tally(args.workload, jobs)
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()    # the modules dropped by the repeated imports, not a job's
    if args.trace:
        metrics = traced(cli, tally, args.workload, args.seed)
    else:
        first_pass = measure(cli, tally, args.seconds)
        print(f"info {args.workload} first pass wall {first_pass:.4f}s",
              flush=True)
        metrics = end_to_end(tally, setup_s)
    tally.rows()
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
