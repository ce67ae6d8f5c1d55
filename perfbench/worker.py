"""One fresh benchmark worker process: import weightfilt, run jobs, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and a fixed ``PYTHONHASHSEED``.  As soon as ``import weightfilt``
has finished it prints ``ready`` and the calibrated CPU time it has used
since the process started (its set-up time), then reads its orders as one
JSON object on stdin and prints one JSON result line.  It draws jobs from
the seeded stream of ``jobs.py`` one at a time, between timed jobs.  Every worker starts with the
library's caches cold, as each command-line invocation does.

Times are CPU time of this single-threaded process, calibrated.  The
library does no I/O, so CPU time is its latency on an idle machine; on a
shared host it leaves out time taken by other tenants.  Their load still
changes how fast a CPU second runs: the calibration below ranged from 2
to 5 ms on a shared 2-vCPU cloud VM, from one second to the next.  So the
worker times that fixed piece of exact arithmetic after import and after
every job, and scales each job's time by ``CAL_NOMINAL_NS`` over the mean
of the calibrations either side of it.  Times are thus reported at one
nominal machine speed, about that VM's uncontended speed, where calibrated
and real milliseconds are close.  Calibrations run outside the timed
brackets.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from itertools import islice
from typing import Iterable

from weightfilt import document, nearby
from weightfilt.exact import Matrix, _sum_and_intersection
from weightfilt.filtration import _subobject_compatibility_cached


CAL_NOMINAL_NS = 2_500_000


def calibrate() -> int:
    """CPU time of a fixed piece of exact arithmetic, with the collector off
    so that the library's heap does not slow it down."""
    gc.disable()
    try:
        t0 = time.process_time_ns()
        s = Fraction(0)
        for i in range(1, 1000):
            s += Fraction(i % 7 + 1, i % 97 + 1)
        return time.process_time_ns() - t0
    finally:
        gc.enable()


def run_job(job: dict) -> str:
    """One job: a task document taken to its structured report, or one
    call into the nearby API rendered the same way."""
    if job["kind"] == "doc":
        return document.emit_report(document.run_task(document.parse(job["text"])), "structured")
    args = job["args"]
    module = nearby.MonodromicModule(
        [Fraction(x) for x in args["supports"]], [Matrix(m) for m in args["operators"]]
    )
    result = getattr(nearby, job["task"])(module, args["orders"])
    fields = {name: getattr(result, name) for name in type(result).__slots__}
    fields["task"] = job["task"]
    return json.dumps(fields, sort_keys=True, indent=2) + "\n"


def cache_counts() -> dict:
    out = {}
    for name, fn in (("exact.sum_intersection", _sum_and_intersection), ("filtration.subobject_cache", _subobject_compatibility_cached)):
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    return out


def execute(jobs: Iterable[dict], seconds: float, cycle: int, prefix: int, runner) -> dict:
    """Closed loop over ``jobs``: each starts when the previous one ends.

    The window runs whole cycles of the stream until ``seconds`` of
    calibrated time have passed, so every window holds the same mix of
    jobs.  Jobs of the digest prefix that the window did not reach run
    afterwards, outside the window.
    """
    latencies, reports, errors, calibrations = [], [], {}, [calibrate()]
    clock = time.process_time_ns
    in_window = True
    window_jobs = job_cpu_ns = 0
    window_ns = 0.0
    for i, job in enumerate(jobs):
        if i % cycle == 0 and window_ns >= seconds * 1e9:
            in_window = False
        if not in_window and i >= prefix:
            break
        t0 = clock()
        try:
            report = runner(job)
        except Exception:
            report = None
            errors[i] = traceback.format_exc(limit=8)
        cpu = clock() - t0
        calibrations.append(calibrate())
        latency = cpu * 2 * CAL_NOMINAL_NS / (calibrations[-2] + calibrations[-1])
        latencies.append(latency)
        reports.append(report)
        job_cpu_ns += cpu
        if in_window:
            window_ns += latency
            window_jobs = i + 1
    return {
        "latencies_ns": latencies,
        "reports": reports,
        "errors": errors,
        "window_jobs": window_jobs,
        "window_s": window_ns / 1e9,
        "job_cpu_ns": job_cpu_ns,
        "calibrations_ns": calibrations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> None:
    mode = sys.argv[1]
    setup = time.process_time_ns()
    speed = sum(calibrate() for _ in range(4)) / 4
    print("ready", setup * CAL_NOMINAL_NS / speed / 1e9, flush=True)
    if mode == "probe":
        return
    import jobs as jobgen

    orders = json.load(sys.stdin)
    jobs = jobgen.stream(orders["workload"], orders["seed"])
    cycle = jobgen.cycle_length(orders["workload"])
    gc.collect()
    if mode == "run":
        result = execute(jobs, orders["seconds"], cycle, orders["prefix"], run_job)
    else:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_job = tracer.wrap(tracing.ROOT, run_job)

        def runner(job: dict) -> str:
            tracer.next_job()
            return traced_job(job)

        cache_before = cache_counts()
        result = execute(islice(jobs, orders["prefix"]), 0.0, cycle, orders["prefix"], runner)
        result["cache_before"] = cache_before
        result["cache_after"] = cache_counts()
        result["calls"] = tracer.calls
        result["self_ns"] = tracer.self_ns
        result["counts"] = tracer.counts
        result["reusing_jobs"] = len(tracer.reusing_jobs)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
