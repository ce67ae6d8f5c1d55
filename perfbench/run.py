"""Certification-job benchmark for weightfilt.

    python3 perfbench/run.py --workload compat-lattice --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  One client sends a closed loop of jobs
(one job: a task document through ``parse -> run_task -> emit_report``, or
one call into ``weightfilt.nearby``) to a fresh worker process, for
``--seconds`` seconds of calibrated CPU time (see ``worker.py``).  Jobs
and their expected answers come from the seeded stream of ``jobs.py``; the
worker draws each job before its timed bracket opens, and this process
regenerates the same jobs afterwards to check the reports.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
measured window and then the digest prefix again in a traced worker, and
prints the per-layer metrics.  ``--workload all`` runs every workload in
turn.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

A run is correct when every job gives its expected answer, the digest of
the prefix reports matches the one recorded for the seed (when one is), a
sample of documents gives byte-identical output and the verdict's exit
code through the ``weightfilt`` command, and (traced) tracing leaves the
reports unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as jobgen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

PREFIX = 50  # jobs in the digest prefix (two cycles); also what the traced worker runs
SETUP_SAMPLES = 11
TIME_LIMIT = 170.0  # seconds for one workload run, all processes included

MODULES = ("exact", "filtration", "rees", "monodromy", "lefschetz", "nearby", "document")
CLI = {
    "check-monodromy": ["check", "monodromy"],
    "check-relative": ["check", "relmono"],
    "check-iterated": ["check", "mf"],
    "check-lefschetz": ["check", "lefschetz"],
    "check-compat": ["check", "compat"],
    "koszul-homology": ["koszul"],
    "rees-summary": ["rees"],
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time limit for the run exceeded")
        return left


def worker(mode: str, orders: dict | None, deadline: Deadline) -> tuple[dict | None, float]:
    """Start a fresh worker; return its result and its set-up time.

    Set-up is the CPU time the worker spends from process start until
    ``import weightfilt`` has finished and it can take its first job.
    """
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    ) as proc:
        try:
            word, _, ready = proc.stdout.readline().decode().partition(" ")
            if word != "ready":
                raise BenchError(f"worker failed to start ({mode})")
            data = json.dumps(orders).encode() if orders is not None else b""
            out, _ = proc.communicate(data, timeout=deadline.left())
        except BaseException as exc:
            proc.kill()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker ({mode}) did not finish in time") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    return (json.loads(out) if orders is not None else None), float(ready)


def check_reports(stream: list, reports: list, errors: dict) -> list:
    """Indices of jobs that raised or disagree with their expected answer."""
    failed = []
    for i, report in enumerate(reports):
        if report is None:
            print(f"job {i} ({stream[i]['task']}) raised:\n{errors[str(i)]}", file=sys.stderr)
            failed.append(i)
            continue
        wrong = jobgen.mismatches(stream[i], json.loads(report))
        if wrong:
            print(f"job {i} ({stream[i]['task']}) wrong: {'; '.join(wrong)}", file=sys.stderr)
            failed.append(i)
    return failed


def prefix_digest(reports: list) -> str | None:
    head = reports[:PREFIX]
    if len(head) < PREFIX or any(r is None for r in head):
        return None
    return hashlib.sha256("".join(head).encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    if table["prefix"] != PREFIX:
        raise BenchError("digests.json was recorded for another prefix length")
    return table["seeds"].get(workload, {}).get(str(seed))


def cli_cross_check(stream: list, reports: list, deadline: Deadline) -> tuple[int, int]:
    """Rerun the shortest prefix document of each (task, verdict) through
    the ``weightfilt`` command; output and exit code must match."""
    chosen: dict = {}
    for i, job in enumerate(stream[:PREFIX]):
        if job["kind"] != "doc" or reports[i] is None:
            continue
        key = (job["task"], json.loads(reports[i])["verdict"])
        if key not in chosen or len(job["text"]) < len(stream[chosen[key]]["text"]):
            chosen[key] = i
    agreed = 0
    for (task, verdict), i in sorted(chosen.items()):
        cmd = [sys.executable, "-m", "weightfilt.cli", *CLI[task], "--input", "-", "--format", "structured"]
        try:
            done = subprocess.run(
                cmd, input=stream[i]["text"].encode(), capture_output=True, cwd=ROOT,
                env=child_env(), timeout=deadline.left(),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("command-line cross-check did not finish in time") from None
        if done.stdout == reports[i].encode() and done.returncode == (0 if verdict else 1):
            agreed += 1
        else:
            print(f"cli cross-check of job {i} ({task}) differs: exit {done.returncode}", file=sys.stderr)
    return agreed, len(chosen)


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = Deadline(TIME_LIMIT)
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    orders = {"workload": workload, "seed": seed, "seconds": seconds, "prefix": PREFIX}

    worker("probe", None, deadline)  # fills the bytecode cache; not a sample
    setups = [worker("probe", None, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
    run, ready = worker("run", orders, deadline)
    setups.append(ready)

    reports = run["reports"]
    stream = jobgen.generate(workload, seed, len(reports))
    failed = check_reports(stream, reports, run["errors"])
    attempted = len(reports)
    n = run["window_jobs"]
    if n == 0:
        raise BenchError("no job completed in the window")
    lat_ms = [x / 1e6 for x in run["latencies_ns"][:n]]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if n >= 2 else lat_ms[0]
    e2e = {
        "jobs_per_s": (n / run["window_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }
    calibration = statistics.median(run["calibrations_ns"]) / 1e6
    print(f"jobs {n} in a {run['window_s']:.3f} s calibrated window, {attempted - n} more after it to finish the digest prefix")
    print(f"machine speed: calibration median {calibration:.3f} ms against a nominal 2.5 ms")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"latency samples {n}, {sum(x > p90 for x in lat_ms)} beyond p90")
    print(f"failed_ratio {len(failed) / attempted:.6g} ({len(failed)}/{attempted})")

    correct = not failed
    digest = prefix_digest(reports)
    want = recorded_digest(workload, seed)
    if want is None:
        print(f"digest {digest} (none recorded for this seed)")
    else:
        print(f"digest {digest} ({'matches' if digest == want else 'DIFFERS from ' + want})")
        correct = correct and digest == want
    agreed, sampled = cli_cross_check(stream, reports, deadline)
    print(f"cli cross-check {agreed}/{sampled} documents identical")
    correct = correct and agreed == sampled

    if not trace:
        metrics = e2e
    else:
        traced, _ = worker("trace", orders, deadline)
        if prefix_digest(traced["reports"]) != digest:
            print("traced reports differ from untraced ones", file=sys.stderr)
            correct = False
        metrics = layer_metrics(run, traced)
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(run: dict, traced: dict) -> dict:
    calls, self_ns, counts = traced["calls"], traced["self_ns"], traced["counts"]
    out: dict = {}
    for _, _, name, _ in tracing.TRACED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for module in MODULES:
        total = sum(v for k, v in self_ns.items() if k.startswith(module + "."))
        out[f"{module}.self_s"] = (total / 1e9, "s")
    out["bench.self_s"] = (self_ns[tracing.ROOT] / 1e9, "s")
    for name in tracing.COUNTERS:
        out[name] = (counts[name], "count")
    for cache in ("exact.sum_intersection", "filtration.subobject_cache"):
        hits = traced["cache_after"][cache][0] - traced["cache_before"][cache][0]
        misses = traced["cache_after"][cache][1] - traced["cache_before"][cache][1]
        out[f"{cache}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out[f"{cache}.lookups"] = (hits + misses, "count")
    out["exact.sum_intersection.reuse_job_share"] = (traced["reusing_jobs"] / PREFIX, "ratio")
    relative = calls["monodromy.relative_monodromy"]
    refuted = counts["monodromy.relative_refuted"]
    out["monodromy.relative_refuted_ratio"] = (refuted / relative if relative else 0.0, "ratio")
    out["trace.overhead_ratio"] = (sum(run["latencies_ns"][:PREFIX]) / sum(traced["latencies_ns"]), "ratio")

    traced_ns = traced["job_cpu_ns"]
    total_self = sum(self_ns.values())
    print(f"cached-pair reuse: {traced['reusing_jobs']}/{PREFIX} jobs look up a subspace pair an earlier job cached")
    print(f"traced prefix: {PREFIX} jobs, {traced_ns / 1e9:.3f} s job CPU time, {total_self / 1e9:.3f} s in spans")
    for module in MODULES + ("bench",):
        share = out[f"{module}.self_s"][0] * 1e9 / traced_ns
        print(f"  self {module:<11} {out[f'{module}.self_s'][0]:9.4f} s {share:7.2%}")
    print(f"  outside spans     {(traced_ns - total_self) / 1e9:9.4f} s {(traced_ns - total_self) / traced_ns:7.2%}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*jobgen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "weightfilt" / "__init__.py").is_file():
        print(f"error: no weightfilt sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = list(jobgen.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: bench(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        for result in results.values():
            print(json.dumps(result))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
