"""The benchmark's recorded report digests still hold.

`perfbench/run.py` checks that the first 50 reports of each workload's
job stream hash to the digest recorded in `perfbench/digests.json`, but
only in a benchmark run.  This test replays the seed-0 prefix of every
workload through the benchmark's own job generator and job runner, loaded
by path, so that a change of a single report byte fails here in seconds.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 0


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs = _load("jobs")
worker = _load("worker")
with open(PERFBENCH / "digests.json", encoding="utf-8") as fh:
    DIGESTS = json.load(fh)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_prefix_reports_match_recorded_digest(workload):
    stream = jobs.generate(workload, SEED, DIGESTS["prefix"])
    reports = "".join(worker.run_job(job) for job in stream)
    assert hashlib.sha256(reports.encode()).hexdigest() == DIGESTS["seeds"][workload][str(SEED)]
