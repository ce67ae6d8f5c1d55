"""Record the digest of each workload's prefix reports for a range of seeds.

    python3 perfbench/record_digests.py 0 49

For every workload and every seed in the inclusive range, a fresh worker
runs the digest prefix of the job stream; every report is checked against
its expected answer, and the SHA-256 of the concatenated reports is stored
in ``perfbench/digests.json``.  A seed with a wrong answer is not recorded.
Rerun this only when a change is meant to alter the reports.
"""

from __future__ import annotations

import json
import sys

import jobs as jobgen
import run


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    table: dict = {"prefix": run.PREFIX, "seeds": {}}
    for workload in jobgen.WORKLOADS:
        digests = table["seeds"][workload] = {}
        for seed in range(first, last + 1):
            stream = jobgen.generate(workload, seed, run.PREFIX)
            orders = {"workload": workload, "seed": seed, "seconds": 0, "prefix": run.PREFIX}
            result, _ = run.worker("run", orders, run.Deadline(run.TIME_LIMIT))
            if run.check_reports(stream, result["reports"], result["errors"]):
                print(f"{workload} seed {seed}: wrong answers, not recorded", file=sys.stderr)
                continue
            digests[str(seed)] = run.prefix_digest(result["reports"])
            print(workload, seed, digests[str(seed)], flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
