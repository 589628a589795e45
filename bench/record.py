"""Record the exit code and stdout digest of every job of the pinned seeds.

    python3 bench/record.py

Run it from a source checkout whose outputs are known to be right.  It
rewrites expected.json, against which worker.py checks each job of the
default seed and of one held-out seed; other seeds get the invariant
checks of workloads.py only.
"""

import json
import os
import sys

from worker import EXPECTED, run_job
from workloads import WORKLOADS, check, digest, make_jobs

PINNED_SEEDS = (0, 1)


def main():
    records = {}
    for workload in sorted(WORKLOADS):
        records[workload] = {}
        for seed in PINNED_SEEDS:
            rows = []
            for job in make_jobs(workload, seed):
                rc, stdout, _, _ = run_job(job)
                problem = "raised" if rc is None else check(job, rc, stdout)
                if problem:
                    sys.exit("%s: %s" % (" ".join(job.argv), problem))
                rows.append([rc, digest(stdout)])
            records[workload][str(seed)] = rows
    with open(EXPECTED, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(EXPECTED))


if __name__ == "__main__":
    main()
