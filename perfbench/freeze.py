#!/usr/bin/env python3
"""Write signatures.json: one pass of every workload, each job's sha256.

    python3 perfbench/freeze.py

Run only when an output change is intended: the timed and traced runs
count every job whose signature differs from this file as failed.
"""

import json
import sys

from run import HERE, ROOT, purge_stackcoh
import jobs as jobdefs


def main():
    sys.path.insert(0, str(ROOT / "src"))
    frozen = {}
    for workload in jobdefs.WORKLOADS:
        purge_stackcoh()
        job_list = jobdefs.setup(workload)
        frozen[workload] = {}
        for job in job_list:
            result = job.call()
            if not job.ok(result):
                sys.exit(f"{job.name}: its own check failed; not freezing")
            frozen[workload][job.name] = jobdefs.signature(job.payload(result))
            print(workload, job.name, frozen[workload][job.name], flush=True)
    with open(HERE / "signatures.json", "w") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
