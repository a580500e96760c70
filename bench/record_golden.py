"""Record the golden digests the correctness gate compares against.

Usage: ``python3 bench/record_golden.py``.  Runs each workload once per
seed in ``SEEDS`` and rewrites ``bench/golden.json``.  Only rerun it for
a change that alters artifact bytes on purpose, and say so: the ROADMAP
treats such a change as a change of behaviour.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

# The default seed and one held out from tuning the benchmark.
SEEDS = (0, 7)


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for seed in SEEDS:
            workdir = run.WORK_ROOT / f"golden-{workload}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                workloads.prepare(workload, seed, workdir)
                child = run.spawn(workload, seed, workdir, traced=False)
                child.problems += workloads.check_invariants(workload, workdir, child.side)
                if child.problems:
                    print(f"{workload} seed {seed}: {'; '.join(child.problems)}", file=sys.stderr)
                    return 1
                golden[workload][str(seed)] = child.digests
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
