"""The reference program: a fixed piece of work that times the host.

The benchmark runs it as its own child right before and after every
workload child.  Its code and inputs never change, so the time it takes
moves only with the speed of the host, which other tenants of a shared
machine change by tens of percent from one second to the next.  Its mix
follows the workloads: an interpreter loop (the agents' per-trial loop),
float formatting (the CSV writers) and scattered counting into a large
table (the lag-pair kernel).  It imports numpy and nothing of citom.
"""

import numpy as np


def interpreter_loop(n: int) -> int:
    state, seen = 0, {}
    for i in range(n):
        state = (state * 31 + i) & 0xFFFF
        seen[state & 0xFF] = i
    return state + len(seen)


def format_rows(n: int) -> int:
    lines = [f"{i},{i % 7},{i / 3:.6f}" for i in range(n)]
    return len("\n".join(lines))


def scattered_count(n: int) -> int:
    keys = np.random.default_rng(0).integers(0, 1 << 22, size=n)
    return int(np.count_nonzero(np.bincount(keys, minlength=1 << 22)))


if __name__ == "__main__":
    interpreter_loop(1_500_000)
    format_rows(150_000)
    scattered_count(5_000_000)
