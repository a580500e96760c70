"""One benchmark child: import citom, note when that returned, run the work.

Usage: ``child.py <trace 0|1> cli <citom argv...>`` or
``child.py <trace 0|1> sweep <seed>``.  Run from the child's working
directory, which receives ``side.json`` (the import timestamp, the peak
RSS and any sweep results) and, when tracing, the spans.  Nothing is imported
before citom, so the timestamp covers interpreter start and
``import citom`` only.
"""

import time

import citom

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    traced, kind, rest = argv[0] == "1", argv[1], argv[2:]
    here = Path.cwd()
    side = {"imported_at": IMPORTED_AT}

    if kind == "cli":
        import citom.cli

        def body():
            return citom.cli.main(rest)
    else:
        from workloads import run_sweep

        def body():
            side["sessions"] = run_sweep(int(rest[0]))
            return 0

    if traced:
        from tracing import SpanLog

        spans = SpanLog(f"{os.getpid()}-{IMPORTED_AT}")
        spans.install()
        code = spans.run(body)
        spans.dump(here)
    else:
        code = body()
    side["peak_rss_kb"] = peak_rss_kb()
    (here / "side.json").write_text(json.dumps(side), encoding="utf-8")
    return code


def peak_rss_kb() -> int:
    """This process's own peak RSS since exec (``VmHWM``).

    The rusage ``ru_maxrss`` the parent gets from ``os.wait4`` is no
    good here: at exec the kernel folds the spawning process's peak RSS
    into it, so it reports the benchmark's memory, not the program's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
