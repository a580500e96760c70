"""citom's end-to-end benchmark, with a traced per-layer split.

Usage::

    python3 bench/run.py --workload {triad-cli,pennies-sweep,measure-wide,all}
                         [--seed N] [--seconds S] [--trace 0|1] [--save PATH]

Each workload runs fresh child processes one at a time, in a closed loop
with one client, for ``--seconds`` after one unmeasured warm-up child.
Before and after every child it runs ``reference.py``, a fixed program
whose time tracks the speed of the shared host; the end-to-end times the
JSON line carries are the child's times in units of it.
Every child's outputs pass the correctness gate (``workloads.py``).
With ``--trace 0`` the children run untraced and the end-to-end metrics
are reported; with ``--trace 1`` traced and untraced children alternate
and the per-layer metrics from ``tracing.py`` are reported, including
the tracing overhead.  Every metric is printed by name and unit with its
median, quartiles and sample count; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
medians.  ``--save`` also writes everything to a BENCH file.

The program is built from ``src/`` of the checkout this file sits in;
the benchmark exits with status 2 and prints no result when it is
missing.  See ``bench/README.md`` for the workloads and metric map.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SRC = workloads.SRC

# The figures the JSON line carries, all corrected for the speed of the
# host (see ``normalise``).  The ``*_ref`` ones are in units of the
# reference program's wall time taken beside the child.
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "rows_per_ref": "1/ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}

# Printed and saved beside them, in seconds as measured.
MEASURED = {
    "wall_s": "s",
    "setup_measured_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "ref_s": "s",
}

PER_LAYER = {
    "import.citom_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "scenarios.run_triadic_s": "s",
    "scenarios.run_matching_pennies_s": "s",
    "scenarios.measure_log_s": "s",
    "scenarios.self_s": "s",
    "scenarios.steps": "count",
    "agents.predictor_s": "s",
    "agents.learner_s": "s",
    "agents.self_s": "s",
    "agents.response_calls": "count",
    "agents.rejection_share": "share",
    "info_measures.encode_s": "s",
    "info_measures.build_lag_pairs_s": "s",
    "info_measures.mutual_information_s": "s",
    "info_measures.self_s": "s",
    "info_measures.pairs": "count",
    "info_measures.cells_allocated": "count",
    "info_measures.cells_occupied": "count",
    "info_measures.occupied_share": "share",
    "info_measures.table_bytes": "computed_bytes",
    "io.episode_csv_s": "s",
    "io.series_csv_s": "s",
    "io.measures_s": "s",
    "io.write_s": "s",
    "io.parse_s": "s",
    "io.self_s": "s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "trace.run_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# ``setup_s`` is in seconds on a host where one run of ``reference.py``
# takes this long, about its median on the 2-core 2.1 GHz Xeon VM the
# benchmark was written on.  The constant only sets the scale: the ratio
# of two runs' ``setup_s`` does not depend on it.
REF_SECONDS = 0.6

# A child that has not exited by then is killed and counted as failed.
CHILD_TIMEOUT_S = 60
MIN_SAMPLES = 3


@dataclass
class Child:
    """One finished child process, its readings and what the gate made of it."""

    traced: bool
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    side: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    # One client on one thread: numpy's BLAS pool would otherwise start a
    # thread per core at import, and no workload uses it.
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def time_reference(workdir: Path) -> float:
    """Wall time of one run of ``reference.py``, spawn to exit."""
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "reference.py")], cwd=workdir, env=child_env(),
        stdin=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.monotonic() - started


def normalise(child: Child, ref_s: float) -> None:
    """Add the child's times in units of the reference program's time.

    ``ref_s`` is the mean of the reference runs right before and right
    after the child, so a slow spell of the host that stretches the
    child stretches it too and the ratio stays put.  ``setup_s`` is the
    same ratio for the set-up time, scaled to seconds by ``REF_SECONDS``.
    """
    metrics = child.metrics
    metrics["ref_s"] = ref_s
    metrics["wall_ref"] = metrics["wall_s"] / ref_s
    metrics["cpu_ref"] = metrics["cpu_s"] / ref_s
    metrics["rows_per_ref"] = metrics["rows_per_s"] * ref_s
    metrics["setup_s"] = metrics["setup_measured_s"] / ref_s * REF_SECONDS


def spawn(workload: str, seed: int, workdir: Path, traced: bool) -> Child:
    """Run one child to completion and take its timings and resource use.

    CPU time comes from this child's own rusage via ``os.wait4``
    (``RUSAGE_CHILDREN`` would sum or maximise over every child reaped so
    far); peak RSS comes from the child itself (see ``child.py``).
    """
    shutil.rmtree(workdir / workloads.OUT_DIR, ignore_errors=True)
    for name in ("side.json", "spans.json", "spans.bin"):
        (workdir / name).unlink(missing_ok=True)
    argv = [sys.executable]
    if traced:
        argv += ["-X", "importtime"]
    argv += [str(BENCH_DIR / "child.py"), "1" if traced else "0"]
    argv += workloads.child_args(workload, seed)
    child = Child(traced)
    stderr_path = workdir / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        started = time.monotonic()
        process = subprocess.Popen(
            argv, cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )

        def kill(signum, frame):
            process.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        ended = time.monotonic()
        process.returncode = os.waitstatus_to_exitcode(status)

    errors = stderr_path.read_text(encoding="utf-8", errors="replace")
    if process.returncode != 0:
        child.problems.append(f"exit status {process.returncode}")
    if "Traceback (most recent call last)" in errors:
        child.problems.append("traceback on stderr: " + errors.strip().splitlines()[-1])
    side_path = workdir / "side.json"
    if side_path.exists():
        child.side = json.loads(side_path.read_text(encoding="utf-8"))
    elif not child.problems:
        child.problems.append("no side.json")
    if child.problems:
        return child

    child.metrics = {
        "wall_s": ended - started,
        "setup_measured_s": child.side["imported_at"] - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": child.side["peak_rss_kb"] / 1024.0,
    }
    child.metrics["rows_per_s"] = workloads.ROWS[workload] / (
        child.metrics["wall_s"] - child.metrics["setup_measured_s"]
    )
    if traced:
        import tracing

        child.metrics.update(tracing.import_metrics(errors))
        child.metrics.update(tracing.layer_metrics(*tracing.load_spans(workdir)))
    child.digests = workloads.digests(workload, workdir, child.side)
    return child


def summarise(values: list[float]) -> dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Warm up, run the closed loop for ``seconds``, gate every child."""
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workloads.prepare(workload, seed, workdir)
        golden = workloads.golden_digests(workload, seed)
        notes = []

        warmup = spawn(workload, seed, workdir, traced=False)
        reference = golden
        if golden is not None:
            notes.append(f"digests checked against golden digests for seed {seed}")
            warmup.problems += workloads.compare_digests(golden, warmup.digests)
        else:
            notes.append(
                f"digests not checked: no golden digests for seed {seed}; "
                "checked invariants and run-to-run identity instead"
            )
            if not warmup.problems:
                warmup.problems += workloads.check_invariants(workload, workdir, warmup.side)
            if not warmup.problems:
                reference = warmup.digests

        children = []
        began = time.monotonic()
        ref_before = time_reference(workdir)
        while time.monotonic() - began < seconds or len(children) < MIN_SAMPLES:
            # With tracing, traced and untraced children alternate so
            # both see the same conditions.
            child_traced = traced and len(children) % 2 == 0
            child = spawn(workload, seed, workdir, child_traced)
            ref_after = time_reference(workdir)
            if reference is None:
                child.problems.append("no verified reference output (warm-up failed)")
            elif not child.problems:
                child.problems += workloads.compare_digests(reference, child.digests)
            if not child.problems:
                normalise(child, (ref_before + ref_after) / 2)
            ref_before = ref_after
            children.append(child)
        return {"children": children, "warmup": warmup, "notes": notes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def report(workload: str, outcome: dict, traced: bool) -> dict:
    """Summaries of every metric of one workload, and its failure counts."""
    children = outcome["children"]
    passed = [child for child in children if not child.problems]
    untraced = [child for child in passed if not child.traced]
    def summaries(names: dict[str, str]) -> dict[str, dict[str, float]]:
        if not untraced:
            return {}
        return {name: summarise([child.metrics[name] for child in untraced]) for name in names}

    end_to_end, measured = summaries(END_TO_END), summaries(MEASURED)
    layers = {}
    if traced:
        traced_children = [child for child in passed if child.traced]
        for name in PER_LAYER:
            values = [child.metrics[name] for child in traced_children if name in child.metrics]
            if values:
                layers[name] = summarise(values)
        if traced_children and untraced:
            layers["trace.overhead_s"] = summarise([
                statistics.median(child.metrics["wall_s"] for child in traced_children)
                - measured["wall_s"]["median"]
            ])
    # The warm-up child is gated like the others, so it counts as a run.
    runs = [outcome["warmup"], *children]
    failed = sum(1 for child in runs if child.problems)
    return {
        "attempted": len(runs),
        "failed": failed,
        "failed_share": failed / len(runs),
        "notes": outcome["notes"],
        "problems": sorted({problem for child in runs for problem in child.problems}),
        "end_to_end": end_to_end,
        "measured": measured,
        "per_layer": layers,
    }


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def context(seed: int) -> dict:
    """Where and on what a result was measured."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    # The ceiling keeps git from searching directories above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            env=git_env, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def print_table(workload: str, result: dict) -> None:
    for note in result["notes"]:
        print(f"{workload}: {note}")
    for problem in result["problems"]:
        print(f"{workload}: FAILED: {problem}")
    units = {**END_TO_END, **MEASURED, **PER_LAYER}
    for section in ("end_to_end", "measured", "per_layer"):
        for name, summary in result[section].items():
            print(
                f"{workload:<14} {name:<36} {units[name]:<14} median {summary['median']:.6g}"
                f"  q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  n {summary['n']}"
            )
    print(
        f"{workload:<14} {'failed_share':<36} {'share':<14} {result['failed_share']:.6g}"
        f"  ({result['failed']} of {result['attempted']} runs failed)"
    )
    absent = [name for name in PER_LAYER if result["per_layer"] and name not in result["per_layer"]]
    if absent:
        print(f"{workload}: absent metrics: {', '.join(absent)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="also write the full result to this file")
    args = parser.parse_args(argv)

    if not (SRC / "citom" / "__init__.py").is_file():
        print(f"error: no citom sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    stamp = context(args.seed)
    print("context: " + json.dumps(stamp, sort_keys=True))
    results = {}
    for name in names:
        results[name] = report(
            name, run_workload(name, args.seed, args.seconds, bool(args.trace)), bool(args.trace)
        )
        print_table(name, results[name])

    section = "per_layer" if args.trace else "end_to_end"
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, summary in result[section].items():
            metrics[prefix + metric] = {"value": summary["median"], "unit": units[metric]}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(
            json.dumps({"context": stamp, "seconds": args.seconds, "workloads": results},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
