"""The benchmark's three workloads: their inputs, child commands and gate.

Every input derives from the benchmark's ``--seed``; the program only
ever sees the generated files and arguments.  The correctness gate
compares each child's outputs with golden SHA-256 digests when the seed
has them (``golden.json``) and otherwise checks invariants in-process.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
SRC = BENCH_DIR.parent / "src"

TAUS = (1, 2, 3)
TRIAD_STEPS = 100_000
SWEEP_ALGORITHMS = (0, 1, 2)
SWEEP_SEEDS = 8
SWEEP_TRIALS = 10_000
WIDE_ROWS = 200_000
WIDE_AGENTS = 12
WIDE_COPY_PROBABILITY = 0.7

WORKLOADS = ("triad-cli", "pennies-sweep", "measure-wide")

# Series rows one child handles; ``rows_per_s`` divides this by the
# child's post-import time.
ROWS = {
    "triad-cli": TRIAD_STEPS,
    "pennies-sweep": len(SWEEP_ALGORITHMS) * SWEEP_SEEDS * SWEEP_TRIALS,
    "measure-wide": WIDE_ROWS,
}

WIDE_INPUT = "input.csv"
OUT_DIR = "out"


def child_args(workload: str, seed: int) -> list[str]:
    """Arguments after ``child.py``: ``cli <argv...>`` or ``sweep <seed>``.

    Paths are relative to the child's working directory, so the bytes of
    ``measures.json`` (which records ``--input``) do not depend on where
    the checkout lives.
    """
    taus = ",".join(str(tau) for tau in TAUS)
    if workload == "triad-cli":
        return ["cli", "simulate-triadic", "--mode", "b", "--steps", str(TRIAD_STEPS),
                "--delay", "1", "--taus", taus, "--seed", str(seed), "--out", OUT_DIR]
    if workload == "pennies-sweep":
        return ["sweep", str(seed)]
    if workload == "measure-wide":
        return ["cli", "measure", "--input", WIDE_INPUT, "--taus", taus, "--out", OUT_DIR]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files into ``workdir``."""
    if workload == "measure-wide":
        (workdir / WIDE_INPUT).write_bytes(wide_series_bytes(seed))


def wide_series_bytes(seed: int) -> bytes:
    """A series CSV of coupled binary agents on a ring.

    At each step every agent copies its left neighbour's previous state
    with probability ``WIDE_COPY_PROBABILITY`` and otherwise draws a
    fresh fair bit.  Following the copies back in time moves one agent
    left per step, so each diagonal ``(agent - step) mod n`` is a run of
    fresh draws held forward, which lets the whole table be built with
    array operations.
    """
    rng = np.random.default_rng(seed)
    steps, agents = WIDE_ROWS, WIDE_AGENTS
    fresh = rng.integers(0, 2, size=(steps, agents), dtype=np.uint8)
    copy = rng.random((steps, agents)) < WIDE_COPY_PROBABILITY
    copy[0] = False
    series = np.empty_like(fresh)
    rows = np.arange(steps)
    for offset in range(agents):
        cols = (offset + rows) % agents
        source = np.where(copy[rows, cols], 0, rows)
        np.maximum.accumulate(source, out=source)
        series[rows, cols] = fresh[source, (offset + source) % agents]
    # Each row is ``d,d,...,d\n``: digits at even offsets, commas between.
    text = np.full((steps, 2 * agents), ord(","), dtype=np.uint8)
    text[:, 0::2] = series + ord("0")
    text[:, -1] = ord("\n")
    names = ",".join(f"a{i + 1}" for i in range(agents))
    sizes = ",".join("2" for _ in range(agents))
    header = f"# alphabet_size: {sizes}\n{names}\n".encode("ascii")
    return header + text.tobytes()


def sweep_sessions(seed: int) -> list[tuple[str, int, int]]:
    """``(key, algorithm, session seed)`` for every session of the sweep."""
    sessions = []
    for algorithm in SWEEP_ALGORITHMS:
        for index in range(SWEEP_SEEDS):
            session_seed = seed * 1000 + algorithm * 100 + index
            sessions.append((f"a{algorithm}s{index}", algorithm, session_seed))
    return sessions


def run_sweep(seed: int) -> dict[str, dict]:
    """Criterion-2-style sweep through the public library; writes no files.

    Runs in the child.  Returns per session the digests of the ``monkey``
    and ``computer`` arrays, the formatted excess at lag 1 and the raw
    TDMI terms the invariant check needs.
    """
    import citom
    from citom.io import format_float

    sessions = {}
    for key, algorithm, session_seed in sweep_sessions(seed):
        config = citom.MatchingPenniesConfig(
            algorithm_id=algorithm, steps=SWEEP_TRIALS, seed=session_seed, taus=(1,)
        )
        log = citom.run_matching_pennies(config)
        (report,) = citom.measure_log(log, taus=(1,))
        sessions[key] = {
            "monkey": _sha256(np.ascontiguousarray(log.monkey, dtype="<i8").tobytes()),
            "computer": _sha256(np.ascontiguousarray(log.computer, dtype="<i8").tobytes()),
            "excess": format_float(report.excess),
            "joint": report.joint_tdmi,
            "parts": list(report.per_agent_tdmi),
            "excess_value": report.excess,
        }
    return sessions


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every file the program wrote into ``outdir``."""
    return {
        path.name: _sha256(path.read_bytes())
        for path in sorted(outdir.iterdir())
        if path.is_file()
    }


def digests(workload: str, workdir: Path, side: dict) -> dict[str, str]:
    """The digest map the gate compares for one finished child."""
    if workload == "pennies-sweep":
        return {
            f"{key}.{field}": session[field]
            for key, session in side.get("sessions", {}).items()
            for field in ("monkey", "computer", "excess")
        }
    return artifact_digests(workdir / OUT_DIR)


def compare_digests(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Every way ``actual`` differs from ``expected``, one line each."""
    problems = [f"missing {name}" for name in sorted(set(expected) - set(actual))]
    problems += [f"unexpected {name}" for name in sorted(set(actual) - set(expected))]
    problems += [
        f"digest mismatch in {name}"
        for name in sorted(set(expected) & set(actual))
        if expected[name] != actual[name]
    ]
    return problems


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_digests(workload: str, seed: int) -> dict[str, str] | None:
    return load_golden().get(workload, {}).get(str(seed))


def _excess_matches_terms(joint: float, parts: list[float], excess: float) -> bool:
    total = 0.0
    for part in parts:
        total += part
    return excess == joint - total


def check_invariants(workload: str, workdir: Path, side: dict) -> list[str]:
    """Seed-independent checks on one child's outputs, for seeds without
    golden digests.

    Every reported excess must equal joint minus the per-agent sum, and
    the CLI's ``measures.json`` must equal an in-process ``excess_tdmi``
    on the series file it measured (``series.csv`` for the triad).
    """
    problems = []
    if workload == "pennies-sweep":
        sessions = side.get("sessions", {})
        if len(sessions) != len(sweep_sessions(0)):
            problems.append(f"{len(sessions)} sessions reported")
        for key, session in sessions.items():
            if not _excess_matches_terms(session["joint"], session["parts"], session["excess_value"]):
                problems.append(f"{key}: excess != joint - sum(per-agent)")
        return problems

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import citom

    payload = json.loads((workdir / OUT_DIR / "measures.json").read_text(encoding="utf-8"))
    measured = {}
    for entry in payload["measures"]:
        parts = [entry["per_agent_tdmi"][name] for name in payload["agents"]]
        if not _excess_matches_terms(entry["joint_tdmi"], parts, entry["excess"]):
            problems.append(f"tau {entry['tau']}: excess != joint - sum(per-agent)")
        measured[entry["tau"]] = (entry["joint_tdmi"], parts, entry["excess"])
    source = workdir / (WIDE_INPUT if workload == "measure-wide" else f"{OUT_DIR}/series.csv")
    series = citom.parse_series_csv(source).series
    for tau in TAUS:
        report = citom.excess_tdmi(series, tau)
        expected = (report.joint_tdmi, list(report.per_agent_tdmi), report.excess)
        if measured.get(tau) != expected:
            problems.append(f"tau {tau}: measures.json differs from in-process excess_tdmi")
    return problems
