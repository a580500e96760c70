"""Tests of the benchmark itself: inputs, gate, metric names, manifest.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
The two end-to-end tests run the benchmark for its minimum number of
children on the triad workload and take about 15 s together.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_wide_generator_is_deterministic_per_seed() -> None:
    first = workloads.wide_series_bytes(5)
    assert workloads.wide_series_bytes(5) == first
    assert workloads.wide_series_bytes(6) != first
    lines = first.decode("ascii").splitlines()
    assert lines[0] == "# alphabet_size: " + ",".join(["2"] * workloads.WIDE_AGENTS)
    assert len(lines) == 2 + workloads.WIDE_ROWS
    rows = np.array([line.split(",") for line in lines[2:]], dtype=np.int64)
    assert set(np.unique(rows)) == {0, 1}
    # Copy with probability 0.7, else a fair bit: P(equal to the left
    # neighbour's previous state) = 0.7 + 0.3 / 2.
    copied = rows[1:] == np.roll(rows[:-1], 1, axis=1)
    assert abs(copied.mean() - 0.85) < 0.005


def test_digest_gate_catches_a_one_byte_change(tmp_path: Path) -> None:
    outdir = tmp_path / workloads.OUT_DIR
    outdir.mkdir()
    artifact = outdir / "measures.csv"
    artifact.write_bytes(b"tau,joint_tdmi,excess\n1,0.500000,0.250000\n")
    expected = workloads.digests("triad-cli", tmp_path, {})
    assert workloads.compare_digests(expected, workloads.digests("triad-cli", tmp_path, {})) == []

    data = bytearray(artifact.read_bytes())
    data[-3] ^= 1
    artifact.write_bytes(bytes(data))
    assert workloads.compare_digests(expected, workloads.digests("triad-cli", tmp_path, {})) == [
        "digest mismatch in measures.csv"
    ]
    (outdir / "extra.csv").write_bytes(b"")
    artifact.unlink()
    assert workloads.compare_digests(expected, workloads.digests("triad-cli", tmp_path, {})) == [
        "missing measures.csv",
        "unexpected extra.csv",
    ]


def test_golden_digests_cover_every_workload_for_two_seeds() -> None:
    golden = workloads.load_golden()
    assert sorted(golden) == sorted(workloads.WORKLOADS)
    for by_seed in golden.values():
        assert sorted(by_seed) == ["0", "7"]
    sessions = {key for key, _, _ in workloads.sweep_sessions(0)}
    assert {name.split(".")[0] for name in golden["pennies-sweep"]["0"]} == sessions


def test_import_metrics_count_each_module_once() -> None:
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        30 |         30 |         numpy.f2py",
        "import time:       400 |        430 |       scipy.special._ufuncs",
        "import time:        50 |        480 |     scipy.special",
        "import time:        10 |        790 |   citom",
        "import time:        20 |         20 |   scipy",
    ])
    assert tracing.import_metrics(report) == {
        "import.citom_s": 790e-6,
        "import.numpy_s": 300e-6,
        "import.scipy_s": 500e-6,
    }


def test_layer_metrics_split_self_time() -> None:
    log = tracing.SpanLog("test")
    log._name_id(tracing.ROOT)
    names = ["cli.main", "io.parse", "info_measures.build_lag_pairs"]
    ids = [log._name_id(name) for name in names]
    # root [0, 100], main [10, 90], parse [20, 50], lag pairs [50, 80]
    spans = [(0, -1, 0, 100), (ids[0], 0, 10, 90), (ids[1], 1, 20, 50), (ids[2], 1, 50, 80)]
    for name_id, parent, start, end in spans:
        log.name_col.append(name_id)
        log.parent_col.append(parent)
        log.start_col.append(start * 10**9)
        log.end_col.append(end * 10**9)
    header = {"names": log.names, "counters": {}}
    columns = {
        "name": np.asarray(log.name_col), "parent": np.asarray(log.parent_col),
        "start": np.asarray(log.start_col), "end": np.asarray(log.end_col),
    }
    metrics = tracing.layer_metrics(header, columns)
    assert metrics["cli.main_s"] == 80
    assert metrics["cli.self_s"] == 20
    assert metrics["io.self_s"] == metrics["io.parse_s"] == 30
    assert metrics["info_measures.self_s"] == 30
    assert metrics["trace.unattributed_s"] == 20
    assert metrics["trace.run_s"] == sum(
        metrics[f"{layer}.self_s"] for layer in ("cli", "io", "info_measures")
    ) + metrics["trace.unattributed_s"]


def test_missing_public_name_is_absent_not_fatal() -> None:
    log = tracing.SpanLog("test")
    log._patch("citom.cli", "no_such_writer", lambda fn: fn)
    log._patch("no_such_module", "main", lambda fn: fn)
    assert log.missing == ["citom.cli.no_such_writer", "no_such_module.main"]


def test_manifest_lists_what_the_command_prints() -> None:
    data = manifest()
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == run.PER_LAYER
    assert data["command"] == ["python3", "bench/run.py"]
    assert data["paths"] == ["bench"]


def test_normalise_divides_by_the_reference() -> None:
    child = run.Child(traced=False, metrics={
        "wall_s": 2.0, "setup_measured_s": 0.3, "cpu_s": 1.8, "rows_per_s": 1000.0,
    })
    run.normalise(child, 0.5)
    assert child.metrics["ref_s"] == 0.5
    assert child.metrics["wall_ref"] == 4.0
    assert child.metrics["cpu_ref"] == 3.6
    assert child.metrics["rows_per_ref"] == 500.0
    assert child.metrics["setup_s"] == 0.3 / 0.5 * run.REF_SECONDS


def result_line(trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "triad-cli",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_named_and_listed(trace: int, section: str) -> None:
    result = result_line(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    listed = {m["name"]: m["unit"] for m in manifest()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed


def test_exits_without_result_when_program_is_absent(tmp_path: Path) -> None:
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "triad-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_spans_leave_out_the_counters() -> None:
    log = tracing.SpanLog("test")

    def slow_counter(counters: dict, args: tuple, result) -> None:
        time.sleep(0.05)

    inner = log.wrap("io.write", lambda: None, slow_counter)
    log.run(lambda: [inner() for _ in range(3)])
    header = {"names": log.names, "counters": {}}
    columns = {
        "name": np.asarray(log.name_col), "parent": np.asarray(log.parent_col),
        "start": np.asarray(log.start_col), "end": np.asarray(log.end_col),
    }
    metrics = tracing.layer_metrics(header, columns)
    assert log.paused_ns[0] >= 0.15e9
    assert metrics["trace.run_s"] < 0.05
