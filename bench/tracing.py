"""Spans around the calls into each citom layer, recorded from outside.

The traced child wraps public functions and methods by name (see
``SPANS``), keeps one span per call in memory and writes them out after
the workload returns, into the child's working directory and never into
``--out``.  A name that no longer exists is reported as absent rather
than failing the run, so moving a function does not break the
benchmark; it only drops that metric.

The parent turns the spans into per-layer metrics (``layer_metrics``):
inclusive time per span name, self time per layer, and the counters
recorded at the same boundaries.  ``import_metrics`` reads the child's
``python -X importtime`` report.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "scenarios", "agents", "info_measures", "io")
ROOT = "trace.run"


def _count_steps(counters: dict, args: tuple, result) -> None:
    counters["scenarios.steps"] += len(result)


def _count_table(counters: dict, args: tuple, result) -> None:
    table = result.probabilities
    counters["info_measures.pairs"] += int(result.sample_count)
    counters["info_measures.cells_allocated"] += int(table.size)
    counters["info_measures.cells_occupied"] += int(np.count_nonzero(table))
    counters["info_measures.table_bytes"] += int(table.nbytes)


def _count_written(counters: dict, args: tuple, result) -> None:
    counters["io.bytes_written"] += os.path.getsize(args[0])


def _count_read(counters: dict, args: tuple, result) -> None:
    counters["io.bytes_read"] += os.path.getsize(args[0])


def _count_response(counters: dict, args: tuple, result) -> None:
    counters["agents.response_calls"] += 1
    counters["agents.rejections"] += result != 0.5


# (span name, module, attribute path, counter).  Several entries may
# share a span name; the metric sums them.
SPANS = (
    ("cli.main", "citom.cli", "main", None),
    ("scenarios.run_triadic", "citom.scenarios", "run_triadic", _count_steps),
    ("scenarios.run_matching_pennies", "citom.scenarios", "run_matching_pennies", _count_steps),
    ("scenarios.measure_log", "citom.scenarios", "measure_log", None),
    ("agents.predictor", "citom.agents", "MatchingPenniesPredictor.choose", None),
    ("agents.predictor", "citom.agents", "MatchingPenniesPredictor.observe", None),
    ("agents.learner", "citom.agents", "DeltaRuleLearner.choose", None),
    ("agents.learner", "citom.agents", "DeltaRuleLearner.update", None),
    ("info_measures.encode", "citom.info_measures", "JointSeries.encode", None),
    ("info_measures.build_lag_pairs", "citom.info_measures", "build_lag_pairs", _count_table),
    ("info_measures.mutual_information", "citom.info_measures", "mutual_information", None),
    ("io.episode_csv", "citom.cli", "triadic_episode_csv_text", None),
    ("io.episode_csv", "citom.cli", "matching_pennies_episode_csv_text", None),
    ("io.series_csv", "citom.cli", "series_csv_text", None),
    ("io.measures", "citom.cli", "measures_csv_text", None),
    ("io.measures", "citom.cli", "measures_json_payload", None),
    ("io.measures", "citom.cli", "dump_json_text", None),
    ("io.write", "citom.cli", "atomic_write_text", _count_written),
    ("io.parse", "citom.cli", "parse_series_csv", _count_read),
)

# Counted but not timed: called once per trial, inside a predictor span.
COUNTED = (
    ("agents.response", "citom.agents",
     "MatchingPenniesPredictor.response_probability", _count_response),
)

COUNTER_NAMES = {
    _count_steps: ("scenarios.steps",),
    _count_table: ("info_measures.pairs", "info_measures.cells_allocated",
                   "info_measures.cells_occupied", "info_measures.table_bytes"),
    _count_written: ("io.bytes_written",),
    _count_read: ("io.bytes_read",),
    _count_response: ("agents.response_calls", "agents.rejections"),
}


class SpanLog:
    """Spans of one child run, held in flat columns until ``dump``.

    Each span has a name, a start and an end (``perf_counter_ns``) and
    the index of the span that was open when it started; every span of
    the run shares ``run_id``.  Span times leave out the benchmark's own
    counters (``np.count_nonzero`` over every lag-pair table, for one):
    their running time is added to ``paused_ns`` and taken off every
    later clock reading, so no span, the root included, holds it.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.paused_ns = [0]
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self._name_id(name)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        opened, counters, clock = self._open, self.counters, time.perf_counter_ns
        paused = self.paused_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(opened[-1])
            ends.append(0)
            opened.append(index)
            starts.append(clock() - paused[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock() - paused[0]
                opened.pop()
            if counter is not None:
                began = clock()
                counter(counters, args, result)
                paused[0] += clock() - began
            return result

        return traced

    def count(self, fn, counter):
        """``fn`` with only ``counter`` applied to every call."""
        counters, clock, paused = self.counters, time.perf_counter_ns, self.paused_ns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            began = clock()
            counter(counters, args, result)
            paused[0] += clock() - began
            return result

        return counted

    def install(self) -> None:
        """Wrap every name in ``SPANS`` and ``COUNTED`` that resolves."""
        for name, module, path, counter in SPANS:
            patched = self._patch(module, path, lambda fn, n=name, c=counter: self.wrap(n, fn, c))
            if patched and counter is not None:
                for key in COUNTER_NAMES[counter]:
                    self.counters.setdefault(key, 0)
        for name, module, path, counter in COUNTED:
            if self._patch(module, path, lambda fn, c=counter: self.count(fn, c)):
                for key in COUNTER_NAMES[counter]:
                    self.counters.setdefault(key, 0)

    def _patch(self, module_name: str, path: str, make) -> bool:
        """Replace ``module_name.path`` by ``make(original)``; False if absent."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{path}")
            return False
        wrapped = make(original)
        if outer:
            setattr(owner, attr, wrapped)
            return True
        # A function is also bound under its name in every module that
        # imported it, so replace each of those references.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name == "citom" or loaded_name.startswith("citom."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
        return True

    def run(self, body):
        """Call ``body`` inside the root span and return its result."""
        return self.wrap(ROOT, body)()

    def dump(self, directory: Path) -> None:
        """Write ``spans.json`` (names, counters) and ``spans.bin`` (columns)."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "count": len(self.start_col),
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(directory / "spans.bin", "wb") as handle:
            for column in (self.name_col, self.parent_col, self.start_col, self.end_col):
                column.tofile(handle)
        (directory / "spans.json").write_text(json.dumps(header), encoding="utf-8")


def load_spans(directory: Path) -> tuple[dict, dict[str, np.ndarray]]:
    header = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
    n = header["count"]
    raw = (directory / "spans.bin").read_bytes()
    name = np.frombuffer(raw, dtype=np.int32, count=n, offset=0)
    parent = np.frombuffer(raw, dtype=np.int32, count=n, offset=4 * n)
    start = np.frombuffer(raw, dtype=np.int64, count=n, offset=8 * n)
    end = np.frombuffer(raw, dtype=np.int64, count=n, offset=16 * n)
    return header, {"name": name, "parent": parent, "start": start, "end": end}


def layer_metrics(header: dict, columns: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer metrics of one traced child.

    ``<span>_s`` is the inclusive time of every call under that span
    name; ``<layer>.self_s`` is the time spent in the layer's own spans
    minus the part their child spans cover, so the ``self_s`` figures
    and ``trace.unattributed_s`` add up to ``trace.run_s``.
    """
    names = header["names"]
    duration = (columns["end"] - columns["start"]).astype(np.float64) / 1e9
    parent = columns["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    own = duration - covered
    by_name = np.bincount(columns["name"], weights=duration, minlength=len(names))
    own_by_name = np.bincount(columns["name"], weights=own, minlength=len(names))

    metrics: dict[str, float] = {}
    for index, name in enumerate(names):
        if name == ROOT:
            metrics["trace.run_s"] = float(by_name[index])
            metrics["trace.unattributed_s"] = float(own_by_name[index])
        else:
            metrics[f"{name}_s"] = float(by_name[index])
    for layer in LAYERS:
        layer_names = [i for i, name in enumerate(names) if name.startswith(f"{layer}.")]
        if layer_names:
            metrics[f"{layer}.self_s"] = float(sum(own_by_name[i] for i in layer_names))
    metrics["trace.spans"] = float(len(duration))

    counters = dict(header["counters"])
    rejections = counters.pop("agents.rejections", None)
    for key, value in counters.items():
        metrics[key] = float(value)
    if rejections is not None:
        calls = counters["agents.response_calls"]
        metrics["agents.rejection_share"] = rejections / calls if calls else 0.0
    if "info_measures.cells_allocated" in counters:
        allocated = counters["info_measures.cells_allocated"]
        occupied = counters["info_measures.cells_occupied"]
        metrics["info_measures.occupied_share"] = occupied / allocated if allocated else 0.0
    return metrics


IMPORT_PACKAGES = ("citom", "numpy", "scipy")
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def import_metrics(stderr: str) -> dict[str, float]:
    """``import.<package>_s`` from a ``python -X importtime`` report.

    Sums the cumulative time of each module of the package that no
    numpy, scipy or same-package module imported, so a package imported
    in pieces (``scipy.special`` before ``scipy``) is counted once and
    numpy modules that scipy pulls in (``numpy.f2py``) count as scipy's.
    The numpy and scipy figures are thus disjoint; ``citom``'s includes
    both.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            depth = (len(match.group(3)) - 1) // 2
            entries.append((depth, match.group(4), int(match.group(2))))

    def package_of(module: str) -> str | None:
        top = module.split(".")[0]
        return top if top in IMPORT_PACKAGES else None

    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    ancestors: list[tuple[int, str | None]] = []
    # The report lists a module after everything it imported, so in
    # reverse every module comes before the modules it imported.
    for depth, module, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = package_of(module)
        above = {owner for _, owner in ancestors}
        if package is not None and not above & {package, "numpy", "scipy"}:
            totals[package] += cumulative_us
        ancestors.append((depth, package))
    return {f"import.{package}_s": total / 1e6 for package, total in totals.items()}
