"""Occupied-cell TDMI against the dense reference estimator.

``info_reference`` holds the dense ``K x K`` lag-pair table and the MI
taken over it.  ``tdmi`` and ``excess_tdmi`` count occupied cells only,
through either counting branch, and sum each row marginal over its
occupied lane slots, any number of rows a chunk, as numpy's pairwise
summation of the dense row would.  They must still return the
reference's floats bit for bit (``==``): ``measures.json`` writes them
with ``repr``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import info_reference as reference
from citom import info_measures
from citom.info_measures import (
    JointSeries,
    LagPairDistribution,
    MeasureReport,
    SymbolSeries,
    build_lag_pairs,
    excess_tdmi,
    mutual_information,
    tdmi,
)

# Lane slots per chunk of the row sums: one slot (one row per chunk),
# sizes that leave partial chunks, and the default.
CHUNKS = st.sampled_from([1, 7, 64, info_measures._CHUNK_CELLS])

SHAPES = ("uniform", "zipf", "few")


def symbols(shape: str, alphabet: int, length: int, seed: int) -> np.ndarray:
    """A series drawn so that, except when uniform, most symbols never occur."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        return rng.integers(0, alphabet, size=length)
    if shape == "zipf":
        return (rng.zipf(1.4, size=length) - 1) % alphabet
    palette = rng.integers(0, alphabet, size=int(rng.integers(1, 4)))
    return rng.choice(palette, size=length)


@st.composite
def series_and_lag(draw, max_alphabet: int = 3000) -> tuple[SymbolSeries, int]:
    alphabet = draw(st.one_of(st.integers(1, 40), st.integers(41, max_alphabet)))
    length = draw(st.integers(2, 2500))
    shape = draw(st.sampled_from(SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    tau = draw(st.integers(1, length - 1))
    return SymbolSeries(symbols(shape, alphabet, length, seed), alphabet), tau


@st.composite
def joint_and_lag(draw) -> tuple[JointSeries, int]:
    length = draw(st.integers(2, 1500))
    components = []
    joint_alphabet = 1
    for _ in range(draw(st.integers(1, 4))):
        alphabet = draw(st.integers(1, max(1, min(12, 3000 // joint_alphabet))))
        joint_alphabet *= alphabet
        shape = draw(st.sampled_from(SHAPES))
        seed = draw(st.integers(0, 2**32 - 1))
        components.append(SymbolSeries(symbols(shape, alphabet, length, seed), alphabet))
    tau = draw(st.integers(1, length - 1))
    return JointSeries(tuple(components)), tau


class TestTdmi:
    @settings(max_examples=120, deadline=None)
    @given(case=series_and_lag(), chunk=CHUNKS)
    def test_matches_reference(self, case: tuple[SymbolSeries, int], chunk: int) -> None:
        series, tau = case
        expected = reference.tdmi(series, tau)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(info_measures, "_CHUNK_CELLS", chunk)
            assert tdmi(series, tau) == expected

    @pytest.mark.parametrize(
        ("alphabet", "length", "branch"),
        [(2, 1000, "bincount"), (31, 1000, "bincount"), (32, 1000, "sort"), (2900, 3000, "sort")],
    )
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunk", [1, 7, 64, info_measures._CHUNK_CELLS])
    def test_both_counting_branches(
        self, alphabet: int, length: int, branch: str, shape: str, chunk: int,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        # ``bincount`` counts when the table has no more cells than there
        # are pairs; the pair codes are sorted otherwise.
        tau = 1
        assert (alphabet * alphabet <= length - tau) == (branch == "bincount")
        monkeypatch.setattr(info_measures, "_CHUNK_CELLS", chunk)
        series = SymbolSeries(symbols(shape, alphabet, length, seed=alphabet), alphabet)
        assert tdmi(series, tau) == reference.tdmi(series, tau)

    @pytest.mark.parametrize("tau", [1, 2, 998, 999])
    def test_every_lag_up_to_length_minus_one(self, tau: int) -> None:
        series = SymbolSeries(symbols("zipf", 50, 1000, seed=tau), 50)
        assert tdmi(series, tau) == reference.tdmi(series, tau)


def counted_cells(values: np.ndarray, tau: int) -> tuple[list[int], list[int], list[int]]:
    """Rows, columns and counts of the occupied (present, lagged) cells in
    row-major order, counted pair by pair with ``Counter``."""
    counts = Counter(zip(values[tau:].tolist(), values[:-tau].tolist()))
    cells = sorted(counts)
    return [r for r, _ in cells], [c for _, c in cells], [counts[cell] for cell in cells]


class TestLagCounts:
    """``_lag_counts`` against a pair-by-pair count, through each pair-code type."""

    @staticmethod
    def check(values: np.ndarray, alphabet: int, tau: int) -> None:
        series = SymbolSeries(values, alphabet)
        k, rows, cols, counts, pairs = info_measures._lag_counts(series, tau)
        assert (k, pairs) == (alphabet, len(values) - tau)
        assert counts.dtype == np.int64 and int(counts.sum()) == pairs
        assert (rows.tolist(), cols.tolist(), counts.tolist()) == counted_cells(values, tau)
        # ``np.bincount`` casts its input to intp "safely": uint64 would fail.
        assert np.can_cast(rows.dtype, np.intp) and np.can_cast(cols.dtype, np.intp)

    @pytest.mark.parametrize(
        ("alphabet", "code_type"),
        [
            (5, np.uint8),
            (16, np.uint8),
            (17, np.uint16),
            (200, np.uint16),
            (3000, np.uint32),
            (65_536, np.uint32),
            (65_537, np.uint64),
            (70_000, np.uint64),
            (10**6, np.uint64),
            # Codes past 2**53, which a float64 sum would round.
            (2**31 + 11, np.uint64),
            (3_037_000_499, np.uint64),  # the largest K with K * K < 2**63
        ],
    )
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_code_type(self, alphabet: int, code_type: type, shape: str) -> None:
        assert np.min_scalar_type(alphabet * alphabet - 1) == code_type
        length = min(20, alphabet * alphabet)  # K * K > T - tau: the sorting branch
        values = symbols(shape, alphabet, length, seed=alphabet)
        values[:3] = [alphabet - 1, 0, alphabet - 1]  # the highest and lowest codes
        for tau in (1, 2, length - 1):
            self.check(values, alphabet, tau)

    @pytest.mark.parametrize("alphabet", [2, 10, 16, 17])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_branch_switch(
        self, alphabet: int, extra: int, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # K * K == T - tau counts a table; one pair fewer sorts the codes.
        tau = 2
        length = alphabet * alphabet + tau - extra
        tables: list[int] = []
        bincount = np.bincount

        def spy(values, weights=None, minlength=0):
            tables.append(minlength)
            return bincount(values, weights, minlength)

        monkeypatch.setattr(np, "bincount", spy)
        values = symbols("uniform", alphabet, length, seed=length)
        self.check(values, alphabet, tau)
        assert (alphabet * alphabet in tables) == (extra == 0)


class TestExcessTdmi:
    @settings(max_examples=80, deadline=None)
    @given(case=joint_and_lag(), chunk=CHUNKS)
    def test_matches_reference(self, case: tuple[JointSeries, int], chunk: int) -> None:
        joint, tau = case
        expected = MeasureReport(
            tau=tau,
            joint_tdmi=reference.tdmi(joint, tau),
            per_agent_tdmi=tuple(reference.tdmi(c, tau) for c in joint.components),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(info_measures, "_CHUNK_CELLS", chunk)
            report = excess_tdmi(joint, tau)
        assert report.joint_tdmi == expected.joint_tdmi
        assert report.per_agent_tdmi == expected.per_agent_tdmi
        assert report.excess == expected.excess


class TestDenseApi:
    @settings(max_examples=60, deadline=None)
    @given(case=series_and_lag(max_alphabet=300))
    def test_build_lag_pairs_matches_reference(self, case: tuple[SymbolSeries, int]) -> None:
        series, tau = case
        got = build_lag_pairs(series, tau)
        want = reference.build_lag_pairs(series, tau)
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert (got.tau, got.sample_count) == (want.tau, want.sample_count)
        assert mutual_information(got) == reference.mutual_information(want)

    @settings(max_examples=80, deadline=None)
    @given(
        alphabet=st.integers(1, 30),
        occupancy=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_from_probabilities_matches_reference(
        self, alphabet: int, occupancy: float, seed: int
    ) -> None:
        rng = np.random.default_rng(seed)
        weights = rng.random((alphabet, alphabet)) * (rng.random((alphabet, alphabet)) < occupancy)
        weights.flat[rng.integers(0, weights.size)] += 1.0
        dist = LagPairDistribution.from_probabilities(weights / weights.sum(), 1)
        assert mutual_information(dist) == reference.mutual_information(dist)


class TestRowSums:
    """Each cell's row sum against the dense row's ``sum(axis=1)``, bit for bit.

    numpy's float64 ``pairwise_sum`` adds fewer than 8 values in order, 8 to
    128 in 8 lanes and then the last ``n % 8`` in order, and halves a longer
    row at a multiple of 8.  The widths sit on each side of those edges, so
    a numpy release that changes the blocking fails here, named by width.
    """

    @pytest.mark.parametrize(
        "width",
        [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 1000, 4096, 5000, 2**16 + 3],
    )
    @pytest.mark.parametrize("chunk", [1, 7, info_measures._CHUNK_CELLS])
    def test_matches_dense_rows(
        self, width: int, chunk: int, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        rng = np.random.default_rng(width)
        dense = np.zeros((7, width))
        for row, occupancy in zip(dense, [1.0, 0.5, 0.1, 3 / width, 1 / width, 0.0, rng.random()]):
            occupied = rng.random(width) < occupancy
            row[occupied] = rng.random(occupied.sum()) * 10.0 ** rng.uniform(-12, 0, occupied.sum())
        dense[5, -1] = 0.25  # a row with only its last column
        rows, cols = np.nonzero(dense)
        monkeypatch.setattr(info_measures, "_CHUNK_CELLS", chunk)
        got = info_measures._present_marginal(width, rows, cols, dense[rows, cols])
        assert got.tobytes() == dense.sum(axis=1)[rows].tobytes()


# Cells per run of agents counted together: every agent alone, small
# runs, the default, under which an agent of 17 symbols or more is alone
# and three binary agents are one run, and runs whose pair codes do not
# fit in one byte.
GROUP_CELLS = st.sampled_from([1, 2**4, 2**6, info_measures._GROUP_CELLS, 2**10, 2**12])


@st.composite
def many_agents_and_lag(draw) -> tuple[JointSeries, int]:
    """1-14 agents of 1-20 symbols, joint alphabet at most 2**16."""
    length = draw(st.integers(2, 400))
    components = []
    joint_alphabet = 1
    for _ in range(draw(st.integers(1, 14))):
        alphabet = draw(st.integers(1, max(1, min(20, 2**16 // joint_alphabet))))
        joint_alphabet *= alphabet
        shape = draw(st.sampled_from(SHAPES))
        seed = draw(st.integers(0, 2**32 - 1))
        components.append(SymbolSeries(symbols(shape, alphabet, length, seed), alphabet))
    tau = draw(st.integers(1, length - 1))
    return JointSeries(tuple(components)), tau


class TestPerAgentGroups:
    """Per-agent TDMIs counted a run of agents at a time against ``tdmi``
    on each component, compared with ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(case=many_agents_and_lag(), cells=GROUP_CELLS)
    def test_matches_tdmi_per_component(self, case: tuple[JointSeries, int], cells: int) -> None:
        joint, tau = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(info_measures, "_GROUP_CELLS", cells)
            report = excess_tdmi(joint, tau)
        assert report.per_agent_tdmi == tuple(tdmi(c, tau) for c in joint.components)

    @pytest.mark.parametrize(
        ("alphabets", "runs"),
        [
            ((2, 2, 2), [3]),  # the triad: one run of every agent
            ((2, 2), [2]),  # matching pennies
            ((2,) * 12, [4, 4, 4]),  # the benchmark's wide series
            ((17, 2, 2), [1, 2]),  # 289 cells: alone
            ((3, 20, 1, 1), [1, 1, 2]),
            ((16, 1, 2), [2, 1]),
            ((5,), [1]),
        ],
    )
    def test_runs_and_every_lag(self, alphabets: tuple[int, ...], runs: list[int]) -> None:
        rng = np.random.default_rng(len(alphabets))
        length = 60
        joint = JointSeries(
            tuple(SymbolSeries(rng.integers(0, k, length), k) for k in alphabets)
        )
        assert [getattr(run, "n_agents", 1) for run in joint._agent_groups()] == runs
        for tau in range(1, length):
            parts = excess_tdmi(joint, tau).per_agent_tdmi
            assert parts == tuple(tdmi(c, tau) for c in joint.components)
            assert parts == tuple(reference.tdmi(c, tau) for c in joint.components)

    def test_codes_built_once_per_series(self, monkeypatch: pytest.MonkeyPatch) -> None:
        built: list[int] = []
        mixed_radix = info_measures._mixed_radix

        def spy(components, dtype) -> np.ndarray:
            built.append(len(components))
            return mixed_radix(components, dtype)

        monkeypatch.setattr(info_measures, "_mixed_radix", spy)
        rng = np.random.default_rng(3)
        joint = JointSeries(tuple(SymbolSeries(rng.integers(0, 2, 500), 2) for _ in range(10)))
        for tau in range(1, 8):
            excess_tdmi(joint, tau)
        groups = joint._agent_groups()
        assert joint._agent_groups() is groups
        codes = [run.encode().symbols for run in groups]
        assert all(not c.flags.writeable and c.dtype == np.uint8 for c in codes)
        # The joint codes, then runs of four, four and two agents.
        assert sorted(built) == [2, 4, 4, 10]
