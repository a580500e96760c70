"""Plug-in estimator tests against hand-enumerated and analytic oracles."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traced_peak import traced_peak

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
from citom.io import SeriesFile, parse_series_csv, series_csv_text
from citom.scenarios import (
    MatchingPenniesConfig,
    TriadicConfig,
    run_matching_pennies,
    run_triadic,
)


def _series(values: list[int], alphabet: int) -> SymbolSeries:
    return SymbolSeries(np.array(values), alphabet)


# Ways a caller can still write an array after handing it over: as its
# owner, through the writable base of a read-only view, or through the
# mutable buffer under a read-only array.
HANDED_OVER = ("owner", "view", "buffer")


def _handed_over(values: list, dtype, how: str):
    """An array of ``values`` handed over ``how``, and a function that
    overwrites it with 5s."""
    if how == "buffer":
        buffer = bytearray(np.array(values, dtype=dtype).tobytes())
        array = np.frombuffer(buffer, dtype=dtype)
        array.setflags(write=False)
        fives = np.full(array.size, 5, dtype=dtype).tobytes()
        return array.reshape(np.shape(values)), lambda: buffer.__setitem__(slice(None), fives)
    owner = np.array(values, dtype=dtype)
    if how == "owner":
        return owner, lambda: owner.fill(5)
    view = owner[...]
    view.setflags(write=False)
    return view, lambda: owner.fill(5)


class TestSymbolSeries:
    def test_validates_alphabet_bounds(self) -> None:
        with pytest.raises(ValueError):
            _series([0, 2], 2)
        with pytest.raises(ValueError):
            _series([-1, 0], 2)
        with pytest.raises(ValueError):
            SymbolSeries(np.array([]), 2)
        with pytest.raises(ValueError):
            _series([0], 0)

    def test_rejects_fractional_symbols(self) -> None:
        with pytest.raises(ValueError, match=r"^symbols must be integers, got 1\.7$"):
            SymbolSeries(np.array([0.0, 1.7, 1.2]), 2)
        with pytest.raises(ValueError, match=r"^symbols must be integers, got nan$"):
            SymbolSeries(np.array([np.nan, 1.0]), 2)
        series = SymbolSeries(np.array([0.0, 1.0, 1.0]), 2)
        assert series.symbols.dtype == np.uint8
        assert series.symbols.tolist() == [0, 1, 1]

    def test_rejects_2d_input(self) -> None:
        with pytest.raises(ValueError):
            SymbolSeries(np.zeros((2, 2), dtype=int), 2)

    def test_length(self) -> None:
        assert len(_series([0, 1, 0], 2)) == 3

    @pytest.mark.parametrize("how", HANDED_OVER)
    def test_copies_an_array_the_caller_can_still_write(self, how: str) -> None:
        symbols, overwrite = _handed_over([0, 1, 0, 1, 0, 1], np.uint8, how)
        series = SymbolSeries(symbols, 2)
        joint = JointSeries((series, series))
        value, report = tdmi(series, 1), excess_tdmi(joint, 1)  # keeps the joint codes
        overwrite()
        assert symbols.tolist() == [5] * 6
        assert not series.symbols.flags.writeable
        assert series.symbols.tolist() == [0, 1, 0, 1, 0, 1]
        assert tdmi(series, 1) == value > 0.0
        assert excess_tdmi(joint, 1) == report == excess_tdmi(JointSeries((series, series)), 1)

    def test_keeps_an_array_no_one_can_write(self) -> None:
        owned = np.array([0, 1, 1], dtype=np.uint8)
        owned.setflags(write=False)
        from_bytes = np.frombuffer(owned.tobytes(), dtype=np.uint8)
        for symbols in (owned, owned[1:], from_bytes):
            assert np.shares_memory(SymbolSeries(symbols, 2).symbols, symbols)

    @pytest.mark.parametrize(
        ("alphabet", "dtype"),
        [
            (1, np.uint8),
            (2, np.uint8),
            (256, np.uint8),
            (257, np.uint16),
            (65_536, np.uint16),
            (65_537, np.uint32),
            (2**32 + 1, np.uint64),
        ],
    )
    def test_stores_the_narrowest_unsigned_type(self, alphabet: int, dtype) -> None:
        series = SymbolSeries(np.array([alphabet - 1, 0, alphabet - 1]), alphabet)
        assert series.symbols.dtype == dtype
        assert series.symbols.tolist() == [alphabet - 1, 0, alphabet - 1]


class TestJointSeries:
    def test_mixed_radix_encoding_component_zero_most_significant(self) -> None:
        joint = JointSeries((_series([0, 1], 2), _series([1, 0], 3)))
        encoded = joint.encode()
        assert encoded.symbols.tolist() == [0 * 3 + 1, 1 * 3 + 0]
        assert encoded.alphabet_size == 6

    @pytest.mark.parametrize(
        "alphabets",
        [
            (1,),
            (2,),
            (256,),
            (1, 256),
            (16, 16),
            (257,),
            (2, 128, 1, 2),
            (65_536,),
            (1, 256, 256),
            (65_537,),
            (1, 2**16, 2**16),
            (1, 2**32),
            (2**32 + 1,),
            (3, 5, 7, 11, 13),
        ],
        ids=str,
    )
    def test_encodes_in_the_joint_alphabets_narrowest_type(self, alphabets: tuple) -> None:
        rng = np.random.default_rng(len(alphabets))
        columns = [np.concatenate(([k - 1, 0], rng.integers(0, k, 30))) for k in alphabets]
        joint = JointSeries(tuple(SymbolSeries(c, k) for c, k in zip(columns, alphabets)))
        expected = np.zeros(32, dtype=np.int64)
        for column, k in zip(columns, alphabets):
            expected = expected * k + column
        encoded = joint.encode()
        assert encoded.symbols.dtype == np.min_scalar_type(math.prod(alphabets) - 1)
        assert encoded.symbols.tolist() == expected.tolist()

    def test_rejects_mismatched_lengths(self) -> None:
        with pytest.raises(ValueError):
            JointSeries((_series([0, 1], 2), _series([0], 2)))

    def test_encodes_once_per_series(self) -> None:
        rng = np.random.default_rng(11)
        parts = tuple(SymbolSeries(rng.integers(0, 3, 300), 3) for _ in range(4))
        joint = JointSeries(parts)
        assert joint.encode() is joint.encode()
        reports = [excess_tdmi(joint, tau) for tau in (1, 2, 3)]
        assert reports == [excess_tdmi(JointSeries(parts), tau) for tau in (1, 2, 3)]
        # A failed encoding keeps nothing: every call raises again.
        too_large = JointSeries((_series([0, 1], 2**32), _series([1, 0], 2**31)))
        for _ in range(2):
            with pytest.raises(ValueError, match="too large to encode"):
                too_large.encode()

    def test_rejects_empty(self) -> None:
        with pytest.raises(ValueError):
            JointSeries(())


class TestBuildLagPairs:
    def test_constant_series_single_cell(self) -> None:
        dist = build_lag_pairs(_series([0, 0, 0, 0], 2), 1)
        assert dist.probabilities[0, 0] == 1.0
        assert dist.sample_count == 3

    def test_alternating_series_two_balanced_cells(self) -> None:
        # Length 7 gives six pairs, three of each kind, so the two
        # off-diagonal cells carry exactly half the mass each.
        dist = build_lag_pairs(_series([0, 1, 0, 1, 0, 1, 0], 2), 1)
        assert dist.probabilities[0, 1] == 0.5
        assert dist.probabilities[1, 0] == 0.5
        assert dist.probabilities[0, 0] == 0.0
        assert dist.probabilities[1, 1] == 0.0

    def test_hand_enumerated_pairs_at_lag_two(self) -> None:
        # Series 0,1,1,0,2 at lag 2 pairs (present, lagged):
        # (1,0), (0,1), (2,1) each once.
        dist = build_lag_pairs(_series([0, 1, 1, 0, 2], 3), 2)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[0, 1] = expected[2, 1] = 1 / 3
        np.testing.assert_allclose(dist.probabilities, expected, atol=0)
        assert dist.sample_count == 3

    def test_uses_exactly_length_minus_tau_pairs(self) -> None:
        dist = build_lag_pairs(_series([0, 1, 1, 1, 0, 1], 2), 2)
        assert dist.sample_count == 4

    def test_invalid_lag_errors(self) -> None:
        series = _series([0, 1, 0], 2)
        with pytest.raises(ValueError):
            build_lag_pairs(series, 0)
        with pytest.raises(ValueError):
            build_lag_pairs(series, 3)

    def test_joint_input_uses_product_alphabet(self) -> None:
        joint = JointSeries((_series([0, 1, 0], 2), _series([1, 0, 1], 2)))
        dist = build_lag_pairs(joint, 1)
        assert dist.probabilities.shape == (4, 4)


class TestLagPairDistribution:
    def test_from_counts_normalises(self) -> None:
        dist = LagPairDistribution.from_counts(np.array([[3, 1], [0, 4]]), 1)
        assert float(dist.probabilities.sum()) == pytest.approx(1.0, abs=0)
        assert dist.sample_count == 8
        assert dist.probabilities.tolist() == [[0.375, 0.125], [0.0, 0.5]]

    def test_rejects_bad_inputs(self) -> None:
        with pytest.raises(ValueError):
            LagPairDistribution.from_counts(np.array([[0, 0], [0, 0]]), 1)
        with pytest.raises(ValueError):
            LagPairDistribution.from_counts(np.array([[1, -1], [0, 2]]), 1)
        with pytest.raises(ValueError):
            LagPairDistribution.from_probabilities(np.array([[0.5, 0.5]]), 1)
        with pytest.raises(ValueError):
            LagPairDistribution.from_probabilities(
                np.array([[0.6, 0.0], [0.0, 0.6]]), 1
            )
        with pytest.raises(ValueError):
            LagPairDistribution(np.eye(2) / 2, 0)

    @pytest.mark.parametrize(
        ("counts", "message"),
        [
            # Fractions that sum to less than 1 were once truncated to no observation.
            ([[0.4, 0.4], [0.1, 0.05]], r"^counts must be integers, got 0\.4$"),
            ([[3.0, 1.5], [0.0, 4.0]], r"^counts must be integers, got 1\.5$"),
            ([[1.0, np.nan], [0.0, 2.0]], r"^counts must be integers, got nan$"),
            ([[1.0, 0.0], [np.inf, 2.0]], r"^counts must be integers, got inf$"),
            (np.zeros((0, 0)), r"^counts must be non-empty$"),
            ([[0, 0], [0, 0]], r"^counts must contain at least one observation$"),
            ([[1, -1], [0, 2]], r"^counts must be non-negative$"),
            ([1, 2, 3], r"^counts must be square, got shape \(3,\)$"),
            ([[1, 2, 3], [4, 5, 6]], r"^counts must be square, got shape \(2, 3\)$"),
            ([[[1]]], r"^counts must be square, got shape \(1, 1, 1\)$"),
        ],
        ids=["fractions", "half", "nan", "inf", "empty", "zeros", "negative",
             "vector", "wide", "cube"],
    )
    def test_from_counts_names_bad_counts(self, counts, message: str) -> None:
        with pytest.raises(ValueError, match=message):
            LagPairDistribution.from_counts(np.asarray(counts), 1)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.uint8, np.int32])
    def test_from_counts_divides_in_float64(self, dtype) -> None:
        # Sevenths are not exact in any float type, so a narrow quotient shows.
        got = LagPairDistribution.from_counts(np.array([[3, 1], [0, 3]], dtype=dtype), 1)
        want = np.array([[3, 1], [0, 3]]) / 7
        assert got.probabilities.tobytes() == want.tobytes()
        assert got.sample_count == 7

    @pytest.mark.parametrize("how", HANDED_OVER)
    def test_copies_an_array_the_caller_can_still_write(self, how: str) -> None:
        probabilities, overwrite = _handed_over([[0.5, 0.0], [0.0, 0.5]], np.float64, how)
        dist = LagPairDistribution(probabilities, 1)
        overwrite()
        assert probabilities.tolist() == [[5.0, 5.0], [5.0, 5.0]]
        assert not dist.probabilities.flags.writeable
        assert dist.probabilities.tolist() == [[0.5, 0.0], [0.0, 0.5]]
        assert mutual_information(dist) == 1.0

    def test_keeps_an_array_no_one_can_write(self) -> None:
        probabilities = np.eye(2) / 2
        probabilities.setflags(write=False)
        dist = LagPairDistribution(probabilities, 1)
        assert np.shares_memory(dist.probabilities, probabilities)
        table = build_lag_pairs(_series([0, 1, 0, 1, 1], 2), 1).probabilities
        assert np.shares_memory(LagPairDistribution(table, 1).probabilities, table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probabilities(self, bad: float) -> None:
        with pytest.raises(ValueError, match="finite"):
            LagPairDistribution.from_probabilities(np.array([[bad, 0.5], [0.25, 0.25]]), 1)

    @pytest.mark.parametrize(
        ("table", "message"),
        [
            ([[np.nan, 0.5], [0.25, 0.25]], "probabilities must be finite"),
            ([[-0.25, 0.75], [0.25, 0.25]], "probabilities must be non-negative"),
            ([[0.5, 0.1], [0.25, 0.25]], "probabilities must sum to 1, got 1.1"),
            (np.zeros((0, 0)), "probabilities must be non-empty"),
        ],
    )
    def test_messages(self, table: list[list[float]] | np.ndarray, message: str) -> None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LagPairDistribution.from_probabilities(np.array(table), 1)


class TestMutualInformation:
    def test_uniform_bijection_two_symbols_exactly_one_bit(self) -> None:
        dist = LagPairDistribution.from_probabilities(np.eye(2) / 2, 1)
        assert mutual_information(dist) == 1.0

    def test_uniform_bijection_four_symbols_exactly_two_bits(self) -> None:
        dist = LagPairDistribution.from_probabilities(np.eye(4) / 4, 1)
        assert mutual_information(dist) == 2.0

    def test_independent_product_is_zero(self) -> None:
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        dist = LagPairDistribution.from_probabilities(p, 1)
        assert mutual_information(dist) == pytest.approx(0.0, abs=1e-15)

    def test_matches_entropy_sum_oracle(self) -> None:
        # Independent route: I = H(present) + H(lagged) - H(pair).
        p = np.array([[0.4, 0.1], [0.2, 0.3]])
        dist = LagPairDistribution.from_probabilities(p, 1)
        h_present = -sum(v * math.log2(v) for v in p.sum(axis=1))
        h_lagged = -sum(v * math.log2(v) for v in p.sum(axis=0))
        h_pair = -sum(v * math.log2(v) for v in p.ravel())
        assert mutual_information(dist) == pytest.approx(
            h_present + h_lagged - h_pair, abs=1e-15
        )

    def test_independent_of_memory_layout(self) -> None:
        rng = np.random.default_rng(0)
        for k in (3, 17, 40):
            table = rng.random((k, k)) * (rng.random((k, k)) < 0.5)
            table /= table.sum()
            c_order = LagPairDistribution.from_probabilities(table, 1)
            f_order = LagPairDistribution.from_probabilities(np.asfortranarray(table), 1)
            assert mutual_information(f_order) == mutual_information(c_order)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=40), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ).filter(lambda rows: sum(map(sum, rows)) > 0)
    )
    def test_nonnegative_and_symmetric(self, rows: list[list[int]]) -> None:
        counts = np.array(rows)
        forward = mutual_information(LagPairDistribution.from_counts(counts, 1))
        backward = mutual_information(LagPairDistribution.from_counts(counts.T, 1))
        assert forward >= 0.0
        assert forward == pytest.approx(backward, abs=1e-12)


class TestTdmi:
    def test_alternating_lag_one_exactly_one_bit(self) -> None:
        values = [t % 2 for t in range(101)]
        assert tdmi(_series(values, 2), 1) == 1.0

    def test_alternating_lag_two_exactly_one_bit(self) -> None:
        values = [t % 2 for t in range(100)]
        assert tdmi(_series(values, 2), 2) == 1.0

    def test_iid_uniform_binary_near_zero(self) -> None:
        rng = np.random.default_rng(7)
        series = SymbolSeries(rng.integers(0, 2, size=100_000), 2)
        assert tdmi(series, 1) <= 0.001

    def test_invalid_lag_errors(self) -> None:
        series = _series([0, 1, 0], 2)
        with pytest.raises(ValueError, match="tau must satisfy 1 <= tau < 3, got 0"):
            tdmi(series, 0)
        with pytest.raises(ValueError, match="tau must satisfy 1 <= tau < 3, got 3"):
            tdmi(series, 3)


class TestExcessTdmi:
    def test_report_identity_exact(self) -> None:
        report = MeasureReport(tau=2, joint_tdmi=0.75, per_agent_tdmi=(0.25, 0.125))
        assert report.excess == 0.75 - (0.25 + 0.125)

    def test_single_component_excess_exactly_zero(self) -> None:
        # The joint series of one agent is a relabeling of that agent's
        # own series, so both TDMI computations traverse the same cells
        # in the same order and cancel exactly.
        rng = np.random.default_rng(3)
        component = SymbolSeries(rng.integers(0, 3, size=5_000), 3)
        report = excess_tdmi(JointSeries((component,)), 1)
        assert report.excess == 0.0

    def test_two_independent_iid_series_small_excess(self) -> None:
        rng = np.random.default_rng(11)
        joint = JointSeries(
            (
                SymbolSeries(rng.integers(0, 2, size=100_000), 2),
                SymbolSeries(rng.integers(0, 2, size=100_000), 2),
            )
        )
        report = excess_tdmi(joint, 1)
        assert abs(report.excess) <= 0.002

    def test_lagged_copy_yields_joint_only_information(self) -> None:
        # A lagged copy of an iid driver is invisible marginally (both
        # components are iid) but the joint state always shares one
        # symbol with its past, so the excess approaches one full bit.
        rng = np.random.default_rng(5)
        driver = rng.integers(0, 2, size=20_001)
        lagged_copy = JointSeries(
            (
                SymbolSeries(driver[1:], 2),
                SymbolSeries(driver[:-1], 2),
            )
        )
        report = excess_tdmi(lagged_copy, 1)
        assert report.excess == pytest.approx(1.0, abs=0.02)

    def test_duplicated_component_gives_negative_excess_unclamped(self) -> None:
        # Two identical alternating components: the joint carries one bit
        # but each copy alone carries the same bit, so the per-agent sum
        # double counts and the excess is exactly minus one bit.
        component = _series([t % 2 for t in range(101)], 2)
        report = excess_tdmi(JointSeries((component, component)), 1)
        assert report.excess == -1.0


def _binary_agents(count: int, steps: int, seed: int) -> JointSeries:
    # Noisy copies of one source, so that some joint states recur.
    rng = np.random.default_rng(seed)
    source = rng.integers(0, 2, size=steps)
    return JointSeries(
        tuple(
            SymbolSeries(source ^ (rng.random(steps) < 0.2), 2) for _ in range(count)
        )
    )


def _fsum_tdmi(codes: list[int], tau: int) -> float:
    """Plug-in TDMI from exact rational ratios, summed with ``math.fsum``."""
    present, lagged = codes[tau:], codes[:-tau]
    n = len(present)
    present_counts, lagged_counts = Counter(present), Counter(lagged)
    return math.fsum(
        count / n * math.log2(Fraction(count * n, present_counts[a] * lagged_counts[b]))
        for (a, b), count in Counter(zip(present, lagged)).items()
    )


class TestLargeAlphabets:
    def test_twenty_binary_agents_exact(self) -> None:
        # K = 2**20: the dense table would need 8 TiB.
        joint = _binary_agents(20, 1000, seed=2)
        report = excess_tdmi(joint, 1)
        codes = [
            int("".join(str(int(c.symbols[t])) for c in joint.components), 2)
            for t in range(len(joint))
        ]
        expected_joint = _fsum_tdmi(codes, 1)
        expected_parts = [_fsum_tdmi(c.symbols.tolist(), 1) for c in joint.components]
        assert report.joint_tdmi == pytest.approx(expected_joint, abs=1e-12)
        assert report.excess == pytest.approx(
            expected_joint - math.fsum(expected_parts), abs=1e-12
        )

    def test_forty_binary_agents_rejected(self) -> None:
        # K = 2**40 encodes, but K * K does not fit in int64.
        joint = _binary_agents(40, 100, seed=3)
        with pytest.raises(ValueError, match="too large to count"):
            excess_tdmi(joint, 1)

    def test_sixty_four_binary_agents_rejected(self) -> None:
        # K = 2**64 codes would wrap in int64.
        joint = _binary_agents(64, 100, seed=4)
        with pytest.raises(ValueError, match="too large to encode"):
            joint.encode()
        with pytest.raises(ValueError, match="too large to encode"):
            excess_tdmi(joint, 1)

    def test_large_alphabet_few_steps(self) -> None:
        series = _series([999_999, 0, 999_999, 0, 999_999], 1_000_000)
        assert tdmi(series, 1) == 1.0
        with pytest.raises(ValueError, match="too large to count"):
            tdmi(_series([0, 1, 0], 2**32), 1)


class TestResourceBounds:
    @pytest.mark.parametrize(
        ("agents", "steps", "bound"),
        [
            # One dense 4096 x 4096 float table is 134 MB.
            (12, 50_000, 32 * 2**20),
            # The marginal buffer holds only the rows that occur, not a
            # full chunk of 2**16 cells (512 KiB).
            (3, 10_000, 2**19),
        ],
    )
    def test_peak_memory(self, agents: int, steps: int, bound: int) -> None:
        joint = _binary_agents(agents, steps, seed=6)
        _, peak = traced_peak(excess_tdmi, joint, 1)
        assert peak < bound

    def test_one_lag_peak_memory(self) -> None:
        # One lag at the measure-wide shape peaks at 5.5 MiB with its pair
        # codes sorted in place in one narrow array; int64 pair codes with
        # ``np.unique``'s copies and full-length row-sum temporaries take it
        # to 7.4 MiB.
        joint = _binary_agents(12, 200_000, seed=6)
        joint.encode()
        _, peak = traced_peak(excess_tdmi, joint, 1)
        assert peak < 6.5 * 2**20

    def test_parse_peak_memory(self, tmp_path: Path) -> None:
        # The columns come back as uint8, 2.29 MiB; int64 columns alone would
        # be 18.3 MiB.  The bound is the "\n" peak plus a margin of about
        # 0.4 MiB, for every line end.  With "\n", the peak is the 4.58 MiB of
        # file bytes and the columns filled in place, line feeds found a window
        # at a time: 7.11 MiB (a mask and an index of every line feed, then the
        # blocks joined, took 10.70).  "\r\n" and a lone "\r" are rewritten as
        # "\n" in the bytes read, a window at a time: 7.30 MiB for "\r\n" (a
        # copy with "\n" line ends beside the 4.77 MiB read took 9.35).
        names = tuple(f"a{i + 1}" for i in range(12))
        joint = _binary_agents(len(names), 200_000, seed=7)
        text = b"".join(series_csv_text(SeriesFile(names, joint)))
        path = tmp_path / "series.csv"
        for newline in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(text.replace(b"\n", newline))
            parsed, peak = traced_peak(parse_series_csv, path)
            assert peak < 7.5 * 2**20, newline
            assert {c.symbols.dtype for c in parsed.series.components} == {np.dtype(np.uint8)}
            assert parsed.series.encode().symbols.dtype == np.uint16

    def test_measured_arrays_are_not_copied(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # The parser's columns, the simulations' symbols and every code
        # array reach their series read-only, so none is copied again.
        path = tmp_path / "series.csv"
        names = tuple(f"a{i + 1}" for i in range(5))
        series = SeriesFile(names, _binary_agents(5, 300, seed=1))
        path.write_bytes(b"".join(series_csv_text(series)))
        copied: list[tuple[int, ...]] = []
        frozen = info_measures.frozen

        def spy(array: np.ndarray, dtype) -> np.ndarray:
            result = frozen(array, dtype)
            if array.dtype == dtype and not np.shares_memory(result, array):
                copied.append(array.shape)
            return result

        monkeypatch.setattr(info_measures, "frozen", spy)
        logs = [
            run_triadic(TriadicConfig(mode="b", steps=300, seed=2)),
            run_matching_pennies(MatchingPenniesConfig(algorithm_id=1, steps=300)),
        ]
        for joint in (parse_series_csv(path).series, *(log.joint_series() for log in logs)):
            for tau in (1, 2, 3):
                excess_tdmi(joint, tau)
        assert copied == []

    def test_measuring_loads_no_numpy_ma(self, tmp_path: Path) -> None:
        # Importing numpy.ma costs a CLI process 13-16 ms; neither arena's
        # simulation nor its measures or artifacts should need it.
        src = str(Path(info_measures.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        code = (
            "import sys\n"
            "from citom.cli import main\n"
            "from citom.scenarios import MatchingPenniesConfig, measure_log, run_matching_pennies\n"
            "measure_log(run_matching_pennies(MatchingPenniesConfig(2, steps=2000)))\n"
            "for mode in 'ab':\n"
            "    main(['simulate-triadic', '--mode', mode, '--steps', '2000',\n"
            f"          '--out', {str(tmp_path)!r} + '/' + mode])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "False"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "b"]
