"""Episode-level tests: triad mechanics, pennies mechanics, measurement.

Mode "b" of the triad has fully deterministic internal couplings given
the signal, so most invariants here are exact array identities; only the
information-theoretic summaries use statistical tolerances.
"""

from __future__ import annotations

import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triad_reference as reference
from traced_peak import traced_peak
from citom import agents, scenarios
from citom.game_core import COOPERATE, DEFECT, triadic_utilities
from citom.scenarios import (
    MatchingPenniesConfig,
    TriadicConfig,
    measure_log,
    run_matching_pennies,
    run_triadic,
)


def declared_default(owner, name: str):
    """The default of a dataclass's field or a callable's parameter ``name``."""
    if dataclasses.is_dataclass(owner):
        return next(f.default for f in dataclasses.fields(owner) if f.name == name)
    return inspect.signature(owner).parameters[name].default


class TestConfigs:
    @pytest.mark.parametrize(
        "owner, config, name",
        [
            (agents.MatchingPenniesPredictor, MatchingPenniesConfig, "significance_level"),
            (agents.DeltaRuleLearner, MatchingPenniesConfig, "learning_rate"),
            (agents.DeltaRuleLearner, MatchingPenniesConfig, "inverse_temperature"),
        ],
        ids=lambda value: getattr(value, "__qualname__", value),
    )
    def test_library_default_is_the_config_default(self, owner, config, name: str) -> None:
        # Each model default is declared by the library and again by a
        # config; a run from the config and a direct library call agree.
        assert declared_default(owner, name) == declared_default(config, name)

    def test_triadic_validation(self) -> None:
        with pytest.raises(ValueError):
            TriadicConfig(mode="c")
        with pytest.raises(ValueError):
            TriadicConfig(mode="a", steps=1)
        with pytest.raises(ValueError):
            TriadicConfig(mode="b", delay=-1)
        with pytest.raises(ValueError):
            TriadicConfig(mode="a", taus=(0,))
        with pytest.raises(ValueError):
            TriadicConfig(mode="a", steps=10, taus=(10,))
        with pytest.raises(ValueError):
            TriadicConfig(mode="a", taus=())
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TriadicConfig(mode="a", seed=-1)

    @pytest.mark.parametrize("mode", ["a", "b"])
    @pytest.mark.parametrize("amplitude", [0.0, -0.1, 0.6, np.nan, np.inf])
    def test_triadic_bad_amplitude_rejected(self, mode: str, amplitude: float) -> None:
        with pytest.raises(ValueError, match="amplitude must lie in"):
            TriadicConfig(mode=mode, steps=10, amplitude=amplitude)

    @pytest.mark.parametrize("mode", ["a", "b"])
    @pytest.mark.parametrize("amplitude", [2.0**-54, 1e-300, 5e-324])
    def test_triadic_uncalibratable_amplitude_rejected(
        self, mode: str, amplitude: float
    ) -> None:
        with pytest.raises(ValueError, match="calibration must single out one sign"):
            TriadicConfig(mode=mode, steps=10, amplitude=amplitude)

    @pytest.mark.parametrize("mode", ["a", "b"])
    @pytest.mark.parametrize("share", [-0.1, 1.1, np.nan, np.inf, -np.inf])
    def test_triadic_bad_revenue_share_rejected(self, mode: str, share: float) -> None:
        message = re.escape(f"revenue_share must lie in [0, 1], got {share}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TriadicConfig(mode=mode, steps=10, revenue_share=share)

    def test_matching_pennies_validation(self) -> None:
        with pytest.raises(ValueError):
            MatchingPenniesConfig(algorithm_id=5)
        with pytest.raises(ValueError):
            MatchingPenniesConfig(algorithm_id=0, steps=1)
        with pytest.raises(ValueError):
            MatchingPenniesConfig(algorithm_id=0, steps=10, taus=(12,))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            MatchingPenniesConfig(algorithm_id=0, seed=-1)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
    @pytest.mark.parametrize("field", ["steps", "seed", "delay"])
    def test_triadic_non_integral_field_rejected(self, field: str, bad) -> None:
        message = re.escape(f"{field} must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TriadicConfig(mode="b", **{field: bad})

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
    @pytest.mark.parametrize("field", ["algorithm_id", "steps", "seed"])
    def test_matching_pennies_non_integral_field_rejected(self, field: str, bad) -> None:
        fields = {"algorithm_id": 1, field: bad}
        message = re.escape(f"{field} must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            MatchingPenniesConfig(**fields)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "2", None])
    def test_non_integral_lag_rejected(self, bad) -> None:
        message = re.escape(f"lag must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TriadicConfig(mode="b", steps=10, taus=(1, bad))
        with pytest.raises(ValueError, match=f"^{message}$"):
            MatchingPenniesConfig(algorithm_id=0, steps=10, taus=(bad,))
        log = run_triadic(TriadicConfig(mode="a", steps=10))
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure_log(log, (bad,))

    def test_integer_fields_are_stored_as_int(self) -> None:
        config = TriadicConfig(
            mode="b", steps=np.int64(10), seed=np.uint8(3), delay=np.int16(1), taus=(np.int32(2),)
        )
        assert (config.steps, config.seed, config.delay, config.taus) == (10, 3, 1, (2,))
        assert {type(value) for value in (config.steps, config.seed, config.delay)} == {int}
        config = MatchingPenniesConfig(algorithm_id=np.int8(2), steps=np.int64(10), taus=(1,))
        assert type(config.algorithm_id) is int and type(config.steps) is int

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.1, np.nan])
    def test_matching_pennies_bad_significance_level_rejected(self, alpha: float) -> None:
        with pytest.raises(ValueError, match="significance_level must lie in"):
            MatchingPenniesConfig(algorithm_id=1, steps=200, significance_level=alpha)

    def test_matching_pennies_config_allocates_no_count_table(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        tables: list[int] = []
        new_count_table = agents.new_count_table

        def counting(context_bits: int) -> list[list]:
            tables.append(context_bits)
            return new_count_table(context_bits)

        monkeypatch.setattr(agents, "new_count_table", counting)
        for algorithm_id in (0, 1, 2):
            MatchingPenniesConfig(algorithm_id=algorithm_id, steps=200)
        assert tables == []
        agents.MatchingPenniesPredictor(2)
        assert tables == [4, 8]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matching_pennies_non_finite_learner_rejected(self, bad: float) -> None:
        with pytest.raises(ValueError, match="inverse_temperature must be finite"):
            MatchingPenniesConfig(algorithm_id=0, steps=200, inverse_temperature=bad)
        with pytest.raises(ValueError, match="learning_rate"):
            MatchingPenniesConfig(algorithm_id=0, steps=200, learning_rate=bad)


class TestLogs:
    def test_every_column_is_read_only(self) -> None:
        logs = (
            run_triadic(TriadicConfig(mode="b", steps=10)),
            run_matching_pennies(MatchingPenniesConfig(algorithm_id=2, steps=10)),
        )
        for log in logs:
            assert isinstance(log, scenarios.EpisodeLog) and len(log) == 10
            for field in dataclasses.fields(log)[1:]:
                assert not getattr(log, field.name).flags.writeable, field.name

    def test_integer_columns_are_int8(self) -> None:
        narrow = {"signal", "x2", "x3", "value", "monkey", "computer", "monkey_reward",
                  "computer_reward"}
        logs = (
            run_triadic(TriadicConfig(mode="a", steps=10)),
            run_triadic(TriadicConfig(mode="b", steps=10)),
            run_matching_pennies(MatchingPenniesConfig(algorithm_id=2, steps=10)),
        )
        for log in logs:
            for field in dataclasses.fields(log)[1:]:
                want = np.int8 if field.name in narrow else np.float64
                assert getattr(log, field.name).dtype == want, field.name
        # Mode "b" keeps one emission buffer: the coupling is x1 delayed.
        assert np.shares_memory(logs[1].x1, logs[1].coupling)

    def test_triad_peak_memory(self) -> None:
        # Mode "b" at 100k steps peaks at 4.77 MiB, 2.29 of them the three
        # utility columns; int64 integer columns and a coupling copied apart
        # from x1 took 7.73 MiB.  The first run imports numpy.random, 0.56 MiB.
        run_triadic(TriadicConfig(mode="b", steps=10))
        _, peak = traced_peak(run_triadic, TriadicConfig(mode="b", steps=100_000))
        assert peak < 5.5 * 2**20


class TestTriadicModeA:
    def test_reporting_only_dynamics(self) -> None:
        log = run_triadic(TriadicConfig(mode="a", steps=500, seed=3))
        assert len(log) == 500
        np.testing.assert_array_equal(log.x1, log.signal.astype(float))
        assert np.all(log.x2 == DEFECT)
        assert np.all(log.x3 == DEFECT)
        assert np.all(log.coupling == 0.0)
        assert np.all(log.u1 == 0.0)
        assert np.all(log.u2 == 0.0)
        assert np.all(log.u3 == 0.0)
        assert np.all(log.value == 0)

    def test_excess_is_exactly_zero(self) -> None:
        # Only one component varies, so the joint lag table visits the
        # same cells as that component's own table and the subtraction
        # cancels exactly in floating point.
        log = run_triadic(TriadicConfig(mode="a", steps=4000, seed=1))
        for report in measure_log(log):
            assert report.excess == 0.0

    def test_determinism(self) -> None:
        first = run_triadic(TriadicConfig(mode="a", steps=200, seed=9))
        second = run_triadic(TriadicConfig(mode="a", steps=200, seed=9))
        np.testing.assert_array_equal(first.signal, second.signal)
        other = run_triadic(TriadicConfig(mode="a", steps=200, seed=10))
        assert not np.array_equal(first.signal, other.signal)


class TestTriadicOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        mode=st.sampled_from(["a", "b"]),
        steps=st.integers(2, 500),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.one_of(
            st.sampled_from([0.5, 0.25]), st.floats(0.0, 0.5, exclude_min=True)
        ),
        share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_matches_per_step_reference(
        self, data, mode: str, steps: int, seed: int, amplitude: float, share: float
    ) -> None:
        delay = data.draw(st.integers(0, steps + 2), label="delay")
        if 1.0 - amplitude == 1.0:
            # The game ties at this coupling, so no emission sign calibrates.
            with pytest.raises(ValueError, match="calibration"):
                TriadicConfig(mode=mode, steps=steps, taus=(1,), amplitude=amplitude)
            return
        config = TriadicConfig(
            mode=mode, steps=steps, seed=seed, delay=delay, taus=(1,),
            amplitude=amplitude, revenue_share=share,
        )
        log = run_triadic(config)
        actual = (log.signal, log.x1, log.coupling, log.x2, log.x3,
                  log.u1, log.u2, log.u3, log.value)
        for got, want in zip(actual, reference.run_triadic(config), strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestTriadicModeB:
    def test_coupling_is_the_delayed_emission(self) -> None:
        config = TriadicConfig(mode="b", steps=300, seed=4, delay=3)
        log = run_triadic(config)
        np.testing.assert_array_equal(log.coupling[3:], log.x1[:-3])
        assert np.all(log.coupling[:3] == config.amplitude)

    def test_workers_track_the_game_in_force(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=400, seed=5))
        np.testing.assert_array_equal(log.x2, log.x3)
        np.testing.assert_array_equal(
            log.x2 == COOPERATE, log.coupling < 0.0
        )
        # Through the calibrated orchestrator a +1 signal buys
        # cooperation exactly ``delay`` steps later.
        np.testing.assert_array_equal(
            (log.x2 == COOPERATE)[1:], log.signal[:-1] == 1
        )

    def test_utilities_recompute_from_the_logged_state(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=250, seed=6))
        for t in range(len(log)):
            expected = triadic_utilities(
                float(log.coupling[t]), int(log.x2[t]), int(log.x3[t]), log.config.revenue_share
            )
            assert (log.u1[t], log.u2[t], log.u3[t]) == expected

    def test_value_flag_marks_mutual_cooperation(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=250, seed=7))
        np.testing.assert_array_equal(
            log.value == 1, (log.x2 == COOPERATE) & (log.x3 == COOPERATE)
        )
        assert 0 < int(log.value.sum()) < len(log)

    def test_worker_symbols_negate_the_lagged_orchestrator_symbol(self) -> None:
        # Symbolically: x1 emits -amplitude on a +1 signal, which turns
        # the game harmonic one step later, so the worker symbol is the
        # complement of the lagged x1 symbol. This determinism is what
        # makes the joint series one bit more predictive than its parts.
        log = run_triadic(TriadicConfig(mode="b", steps=300, seed=8))
        symbols = [series.symbols for series in log.joint_series().components]
        x1_sym, x2_sym, _ = symbols
        np.testing.assert_array_equal(x2_sym[1:], 1 - x1_sym[:-1])

    def test_one_bit_of_excess_at_the_delay_lag(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=20_000, seed=0))
        (report,) = measure_log(log, taus=(1,))
        assert report.excess == pytest.approx(1.0, abs=0.05)
        assert report.joint_tdmi == pytest.approx(1.0, abs=0.05)
        assert all(abs(v) < 0.01 for v in report.per_agent_tdmi)

    def test_zero_delay_kills_the_excess(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=20_000, seed=0, delay=0))
        np.testing.assert_array_equal(log.coupling, log.x1)
        (report,) = measure_log(log, taus=(1,))
        assert abs(report.excess) < 0.01

    def test_longer_delay_moves_the_excess_to_its_lag(self) -> None:
        log = run_triadic(TriadicConfig(mode="b", steps=20_000, seed=2, delay=2))
        at_one, at_two = measure_log(log, taus=(1, 2))
        assert abs(at_one.excess) < 0.05
        assert at_two.excess == pytest.approx(1.0, abs=0.05)

    def test_determinism(self) -> None:
        first = run_triadic(TriadicConfig(mode="b", steps=300, seed=11))
        second = run_triadic(TriadicConfig(mode="b", steps=300, seed=11))
        for name in ("signal", "x1", "coupling", "x2", "x3", "u1", "u2", "u3"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


class TestMatchingPennies:
    def test_reward_resolution(self) -> None:
        log = run_matching_pennies(MatchingPenniesConfig(algorithm_id=0, steps=500))
        assert len(log) == 500
        np.testing.assert_array_equal(
            log.monkey_reward, (log.monkey == log.computer).astype(np.int64)
        )
        np.testing.assert_array_equal(log.computer_reward, 1 - log.monkey_reward)

    def test_determinism(self) -> None:
        config = MatchingPenniesConfig(algorithm_id=2, steps=400, seed=21)
        first = run_matching_pennies(config)
        second = run_matching_pennies(config)
        np.testing.assert_array_equal(first.monkey, second.monkey)
        np.testing.assert_array_equal(first.computer, second.computer)
        other = run_matching_pennies(
            MatchingPenniesConfig(algorithm_id=2, steps=400, seed=22)
        )
        assert not np.array_equal(first.monkey, other.monkey)

    @pytest.mark.parametrize("algorithm_id", [0, 1, 2])
    def test_reward_rate_stays_near_equilibrium(self, algorithm_id: int) -> None:
        log = run_matching_pennies(
            MatchingPenniesConfig(algorithm_id=algorithm_id, steps=10_000, seed=0)
        )
        rate = float(log.monkey_reward.mean())
        assert 0.45 < rate < 0.55

    def test_uniform_play_under_algorithm_zero(self) -> None:
        log = run_matching_pennies(
            MatchingPenniesConfig(algorithm_id=0, steps=10_000, seed=1)
        )
        assert 0.47 < float(log.monkey.mean()) < 0.53
        assert 0.47 < float(log.computer.mean()) < 0.53

    def test_each_algorithm_allocates_only_the_tables_it_reads(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        tables: list[int] = []
        new_count_table = agents.new_count_table

        def counting(context_bits: int) -> list[list]:
            tables.append(context_bits)
            return new_count_table(context_bits)

        # ``scenarios`` holds its own binding of the name.
        monkeypatch.setattr(agents, "new_count_table", counting)
        monkeypatch.setattr(scenarios, "new_count_table", counting)
        for algorithm_id, expected in [(0, []), (1, [4]), (2, [4, 8])]:
            tables.clear()
            run_matching_pennies(MatchingPenniesConfig(algorithm_id=algorithm_id, steps=200))
            assert tables == expected, algorithm_id

    def test_joint_series_shape(self) -> None:
        log = run_matching_pennies(MatchingPenniesConfig(algorithm_id=1, steps=50))
        joint = log.joint_series()
        assert len(joint.components) == 2
        assert all(series.alphabet_size == 2 for series in joint.components)


class TestMeasureLog:
    def test_defaults_to_configured_lags(self) -> None:
        log = run_triadic(TriadicConfig(mode="a", steps=100, taus=(1, 4)))
        reports = measure_log(log)
        assert tuple(report.tau for report in reports) == (1, 4)

    def test_explicit_lags_override(self) -> None:
        log = run_triadic(TriadicConfig(mode="a", steps=100))
        reports = measure_log(log, taus=(2,))
        assert tuple(report.tau for report in reports) == (2,)

    def test_lag_validation_against_episode_length(self) -> None:
        log = run_triadic(TriadicConfig(mode="a", steps=100))
        with pytest.raises(ValueError):
            measure_log(log, taus=(100,))
        with pytest.raises(ValueError):
            measure_log(log, taus=())

    def test_uniform_computer_leaves_only_a_small_excess(self) -> None:
        # Even against a uniform computer the learner's reward coupling
        # ties its next choice to both players' past, so a small positive
        # excess remains; the computer itself carries no lagged
        # information. The point is the scale: tiny next to the one bit
        # the orchestrated triad produces.
        log = run_matching_pennies(
            MatchingPenniesConfig(algorithm_id=0, steps=10_000, seed=2)
        )
        (report,) = measure_log(log, taus=(1,))
        assert 0.0 < report.excess < 0.05
        assert report.per_agent_tdmi[1] < 1e-3
