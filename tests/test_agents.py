"""Tests for the matching-pennies opponents and the triad agents.

The predictor's incremental count tables are checked against a
test-local recompute that rescans the whole history every trial, and
the p-value ``walk_pvalue`` walks is checked against scipy's generic
binomial test over an exhaustive small-n grid.
"""

from __future__ import annotations

from math import exp

import numpy as np
import pytest
from scipy.stats import binomtest

import pennies_reference as reference
from citom import agents
from citom.agents import (
    DeltaRuleLearner,
    MatchingPenniesPredictor,
    emission_sign,
    equilibrium_action,
)
from citom.game_core import COOPERATE, DEFECT, GameTable, effective_game, pure_nash


def pvalue(successes: int, trials: int) -> float:
    """The trial loop's p-value of ``successes`` of ``trials``, from a fresh tail state."""
    return agents.walk_pvalue([0, 0, 1, 1], min(successes, trials - successes), trials)


class TestBinomialPvalue:
    def test_matches_scipy_exhaustively_for_small_n(self) -> None:
        for n in range(0, 41):
            for k in range(n + 1):
                expected = 1.0 if n == 0 else binomtest(k, n, 0.5).pvalue
                assert pvalue(k, n) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_matches_scipy_spot_large_n(self) -> None:
        for k, n in [(4900, 10_000), (5100, 10_000), (251, 400), (0, 1000)]:
            assert pvalue(k, n) == pytest.approx(
                binomtest(k, n, 0.5).pvalue, rel=1e-10, abs=1e-300
            )

    def test_balanced_counts_have_pvalue_one(self) -> None:
        assert pvalue(10, 20) == 1.0
        assert pvalue(0, 0) == 1.0


def replay_response(
    algorithm_id: int,
    choices: list[int],
    rewards: list[int],
    context_length: int = 4,
    alpha: float = 0.05,
) -> float:
    """Full-history reference for the predictor's next response probability."""
    t = len(choices)
    if algorithm_id == 0 or t < context_length + 1:
        return 0.5
    candidates = []
    current = tuple(choices[t - context_length : t])
    ones = total = 0
    for j in range(context_length, t):
        if tuple(choices[j - context_length : j]) == current:
            total += 1
            ones += choices[j]
    if total:
        candidates.append((reference.exact_pvalue(ones, total), 0, ones / total))
    if algorithm_id == 2:
        pairs = list(zip(choices, rewards))
        current_pairs = tuple(pairs[t - context_length : t])
        ones = total = 0
        for j in range(context_length, t):
            if tuple(pairs[j - context_length : j]) == current_pairs:
                total += 1
                ones += choices[j]
        if total:
            candidates.append((reference.exact_pvalue(ones, total), 1, ones / total))
    rejected = [c for c in candidates if c[0] < alpha]
    if not rejected:
        return 0.5
    _, _, bias = min(rejected, key=lambda c: (c[0], c[1]))
    return 1.0 - bias


class TestMatchingPenniesPredictor:
    def test_algorithm_zero_ignores_history(self) -> None:
        pred = MatchingPenniesPredictor(0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert pred.response_probability() == 0.5
            pred.observe(1, 1)
        choices = [rng.random() < pred.response_probability() for _ in range(10_000)]
        assert 0.48 < np.mean(choices) < 0.52

    @pytest.mark.parametrize("algorithm_id", [1, 2])
    def test_cold_start_is_uniform(self, algorithm_id: int) -> None:
        pred = MatchingPenniesPredictor(algorithm_id)
        for _ in range(5):
            assert pred.response_probability() == 0.5
            pred.observe(1, 1)

    def test_unseen_context_stays_uniform(self) -> None:
        pred = MatchingPenniesPredictor(1)
        for choice in (0, 0, 0, 0, 1):
            pred.observe(choice, 0)
        # History (0,0,0,1) has never been followed by anything.
        assert pred.response_probability() == 0.5

    def test_constant_opponent_is_fully_countered(self) -> None:
        pred = MatchingPenniesPredictor(1)
        for _ in range(30):
            pred.observe(1, 0)
        assert pred.response_probability() == 0.0
        pred = MatchingPenniesPredictor(1)
        for _ in range(30):
            pred.observe(0, 1)
        assert pred.response_probability() == 1.0

    @pytest.mark.parametrize("algorithm_id", [1, 2])
    def test_iid_opponent_rarely_triggers_rejection(
        self, algorithm_id: int
    ) -> None:
        rng = np.random.default_rng(3)
        pred = MatchingPenniesPredictor(algorithm_id)
        deviated = 0
        trials = 4000
        for _ in range(trials):
            if pred.response_probability() != 0.5:
                deviated += 1
            pred.observe(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        assert deviated / trials < 0.25

    def test_forced_retention_recovers_algorithm_zero(self) -> None:
        # p(0, n) = 2**(1 - n) > 1e-100 for n <= 333, so no count of these
        # 300 trials rejects: every critical tail is -1.
        rng = np.random.default_rng(11)
        script = [(int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(300)]
        retained = MatchingPenniesPredictor(2, significance_level=1e-100)
        baseline = MatchingPenniesPredictor(0)
        for choice, reward in script:
            assert retained.response_probability() == baseline.response_probability()
            retained.observe(choice, reward)
            baseline.observe(choice, reward)

    @pytest.mark.parametrize("algorithm_id", [1, 2])
    def test_incremental_tables_match_full_history_replay(
        self, algorithm_id: int
    ) -> None:
        rng = np.random.default_rng(42 + algorithm_id)
        for _ in range(8):
            pred = MatchingPenniesPredictor(algorithm_id)
            choices: list[int] = []
            rewards: list[int] = []
            for _ in range(150):
                expected = replay_response(algorithm_id, choices, rewards)
                assert pred.response_probability() == expected
                choice = int(rng.integers(0, 2))
                reward = int(rng.integers(0, 2))
                pred.observe(choice, reward)
                choices.append(choice)
                rewards.append(reward)

    def test_win_stay_lose_shift_visible_only_to_pair_contexts(self) -> None:
        # A win-stay-lose-shift opponent facing a near-uniform computer
        # produces a near-iid choice sequence: the structure lives in the
        # choice-and-reward joint, exactly what algorithm 2 adds.
        def computer_win_rate(algorithm_id: int) -> float:
            rng = np.random.default_rng(5)
            pred = MatchingPenniesPredictor(algorithm_id)
            choice, reward = 0, 1
            wins = 0
            trials = 10_000
            for t in range(trials):
                computer = 1 if rng.random() < pred.response_probability() else 0
                if t > 0:
                    choice = choice if reward == 1 else 1 - choice
                reward = 1 if choice == computer else 0
                wins += 1 - reward
                pred.observe(choice, reward)
            return wins / trials

        rate1 = computer_win_rate(1)
        rate2 = computer_win_rate(2)
        assert 0.45 < rate1 < 0.55
        assert rate2 > 0.9

    def test_each_algorithm_keeps_only_the_tables_it_reads(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        tables: list[int] = []
        new_count_table = agents.new_count_table

        def counting(context_bits: int) -> list[list]:
            tables.append(context_bits)
            return new_count_table(context_bits)

        monkeypatch.setattr(agents, "new_count_table", counting)
        for algorithm_id, expected in [(0, []), (1, [4]), (2, [4, 8])]:
            tables.clear()
            pred = MatchingPenniesPredictor(algorithm_id)
            assert tables == expected, algorithm_id
            for _ in range(10):
                pred.observe(1, 0)
            # Trials 4-9 are credited, each table to one context entry.
            credited = [e[:2] for e in pred._choice_table + pred._pair_table if e and e[1]]
            assert credited == [[6, 6]] * len(expected)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            MatchingPenniesPredictor(3)
        with pytest.raises(ValueError):
            MatchingPenniesPredictor(1, significance_level=0.0)
        pred = MatchingPenniesPredictor(1)
        with pytest.raises(ValueError):
            pred.observe(2, 0)
        with pytest.raises(ValueError):
            pred.observe(0, -1)


class TestDeltaRuleLearner:
    def test_zero_inverse_temperature_is_always_uniform(self) -> None:
        learner = DeltaRuleLearner(inverse_temperature=0.0)
        assert learner.action_probability() == 0.5
        learner.update(1, 10.0)
        assert learner.action_probability() == 0.5

    def test_update_and_softmax_hand_values(self) -> None:
        learner = DeltaRuleLearner(learning_rate=0.2, inverse_temperature=3.0)
        learner.update(1, 1.0)
        assert learner.values == [0.5, pytest.approx(0.6)]
        expected = 1.0 / (1.0 + exp(-3.0 * 0.1))
        assert learner.action_probability() == pytest.approx(expected, abs=1e-15)
        learner.update(0, 0.0)
        assert learner.values[0] == pytest.approx(0.4)

    def test_greedy_limit(self) -> None:
        learner = DeltaRuleLearner(inverse_temperature=500.0)
        learner.update(1, 1.0)
        assert learner.action_probability() > 1.0 - 1e-15
        rng = np.random.default_rng(0)
        assert all(rng.random() < learner.action_probability() for _ in range(100))

    @pytest.mark.parametrize("beta", [710.0, 1000.0, 1e6])
    def test_overflowing_gap_takes_the_limit(self, beta: float) -> None:
        # exp(-gap) overflows past gap = -709.78; the probability is then
        # exp(gap), subnormal at 710 and 0 past 745.
        learner = DeltaRuleLearner(learning_rate=1.0, inverse_temperature=beta)
        learner.update(0, 1.0)
        learner.update(1, 0.0)
        assert learner.action_probability() == exp(-beta)
        learner.update(0, -1.0)
        assert learner.action_probability() == 1.0

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            DeltaRuleLearner(learning_rate=0.0)
        with pytest.raises(ValueError):
            DeltaRuleLearner(learning_rate=1.2)
        with pytest.raises(ValueError):
            DeltaRuleLearner(inverse_temperature=-0.1)
        learner = DeltaRuleLearner()
        with pytest.raises(ValueError):
            learner.update(2, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad: float) -> None:
        with pytest.raises(ValueError, match="inverse_temperature must be finite"):
            DeltaRuleLearner(0.2, bad)
        with pytest.raises(ValueError, match="learning_rate"):
            DeltaRuleLearner(bad, 3.0)


class TestEquilibriumAction:
    def test_dilemma_side_defects(self) -> None:
        table = effective_game(0.25)
        assert equilibrium_action(table, 0) == DEFECT
        assert equilibrium_action(table, 1) == DEFECT

    def test_harmony_side_cooperates(self) -> None:
        table = effective_game(-0.25)
        assert equilibrium_action(table, 0) == COOPERATE
        assert equilibrium_action(table, 1) == COOPERATE

    def test_degenerate_boundary_falls_back_to_status_quo(self) -> None:
        table = effective_game(0.0)
        assert equilibrium_action(table, 0) == DEFECT
        assert equilibrium_action(table, 1) == DEFECT

    def test_two_strict_equilibria_are_ambiguous(self) -> None:
        stag = GameTable.two_player(
            np.array([[4.0, 0.0], [3.0, 2.0]]), np.array([[4.0, 0.0], [3.0, 2.0]])
        )
        assert equilibrium_action(stag, 0) == DEFECT

    def test_no_pure_equilibrium_is_an_error(self) -> None:
        pennies = GameTable.two_player([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        assert len(pure_nash(pennies)) == 0
        message = "^table has no pure equilibrium; cannot play myopically$"
        for player in (0, 1):
            with pytest.raises(ValueError, match=message):
                equilibrium_action(pennies, player)

    def test_invariant_under_positive_affine_rescaling(self) -> None:
        table = effective_game(0.25)
        scaled = GameTable(2, table.payoffs * 3.0 + 11.0)
        assert equilibrium_action(scaled, 0) == equilibrium_action(table, 0)


class TestEmissionSign:
    def test_calibration_resolves_the_emission_sign(self) -> None:
        assert emission_sign(0.25) == -1

    def test_positive_signal_buys_cooperation(self) -> None:
        sign = emission_sign(0.25)
        for signal in (1, -1):
            table = effective_game(sign * signal * 0.25)
            action = equilibrium_action(table, 0)
            assert action == (COOPERATE if signal == 1 else DEFECT)

    def test_survives_re_signing_of_the_payoff_family(self, monkeypatch) -> None:
        # With the family's coupling negated, the other sign buys cooperation.
        family = agents.effective_game
        monkeypatch.setattr(agents, "effective_game", lambda coupling: family(-coupling))
        assert emission_sign(0.25) == 1

    @pytest.mark.parametrize("amplitude", [0.0, -0.1, 0.6, np.nan, np.inf])
    def test_amplitude_out_of_range_rejected(self, amplitude: float) -> None:
        with pytest.raises(ValueError, match=r"^amplitude must lie in \(0, 1/2\]$"):
            emission_sign(amplitude)

    @pytest.mark.parametrize("amplitude", [2.0**-54, 2.0**-60])
    def test_no_sign_calibrates_below_the_rounding_of_one(self, amplitude: float) -> None:
        # ``1 - amplitude`` rounds to 1, so neither sign leaves a strict equilibrium.
        message = r"^calibration must single out one sign, found \[\]$"
        with pytest.raises(ValueError, match=message):
            emission_sign(amplitude)
