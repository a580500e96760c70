"""Tests for belief updates, anchored responses, and the objectives.

The anchored best response is verified as an actual maximiser: its
objective value must dominate hundreds of random candidate policies on
random instances, not merely match a transcribed formula.
"""

from __future__ import annotations

from math import exp, log

import numpy as np
import pytest

from citom.tom_policy import (
    BeliefState,
    Channel,
    LatentTypeSpace,
    ObjectiveMode,
    ObjectiveParams,
    Policy,
    anchor_objective,
    bayes_update,
    best_message,
    induced_message_policy,
    kl_divergence,
    message_expected_utilities,
    pikl_best_response,
    select_message,
    tom_divergence,
    tom_policy_mix,
    unified_objective,
)


def hand_instance() -> tuple[LatentTypeSpace, Channel, Policy]:
    space = LatentTypeSpace(np.array([0.5, 0.5]))
    channel = Channel(np.array([[0.8, 0.2], [0.2, 0.8]]))
    conditional = Policy(np.array([[[0.9, 0.1]], [[0.2, 0.8]]]), "tsa")
    return space, channel, conditional


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.05, 1.0, size)
    return raw / raw.sum()


class TestContainers:
    def test_latent_space_validation(self) -> None:
        space = LatentTypeSpace(np.array([0.25, 0.75]), labels=("a", "b"))
        assert space.prior.size == 2
        with pytest.raises(ValueError):
            LatentTypeSpace(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            LatentTypeSpace(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            LatentTypeSpace(np.array([0.5, 0.5]), labels=("only",))

    def test_channel_validation(self) -> None:
        channel = Channel(np.array([[0.8, 0.2], [0.2, 0.8]]))
        assert channel.n_types == 2 and channel.n_messages == 2
        with pytest.raises(ValueError):
            Channel(np.array([[0.8, 0.3], [0.2, 0.8]]))
        with pytest.raises(ValueError):
            Channel(np.array([0.5, 0.5]))

    def test_policy_validation_and_indexing(self) -> None:
        policy = Policy(np.array([[0.3, 0.7], [1.0, 0.0]]))
        assert policy.n_actions == 2
        with pytest.raises(ValueError):
            Policy(np.array([[0.3, 0.8]]))
        with pytest.raises(ValueError):
            Policy(np.array([[0.5, 0.5]]), axes="as")
        with pytest.raises(ValueError):
            Policy(np.array([[0.5, 0.5]]), axes="sma")

    def test_uniform_and_greedy_builders(self) -> None:
        uniform = Policy(np.full((2, 4), 0.25), "sa")
        assert np.all(uniform.table == 0.25)
        greedy = Policy.greedy(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert greedy.table.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distributions_rejected(self, bad: float) -> None:
        with pytest.raises(ValueError, match="finite"):
            LatentTypeSpace(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            Policy(np.array([[bad, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            Channel(np.array([[bad, 1.0], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            BeliefState(np.array([1.0, bad]))

    def test_tables_are_read_only(self) -> None:
        policy = Policy(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            policy.table[0, 0] = 1.0


class TestBayesUpdate:
    def test_hand_posterior(self) -> None:
        space, channel, _ = hand_instance()
        posterior = bayes_update(space, channel, 0).posterior
        np.testing.assert_allclose(posterior, [0.8, 0.2], rtol=0, atol=1e-15)

    def test_sequential_updates_accumulate(self) -> None:
        space, channel, _ = hand_instance()
        once = bayes_update(space, channel, 0)
        twice = bayes_update(once, channel, 0)
        np.testing.assert_allclose(
            twice.posterior, [16 / 17, 1 / 17], rtol=0, atol=1e-15
        )

    def test_uninformative_channel_returns_prior(self) -> None:
        space = LatentTypeSpace(np.array([0.3, 0.7]))
        flat = Channel(np.full((2, 3), 1.0 / 3.0))
        for message in range(3):
            np.testing.assert_allclose(
                bayes_update(space, flat, message).posterior,
                space.prior,
                rtol=0,
                atol=1e-15,
            )

    def test_matches_brute_force_on_random_instances(self) -> None:
        rng = np.random.default_rng(8)
        for _ in range(200):
            n_types = int(rng.integers(2, 5))
            n_messages = int(rng.integers(2, 5))
            prior = random_distribution(rng, n_types)
            likelihood = np.stack(
                [random_distribution(rng, n_messages) for _ in range(n_types)]
            )
            message = int(rng.integers(0, n_messages))
            numerator = prior * likelihood[:, message]
            expected = numerator / numerator.sum()
            result = bayes_update(
                LatentTypeSpace(prior), Channel(likelihood), message
            ).posterior
            np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)

    def test_zero_evidence_is_an_error(self) -> None:
        space = LatentTypeSpace(np.array([1.0, 0.0]))
        channel = Channel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            bayes_update(space, channel, 1)

    def test_range_and_shape_errors(self) -> None:
        space, channel, _ = hand_instance()
        with pytest.raises(ValueError):
            bayes_update(space, channel, 2)
        with pytest.raises(ValueError):
            bayes_update(LatentTypeSpace(np.array([1.0])), channel, 0)


class TestPolicyMix:
    def test_degenerate_belief_selects_one_type(self) -> None:
        _, _, conditional = hand_instance()
        mix = tom_policy_mix(conditional, BeliefState(np.array([0.0, 1.0])), 0)
        np.testing.assert_allclose(mix, [0.2, 0.8], rtol=0, atol=1e-15)

    def test_uniform_belief_averages(self) -> None:
        _, _, conditional = hand_instance()
        mix = tom_policy_mix(conditional, BeliefState(np.array([0.5, 0.5])), 0)
        np.testing.assert_allclose(mix, [0.55, 0.45], rtol=0, atol=1e-15)

    def test_validation(self) -> None:
        _, _, conditional = hand_instance()
        belief = BeliefState(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            tom_policy_mix(Policy(np.array([[0.5, 0.5]])), belief, 0)
        with pytest.raises(ValueError):
            tom_policy_mix(conditional, belief, 1)
        with pytest.raises(ValueError):
            tom_policy_mix(conditional, BeliefState(np.array([1.0])), 0)


class TestInducedMessagePolicy:
    def test_hand_composition(self) -> None:
        space, channel, conditional = hand_instance()
        induced = induced_message_policy(space, channel, conditional)
        assert induced.axes == "sma"
        assert induced.table.shape == (1, 2, 2)
        np.testing.assert_allclose(
            induced.table[0, 0], [0.76, 0.24], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            induced.table[0, 1], [0.34, 0.66], rtol=0, atol=1e-15
        )

    def test_rows_are_distributions(self) -> None:
        rng = np.random.default_rng(12)
        space = LatentTypeSpace(random_distribution(rng, 3))
        channel = Channel(
            np.stack([random_distribution(rng, 4) for _ in range(3)])
        )
        conditional = Policy(
            np.stack(
                [
                    np.stack([random_distribution(rng, 2) for _ in range(2)])
                    for _ in range(3)
                ]
            ),
            "tsa",
        )
        induced = induced_message_policy(space, channel, conditional)
        sums = induced.table.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), rtol=0, atol=1e-12)


class TestMessageSelection:
    def test_hand_expected_utilities_and_choice(self) -> None:
        space, channel, conditional = hand_instance()
        utility = np.array([[1.0, 0.0], [0.0, 1.0]])
        belief = BeliefState(np.array([0.6, 0.4]))
        utilities = message_expected_utilities(
            space, channel, conditional, 0, utility, belief
        )
        np.testing.assert_allclose(utilities, [0.552, 0.468], rtol=0, atol=1e-15)
        assert select_message(space, channel, conditional, 0, utility, belief) == 0

    def test_uninformative_channel_ties_to_lowest_index(self) -> None:
        space, _, conditional = hand_instance()
        flat = Channel(np.full((2, 2), 0.5))
        utility = np.array([[1.0, 0.0], [0.0, 1.0]])
        belief = BeliefState(np.array([0.6, 0.4]))
        utilities = message_expected_utilities(
            space, flat, conditional, 0, utility, belief
        )
        assert utilities[0] == utilities[1]
        assert select_message(space, flat, conditional, 0, utility, belief) == 0

    def test_one_tie_rule(self) -> None:
        assert best_message(np.array([0.5, 0.5])) == 0
        assert best_message(np.array([0.1, 0.7, 0.7])) == 1
        space, channel, conditional = hand_instance()
        utility = np.array([[0.0, 1.0], [1.0, 0.0]])
        belief = BeliefState(np.array([0.3, 0.7]))
        reactions = induced_message_policy(space, channel, conditional)
        utilities = message_expected_utilities(
            space, channel, conditional, 0, utility, belief, reactions
        )
        assert utilities.tolist() == message_expected_utilities(
            space, channel, conditional, 0, utility, belief
        ).tolist()
        assert select_message(
            space, channel, conditional, 0, utility, belief
        ) == best_message(utilities)

    def test_utility_shape_errors(self) -> None:
        space, channel, conditional = hand_instance()
        belief = BeliefState(np.array([0.6, 0.4]))
        with pytest.raises(ValueError):
            message_expected_utilities(
                space, channel, conditional, 0, np.array([1.0, 0.0]), belief
            )
        with pytest.raises(ValueError):
            message_expected_utilities(
                space,
                channel,
                conditional,
                0,
                np.array([[1.0], [0.0]]),
                belief,
            )
        with pytest.raises(ValueError):
            message_expected_utilities(
                space,
                channel,
                conditional,
                0,
                np.eye(3),
                BeliefState(np.array([0.2, 0.3, 0.5])),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_utility_rejected(self, bad: float) -> None:
        # A NaN entry would make every expected utility NaN, and
        # ``best_message`` would then pick the first of them.
        space, channel, conditional = hand_instance()
        utility = np.array([[1.0, 0.0], [0.0, bad]])
        belief = BeliefState(np.array([0.6, 0.4]))
        for choose in (message_expected_utilities, select_message):
            with pytest.raises(ValueError, match="^speaker_utility must be finite$"):
                choose(space, channel, conditional, 0, utility, belief)

    @pytest.mark.parametrize("state", [-1, 2])
    def test_state_out_of_range(self, state: int) -> None:
        space, channel, _ = hand_instance()
        two_states = np.array([[[0.9, 0.1], [0.3, 0.7]], [[0.2, 0.8], [0.6, 0.4]]])
        conditional = Policy(two_states, "tsa")
        utility, belief = np.eye(2), BeliefState(np.array([0.6, 0.4]))
        for choose in (message_expected_utilities, select_message):
            with pytest.raises(ValueError, match=f"^state {state} out of range$"):
                choose(space, channel, conditional, state, utility, belief)


class TestKlDivergence:
    def test_point_mass_against_uniform_is_exactly_one_bit(self) -> None:
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == 1.0

    def test_identical_distributions_have_zero_divergence(self) -> None:
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_value_and_unit_conversion(self) -> None:
        p, q = [0.8, 0.2], [0.5, 0.5]
        expected_bits = 0.8 * np.log2(1.6) + 0.2 * np.log2(0.4)
        assert kl_divergence(p, q) == pytest.approx(expected_bits, abs=1e-15)

    def test_asymmetry(self) -> None:
        assert kl_divergence([0.8, 0.2], [0.5, 0.5]) != kl_divergence(
            [0.5, 0.5], [0.8, 0.2]
        )

    def test_support_rules(self) -> None:
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == 1.0
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])
        with pytest.raises(ValueError):
            kl_divergence([0.6, 0.6], [0.5, 0.5])


class TestTomDivergence:
    def test_hand_value(self) -> None:
        space, channel, conditional = hand_instance()
        modelled = induced_message_policy(space, channel, conditional)
        rl = Policy(np.array([[0.9, 0.1]]))
        expected = 0.9 * np.log2(0.9 / 0.76) + 0.1 * np.log2(0.1 / 0.24)
        assert tom_divergence(rl, modelled, 0, 0) == pytest.approx(
            expected, abs=1e-15
        )

    def test_axes_validation(self) -> None:
        space, channel, conditional = hand_instance()
        modelled = induced_message_policy(space, channel, conditional)
        rl = Policy(np.array([[0.9, 0.1]]))
        with pytest.raises(ValueError):
            tom_divergence(modelled, modelled, 0, 0)
        with pytest.raises(ValueError):
            tom_divergence(rl, rl, 0, 0)

    def test_action_counts_must_agree(self) -> None:
        space, channel, conditional = hand_instance()
        modelled = induced_message_policy(space, channel, conditional)
        rl = Policy(np.array([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValueError, match="^distributions differ in size: 3 vs 2$"):
            tom_divergence(rl, modelled, 0, 0)

    def test_state_and_message_must_be_integers(self) -> None:
        # A list would index a 2-D block of rows, which is no distribution.
        space, channel, conditional = hand_instance()
        modelled = induced_message_policy(space, channel, conditional)
        rl = Policy(np.array([[0.9, 0.1]]))
        with pytest.raises(ValueError, match=r"^state must be an integer, got \[0, 0\]$"):
            tom_divergence(rl, modelled, [0, 0], 0)
        with pytest.raises(ValueError, match=r"^message must be an integer, got 0\.0$"):
            tom_divergence(rl, modelled, 0, 0.0)


def pikl_objective(
    candidate: np.ndarray, q: np.ndarray, anchor: np.ndarray, lam: float
) -> float:
    support = candidate > 0.0
    if np.any(anchor[support] <= 0.0):
        return -np.inf
    kl = float(
        (candidate[support] * np.log(candidate[support] / anchor[support])).sum()
    )
    return float(candidate @ q) - lam * kl


class TestPiklBestResponse:
    def test_frozen_two_action_value(self) -> None:
        response = pikl_best_response([1.0, 0.0], [0.5, 0.5], 1.0)
        expected_top = 1.0 / (1.0 + exp(-1.0))
        np.testing.assert_allclose(
            response, [expected_top, 1.0 - expected_top], rtol=0, atol=1e-15
        )

    def test_invariant_to_q_shifts(self) -> None:
        rng = np.random.default_rng(21)
        q = rng.normal(size=4)
        anchor = random_distribution(rng, 4)
        base = pikl_best_response(q, anchor, 0.7)
        shifted = pikl_best_response(q + 123.0, anchor, 0.7)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-14)

    def test_large_lambda_recovers_anchor(self) -> None:
        anchor = np.array([0.1, 0.2, 0.3, 0.4])
        response = pikl_best_response(np.array([3.0, -1.0, 0.0, 2.0]), anchor, 1e12)
        np.testing.assert_allclose(response, anchor, rtol=0, atol=1e-9)

    def test_zero_lambda_is_greedy_with_lowest_index_ties(self) -> None:
        response = pikl_best_response([2.0, 2.0, 1.0], [0.2, 0.3, 0.5], 0.0)
        assert response.tolist() == [1.0, 0.0, 0.0]

    def test_anchor_zeros_are_preserved(self) -> None:
        response = pikl_best_response([0.0, 0.0, 10.0], [0.5, 0.5, 0.0], 1.0)
        assert response[2] == 0.0
        assert response.sum() == pytest.approx(1.0, abs=1e-15)

    def test_negative_lambda_rejected(self) -> None:
        with pytest.raises(ValueError):
            pikl_best_response([1.0, 0.0], [0.5, 0.5], -0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam: float) -> None:
        with pytest.raises(ValueError, match="finite"):
            pikl_best_response([1.0, 0.0], [0.5, 0.5], lam)

    @pytest.mark.parametrize("q, lam", [([1e308, -1e308], 1.0), ([1.0, 0.0], 1e-320)])
    def test_overflowed_exponent_takes_its_limit(self, q: list[float], lam: float) -> None:
        # ``q - max`` or its quotient by ``lam`` overflows to -inf; exp(-inf) = 0
        # is the exact limit, reached without a RuntimeWarning.
        assert pikl_best_response(q, [0.5, 0.5], lam).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_q_values_rejected(self, bad: float) -> None:
        with pytest.raises(ValueError, match="q_values must be finite"):
            pikl_best_response([bad, 0.0], [0.5, 0.5], 1.0)

    def test_maximises_the_anchored_objective(self) -> None:
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            q = rng.normal(size=n)
            anchor = random_distribution(rng, n)
            lam = float(rng.uniform(0.1, 3.0))
            response = pikl_best_response(q, anchor, lam)
            best = pikl_objective(response, q, anchor, lam)
            for _ in range(200):
                candidate = random_distribution(rng, n)
                assert pikl_objective(candidate, q, anchor, lam) <= best + 1e-10

    def test_divergence_from_anchor_shrinks_as_lambda_grows(self) -> None:
        rng = np.random.default_rng(13)
        q = rng.normal(size=5)
        anchor = random_distribution(rng, 5)
        lambdas = [0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
        divergences = [
            kl_divergence(pikl_best_response(q, anchor, lam), anchor)
            for lam in lambdas
        ]
        assert all(a >= b - 1e-12 for a, b in zip(divergences, divergences[1:]))


class TestAnchorObjective:
    def test_single_state_hand_value(self) -> None:
        policy = Policy(np.array([[0.5, 0.5]]))
        anchor = Policy(np.array([[0.25, 0.75]]))
        params = ObjectiveParams(np.array([[1.0, 0.0]]), lambda_anchor=2.0)
        kl_nats = 0.5 * log(0.5 / 0.25) + 0.5 * log(0.5 / 0.75)
        expected = 0.5 - 2.0 * kl_nats
        value = anchor_objective(policy, params, anchor, [1.0])
        assert value == pytest.approx(expected, abs=1e-15)

    def test_state_weights_combine_linearly(self) -> None:
        policy = Policy(np.array([[1.0, 0.0], [0.0, 1.0]]))
        anchor = Policy(np.array([[0.5, 0.5], [0.5, 0.5]]))
        params = ObjectiveParams(
            np.array([[2.0, 0.0], [0.0, 4.0]]), lambda_anchor=1.0
        )
        per_state = [2.0 - log(2.0), 4.0 - log(2.0)]
        expected = 0.3 * per_state[0] + 0.7 * per_state[1]
        value = anchor_objective(policy, params, anchor, [0.3, 0.7])
        assert value == pytest.approx(expected, abs=1e-14)

    def test_zero_weight_state_is_skipped_even_when_divergent(self) -> None:
        policy = Policy(np.array([[0.5, 0.5], [1.0, 0.0]]))
        anchor = Policy(np.array([[0.5, 0.5], [0.0, 1.0]]))
        params = ObjectiveParams(np.array([[1.0, 0.0], [0.0, 0.0]]))
        value = anchor_objective(policy, params, anchor, [1.0, 0.0])
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_explicit_rewards_replace_q_values(self) -> None:
        policy = Policy(np.array([[0.5, 0.5]]))
        anchor = Policy(np.array([[0.5, 0.5]]))
        params = ObjectiveParams(
            np.array([[9.0, 9.0]]), rewards=np.array([[1.0, 0.0]])
        )
        assert anchor_objective(policy, params, anchor, [1.0]) == pytest.approx(
            0.5, abs=1e-15
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tables_rejected(self, bad: float) -> None:
        with pytest.raises(ValueError, match="q_values must be finite"):
            ObjectiveParams(np.array([[bad, 0.0]]))
        with pytest.raises(ValueError, match="rewards must be finite"):
            ObjectiveParams(np.array([[1.0, 0.0]]), rewards=np.array([[bad, 0.0]]))

    def test_shape_validation(self) -> None:
        policy = Policy(np.array([[0.5, 0.5]]))
        params = ObjectiveParams(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            anchor_objective(
                policy, params, Policy(np.array([[0.5, 0.5], [0.5, 0.5]])), [1.0]
            )
        with pytest.raises(ValueError):
            anchor_objective(policy, params, Policy(np.array([[0.5, 0.5]])), [0.9])
        with pytest.raises(ValueError):
            ObjectiveParams(np.array([[1.0, 0.0]]), lambda_anchor=-1.0)
        with pytest.raises(ValueError, match="finite"):
            ObjectiveParams(np.array([[1.0, 0.0]]), lambda_anchor=np.nan)
        with pytest.raises(ValueError, match="finite"):
            ObjectiveParams(np.array([[1.0, 0.0]]), lambda_tom=np.inf)
        with pytest.raises(ValueError):
            ObjectiveParams(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ObjectiveParams(
                np.array([[1.0, 0.0]]), rewards=np.array([[1.0, 0.0, 0.0]])
            )


class TestUnifiedObjective:
    def setup_method(self) -> None:
        self.policy = Policy(np.array([[0.6, 0.4]]))
        self.anchor = Policy(np.array([[0.5, 0.5]]))
        self.partner = Policy(np.array([[0.3, 0.7]]))
        self.params = ObjectiveParams(
            np.array([[1.0, 0.0]]), lambda_anchor=0.5, lambda_tom=2.0
        )

    def test_zero_tom_weight_equals_anchor_objective_exactly(self) -> None:
        params = ObjectiveParams(np.array([[1.0, 0.0]]), lambda_tom=0.0)
        base = anchor_objective(self.policy, params, self.anchor, [1.0])
        value = unified_objective(self.policy, params, self.anchor, None, [1.0])
        assert value == base

    def test_partner_required_when_tom_weight_positive(self) -> None:
        with pytest.raises(ValueError):
            unified_objective(self.policy, self.params, self.anchor, None, [1.0])

    def test_diagnostic_hand_value(self) -> None:
        base = anchor_objective(self.policy, self.params, self.anchor, [1.0])
        # Greedy on q = (1, 0) is the point mass on action 0.
        penalty = 1.0 * log(1.0 / 0.3)
        value = unified_objective(
            self.policy, self.params, self.anchor, self.partner, [1.0]
        )
        assert value == pytest.approx(base - 2.0 * penalty, abs=1e-14)

    def test_coupled_hand_value(self) -> None:
        base = anchor_objective(self.policy, self.params, self.anchor, [1.0])
        penalty = 0.6 * log(0.6 / 0.3) + 0.4 * log(0.4 / 0.7)
        value = unified_objective(
            self.policy,
            self.params,
            self.anchor,
            self.partner,
            [1.0],
            mode=ObjectiveMode.COUPLED,
        )
        assert value == pytest.approx(base - 2.0 * penalty, abs=1e-14)

    def test_diagnostic_penalty_is_policy_independent(self) -> None:
        other = Policy(np.array([[0.2, 0.8]]))
        gap_a = unified_objective(
            self.policy, self.params, self.anchor, self.partner, [1.0]
        ) - anchor_objective(self.policy, self.params, self.anchor, [1.0])
        gap_b = unified_objective(
            other, self.params, self.anchor, self.partner, [1.0]
        ) - anchor_objective(other, self.params, self.anchor, [1.0])
        assert gap_a == pytest.approx(gap_b, abs=1e-15)

    def test_partner_axes_and_shape_validation(self) -> None:
        with pytest.raises(ValueError):
            unified_objective(
                self.policy,
                self.params,
                self.anchor,
                Policy(np.array([[[0.3, 0.7]]]), "sma"),
                [1.0],
            )
        with pytest.raises(ValueError):
            unified_objective(
                self.policy,
                self.params,
                self.anchor,
                Policy(np.array([[0.3, 0.7], [0.5, 0.5]])),
                [1.0],
            )
