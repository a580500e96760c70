"""Exact binomial tails and the batched matching-pennies loop against references.

``pennies_reference`` holds scipy's ``bdtr`` p-value, an exact
``Fraction`` p-value, the predictor that decides from a candidate list
of p-values and the per-trial loop in which each agent draws its own
uniform.  Every p-value ``walk_pvalue`` returns must equal the exact one
bit for bit, from a fresh tail state or one walked through any sequence
of counts, and the critical tails must make the same ``< 0.05`` decision
as ``bdtr``.  Algorithm 2 must walk p-values only on trials where both
statistics reject, the critical-tail lists must equal a brute-force
search over the walked p-value, the predictor must decide as the
candidate list does, and ``run_matching_pennies`` must give the
reference's episodes byte for byte, at drawn significance levels,
learning rates and inverse temperatures.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import bdtr

import pennies_reference as reference
from citom import agents
from citom.agents import MatchingPenniesPredictor
from citom.scenarios import MatchingPenniesConfig, run_matching_pennies


def assert_same_episode(config: MatchingPenniesConfig) -> None:
    log = run_matching_pennies(config)
    expected = reference.run_matching_pennies(config)
    actual = (log.monkey, log.computer, log.monkey_reward, log.computer_reward)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestEpisodes:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        algorithm_id=st.sampled_from([0, 1, 2]),
        steps=st.integers(2, 3000),
        alpha=st.one_of(st.sampled_from([0.05, 0.01, 0.2]), st.floats(1e-6, 0.99)),
        learning_rate=st.one_of(
            st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)
        ),
        # Past about 710 / |v1 - v0| the learner's exp(-gap) overflows.
        inverse_temperature=st.one_of(
            st.sampled_from([0.0, 3.0, 1e6]), st.floats(0.0, 1e4)
        ),
    )
    @example(seed=0, algorithm_id=1, steps=2000, alpha=0.05, learning_rate=0.2,
             inverse_temperature=1e6)
    @example(seed=1, algorithm_id=2, steps=3000, alpha=0.05, learning_rate=1.0,
             inverse_temperature=0.0)
    @example(seed=2, algorithm_id=2, steps=3000, alpha=0.2, learning_rate=1.0,
             inverse_temperature=2000.0)
    # At trial 801 the choice count 3 of 23 and the pair count 0 of 12
    # both have p-value 2**-11, which bdtr rounds apart.
    @example(seed=2981443321, algorithm_id=2, steps=2379, alpha=0.05,
             learning_rate=1.0, inverse_temperature=3.0)
    def test_match_reference(
        self,
        seed: int,
        algorithm_id: int,
        steps: int,
        alpha: float,
        learning_rate: float,
        inverse_temperature: float,
    ) -> None:
        config = MatchingPenniesConfig(
            algorithm_id,
            steps=steps,
            seed=seed,
            taus=(1,),
            significance_level=alpha,
            learning_rate=learning_rate,
            inverse_temperature=inverse_temperature,
        )
        assert_same_episode(config)

    # Episodes that end inside or just past the warm-up: counts from trial
    # 4, decisions from trial 5.  At seeds 45 and 74 the learner opens with
    # nine and seven 0s, so context 0000 recurs from trial 4 on; at seed 45
    # and alpha 0.2 its count of 0 of 4 rejects at trial 8.  A count
    # credited one trial early or late changes one of these episodes.
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("seed", [45, 74])
    @pytest.mark.parametrize("algorithm_id", [0, 1, 2])
    @pytest.mark.parametrize("steps", range(2, 13))
    def test_warm_up_matches_reference(
        self, steps: int, algorithm_id: int, seed: int, alpha: float
    ) -> None:
        assert_same_episode(
            MatchingPenniesConfig(
                algorithm_id, steps=steps, seed=seed, taus=(1,), significance_level=alpha
            )
        )

    @pytest.mark.parametrize(
        "algorithm_id, seed, alpha",
        [(1, 2024, 0.05), (2, 7, 0.05), (1, 2025, 0.01), (2, 8, 0.2)],
        ids=["1-2024", "2-7", "1-2025-alpha0.01", "2-8-alpha0.2"],
    )
    def test_long_sessions_match_reference(
        self, algorithm_id: int, seed: int, alpha: float
    ) -> None:
        assert_same_episode(
            MatchingPenniesConfig(
                algorithm_id, steps=10_000, seed=seed, significance_level=alpha
            )
        )


# Significance levels that are themselves p-values, so a statistic sits
# exactly at alpha and must not reject.
ATTAINED_ALPHAS = (2**-10, reference.exact_pvalue(3, 20))


class TestDecisionRule:
    def test_matches_reference_under_ties(self) -> None:
        # Choice context (0, 0, 0, 0) ends at 1 of 15 and the pair context
        # ((0, 1),) * 4 at 0 of 11: both p-values are exactly 2**-10.
        script = [(0, 0)] * 4 + [(1, 0)] + [(0, 0)] * 3 + [(0, 1)] * 15
        for alpha, response in [(0.05, 1 - 1 / 15), (2**-10, 0.5)]:
            predictor = MatchingPenniesPredictor(2, alpha)
            expected = reference.ReferencePredictor(2, alpha, reference.exact_pvalue)
            for choice, reward in script:
                assert predictor.response_probability() == expected.response_probability()
                predictor.observe(choice, reward)
                expected.observe(choice, reward)
            # Entries also carry a tail state; compare the count fields.
            assert predictor._choice_table[predictor._choice_ctx][:2] == [1, 15]
            assert predictor._pair_table[predictor._pair_ctx][:2] == [0, 11]
            assert reference.exact_pvalue(1, 15) == reference.exact_pvalue(0, 11) == 2**-10
            # The tie goes to the choice statistic; at alpha = 2**-10
            # neither statistic rejects.
            assert predictor.response_probability() == response
            assert expected.response_probability() == response

    @settings(max_examples=60, deadline=None)
    @given(
        algorithm_id=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(0, 400),
        choice_bias=st.floats(0.0, 1.0),
        reward_bias=st.floats(0.0, 1.0),
        alpha=st.one_of(
            st.sampled_from(ATTAINED_ALPHAS),
            st.floats(1e-12, 0.99),
        ),
    )
    def test_matches_reference_on_exact_pvalues(
        self,
        algorithm_id: int,
        seed: int,
        trials: int,
        choice_bias: float,
        reward_bias: float,
        alpha: float,
    ) -> None:
        predictor = MatchingPenniesPredictor(algorithm_id, alpha)
        expected = reference.ReferencePredictor(algorithm_id, alpha, reference.exact_pvalue)
        draws = np.random.default_rng(seed).random((trials, 2))
        stream = (draws < [choice_bias, reward_bias]).astype(int).tolist()
        for choice, reward in stream:
            assert predictor.response_probability() == expected.response_probability()
            predictor.observe(choice, reward)
            expected.observe(choice, reward)


def walk_count(state: list[int], successes: int, trials: int) -> float:
    """Walk ``state`` to the count ``successes`` of ``trials`` and return its p-value."""
    return agents.walk_pvalue(state, min(successes, trials - successes), trials)


@st.composite
def counts(draw, max_trials: int = 3000) -> tuple[int, int]:
    trials = draw(st.integers(0, max_trials))
    return draw(st.integers(0, trials)), trials


class TestExactPvalue:
    @settings(max_examples=200, deadline=None)
    @given(count=counts())
    def test_random_counts_are_exact(self, count: tuple[int, int]) -> None:
        assert walk_count([0, 0, 1, 1], *count) == reference.exact_pvalue(*count)

    @settings(max_examples=60, deadline=None)
    @given(
        start=counts(max_trials=400),
        steps=st.lists(st.booleans(), min_size=1, max_size=200),
        clear_at=st.integers(0, 200),
    )
    def test_random_walks_are_exact(
        self, start: tuple[int, int], steps: list[bool], clear_at: int
    ) -> None:
        # A predictor count gains one trial per visit, so after the first
        # walk every count is one step from the last one, except right
        # after a new state.  Walks that start near balance cross balanced
        # counts.
        state = [0, 0, 1, 1]
        successes, trials = start
        for index, success in enumerate(steps):
            if index == clear_at:
                state = [0, 0, 1, 1]
            assert walk_count(state, successes, trials) == reference.exact_pvalue(
                successes, trials
            ), (successes, trials)
            successes += success
            trials += 1

    def test_balanced_walk_is_exact(self) -> None:
        state = [0, 0, 1, 1]
        for trials in range(0, 300):
            successes = trials // 2
            pvalue = walk_count(state, successes, trials)
            assert pvalue == reference.exact_pvalue(successes, trials), trials

    def test_rejection_agrees_with_bdtr(self) -> None:
        critical = agents.critical_tails(0.05, 2000)
        state = [0, 0, 1, 1]
        for trials in range(0, 2001):
            successes = np.arange(trials + 1)
            tails = np.minimum(successes, trials - successes)
            expected = np.minimum(1.0, 2.0 * bdtr(tails, trials, 0.5)) < 0.05
            expected[2 * tails == trials] = False
            tail = critical[trials]
            assert tail == tails[expected].max(initial=-1), trials
            # The p-value grows with the tail, so a count rejects iff its
            # tail is at most the critical tail: that tail rejects (when
            # there is one) and the next does not.
            if tail >= 0:
                assert agents.walk_pvalue(state, tail, trials) < 0.05, trials
            assert agents.walk_pvalue(state, tail + 1, trials) >= 0.05, trials


@st.composite
def count_walks(draw) -> list[tuple[int, int]]:
    """Counts ``(successes, trials)`` whose trials rise by 0 to 50 per step.

    Successes are drawn anywhere in ``[0, trials]``, so tails rise and
    fall, and often at or next to ``trials / 2``, so walks cross balanced
    counts.
    """
    walk, trials = [], 0
    for _ in range(draw(st.integers(1, 30))):
        trials += draw(st.integers(0, 50))
        middle = trials // 2
        successes = draw(
            st.one_of(st.integers(0, trials), st.sampled_from([middle, trials - middle]))
        )
        walk.append((successes, trials))
    return walk


class TestWalker:
    @settings(max_examples=100, deadline=None)
    @given(walk=count_walks())
    @example(walk=[(0, 0), (1, 2), (1, 3), (2, 3), (24, 50), (3, 50), (50, 100), (0, 101)])
    def test_walks_are_exact(self, walk: list[tuple[int, int]]) -> None:
        state = [0, 0, 1, 1]
        for successes, trials in walk:
            tail = min(successes, trials - successes)
            pvalue = agents.walk_pvalue(state, tail, trials)
            assert pvalue == reference.exact_pvalue(successes, trials), (successes, trials)
            assert state[:2] == [tail, trials]

    @pytest.mark.parametrize("algorithm_id, seed", [(1, 3), (2, 4), (2, 9)])
    def test_walks_only_where_both_statistics_reject(
        self, monkeypatch: pytest.MonkeyPatch, algorithm_id: int, seed: int
    ) -> None:
        config = MatchingPenniesConfig(algorithm_id, steps=3000, seed=seed)
        # Grown beforehand, the critical tails take no p-value in the episode.
        agents.critical_tails(config.significance_level, config.steps)
        calls = []
        walk = agents.walk_pvalue

        def counted(state: list[int], tail: int, trials: int) -> float:
            calls.append((tail, trials))
            return walk(state, tail, trials)

        monkeypatch.setattr(agents, "walk_pvalue", counted)
        run_matching_pennies(config)
        # The reference replays the episode and names the trials on which
        # both statistics reject, with their counts.
        monkey, _, monkey_reward, _ = reference.run_matching_pennies(config)
        predictor = reference.ReferencePredictor(algorithm_id, config.significance_level)
        expected = []
        for choice, reward in zip(monkey.tolist(), monkey_reward.tolist()):
            rejected = predictor.rejected()
            if len(rejected) == 2:
                expected += [(min(ones, total - ones), total) for _, _, ones, total in rejected]
            predictor.observe(choice, reward)
        if algorithm_id == 1:
            assert calls == []
        else:
            assert len(expected) > 100
        assert sorted(calls) == sorted(expected)


@st.composite
def interleaved_steps(draw) -> list[tuple[int, int, int, int]]:
    """Steps ``(successes, trials, level, grow_to)``.

    Each step takes one p-value at ``(successes, trials)`` and then grows
    the critical-tail list of significance level number ``level`` to
    ``grow_to``.  Trials are drawn anywhere in ``[0, 150]`` and then rise,
    repeat and fall, so every sequence does all three.  Successes sit
    anywhere in ``[0, trials]`` or at balance.
    """
    all_trials = draw(st.lists(st.integers(0, 150), min_size=1, max_size=20))
    rise = all_trials[-1] + draw(st.integers(1, 30))
    all_trials += [rise, rise, draw(st.integers(0, rise - 1))]
    steps = []
    for trials in all_trials:
        middle = trials // 2
        successes = draw(
            st.one_of(st.integers(0, trials), st.sampled_from([middle, trials - middle]))
        )
        steps.append((successes, trials, draw(st.integers(0, 3)), draw(st.integers(0, 180))))
    return steps


exact_pvalue = cache(reference.exact_pvalue)


class TestCriticalTails:
    def test_matches_brute_force(self) -> None:
        alphas = (0.05, 0.01, 0.5, 1e-6, *ATTAINED_ALPHAS)
        last = 1000
        agents._critical.clear()
        # Growth order must not matter: one list is grown to the end at
        # once, two are grown in turns one trial at a time, and the rest
        # in uneven strides.
        lists = {alphas[0]: agents.critical_tails(alphas[0], last)}
        for trials in range(last + 1):
            for alpha in alphas[1:3]:
                lists[alpha] = agents.critical_tails(alpha, trials)
        for alpha in alphas[3:]:
            for trials in range(0, last, 37):
                agents.critical_tails(alpha, trials)
            lists[alpha] = agents.critical_tails(alpha, last)
        state = [0, 0, 1, 1]
        for trials in range(last + 1):
            # Row by row, every count is one step from the last one.
            pvalues = [agents.walk_pvalue(state, t, trials) for t in range(trials // 2 + 1)]
            for alpha in alphas:
                expected = max((t for t, p in enumerate(pvalues) if p < alpha), default=-1)
                assert lists[alpha][trials] == expected, (alpha, trials)

    @settings(max_examples=60, deadline=None)
    @given(
        alphas=st.lists(
            st.one_of(st.sampled_from((0.05, 0.01, *ATTAINED_ALPHAS)), st.floats(1e-6, 0.99)),
            min_size=2,
            max_size=3,
            unique=True,
        ),
        steps=interleaved_steps(),
    )
    @example(
        alphas=[0.05, 2**-10],
        steps=[(3, 20, 0, 40), (0, 0, 1, 10), (10, 20, 1, 20), (10, 20, 0, 60),
               (1, 15, 1, 100), (30, 61, 0, 5), (30, 61, 1, 120), (2, 9, 0, 0)],
    )
    def test_owners_interleaved_are_exact(
        self, alphas: list[float], steps: list[tuple[int, int, int, int]]
    ) -> None:
        # A standalone state and each level's own state are walked in
        # turns; none may move another.  A walk cannot lower its trials, so
        # a count with fewer trials than the last starts a new state.
        agents._critical.clear()
        state = [0, 0, 1, 1]
        lists = {}
        for successes, trials, level, grow_to in steps:
            if trials < state[1]:
                state = [0, 0, 1, 1]
            pvalue = walk_count(state, successes, trials)
            assert pvalue == exact_pvalue(successes, trials), (successes, trials)
            alpha = alphas[level % len(alphas)]
            lists[alpha] = agents.critical_tails(alpha, grow_to)
            assert len(lists[alpha]) > grow_to
        for alpha, critical in lists.items():
            for trials, tail in enumerate(critical):
                rejecting = (t for t in range(trials // 2 + 1) if exact_pvalue(t, trials) < alpha)
                assert tail == max(rejecting, default=-1), (alpha, trials)

    def test_levels_bounded_and_exact_after_wide_sweep(self) -> None:
        agents._critical.clear()
        alphas = np.linspace(1e-4, 0.5, 200)
        standalone = [0, 0, 1, 1]
        for trials, alpha in enumerate(alphas):
            agents.critical_tails(float(alpha), 60)
            # A standalone state walked between the growths stays exact.
            pvalue = walk_count(standalone, trials // 3, trials)
            assert pvalue == exact_pvalue(trials // 3, trials), trials
        assert 0 < len(agents._critical) <= agents._CRITICAL_LEVELS
        kept = [float(alpha) for alpha in alphas[-len(agents._critical) :]]
        assert list(agents._critical) == kept
        for alpha, (critical, state) in agents._critical.items():
            # Each list's own tail state was last walked at its last trials.
            assert state[1] == len(critical) - 1
            for trials, tail in enumerate(critical):
                rejecting = (t for t in range(trials // 2 + 1) if exact_pvalue(t, trials) < alpha)
                assert tail == max(rejecting, default=-1), (alpha, trials)


def test_import_loads_no_scipy() -> None:
    src = str(Path(agents.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, citom; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
