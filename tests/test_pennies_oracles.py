"""Exact binomial tails and the batched matching-pennies loop against references.

``pennies_reference`` holds scipy's ``bdtr`` p-value, an exact
``Fraction`` p-value and the per-trial loop in which each agent draws
its own uniform.  The production p-value must equal the exact one
bit for bit (whichever way its tail cache reached the state), must make
the same ``< 0.05`` decision as ``bdtr``, and ``run_matching_pennies``
must give the reference's episodes byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import bdtr

import pennies_reference as reference
from citom import agents
from citom.agents import MatchingPenniesPredictor, binomial_pvalue_half
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
    )
    def test_match_reference(self, seed: int, algorithm_id: int, steps: int) -> None:
        config = MatchingPenniesConfig(algorithm_id, steps=steps, seed=seed, taus=(1,))
        assert_same_episode(config)

    @pytest.mark.parametrize("algorithm_id, seed", [(1, 2024), (2, 7)])
    def test_long_sessions_match_reference(self, algorithm_id: int, seed: int) -> None:
        assert_same_episode(MatchingPenniesConfig(algorithm_id, steps=10_000, seed=seed))


def tying_pvalue(successes: int, trials: int) -> float:
    """A stand-in p-value that rejects often, ties often and hits alpha."""
    return (0.0, 0.02, 0.05, 0.02, 0.5)[min(successes, trials - successes) % 5]


class TestDecisionRule:
    @settings(max_examples=60, deadline=None)
    @given(
        algorithm_id=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(0, 400),
    )
    def test_matches_reference_under_ties(
        self, algorithm_id: int, seed: int, trials: int
    ) -> None:
        predictor = MatchingPenniesPredictor(algorithm_id, pvalue_fn=tying_pvalue)
        expected = reference.ReferencePredictor(algorithm_id, pvalue_fn=tying_pvalue)
        for choice, reward in np.random.default_rng(seed).integers(0, 2, (trials, 2)).tolist():
            assert predictor.response_probability() == expected.response_probability()
            predictor.observe(choice, reward)
            expected.observe(choice, reward)


@st.composite
def counts(draw, max_trials: int = 3000) -> tuple[int, int]:
    trials = draw(st.integers(0, max_trials))
    return draw(st.integers(0, trials)), trials


class TestExactPvalue:
    @settings(max_examples=200, deadline=None)
    @given(count=counts(), clear=st.booleans())
    def test_random_counts_are_exact(self, count: tuple[int, int], clear: bool) -> None:
        if clear:
            agents._tail_states.clear()
        assert binomial_pvalue_half(*count) == reference.exact_pvalue(*count)

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
        # call every state is one step from the cached one, except right
        # after the cache is cleared.  Walks that start near balance cross
        # balanced counts.
        agents._tail_states.clear()
        successes, trials = start
        for index, success in enumerate(steps):
            if index == clear_at:
                agents._tail_states.clear()
            assert binomial_pvalue_half(successes, trials) == reference.exact_pvalue(
                successes, trials
            ), (successes, trials)
            successes += success
            trials += 1

    def test_balanced_walk_is_exact(self) -> None:
        agents._tail_states.clear()
        for trials in range(0, 300):
            successes = trials // 2
            assert binomial_pvalue_half(successes, trials) == reference.exact_pvalue(
                successes, trials
            )

    def test_rejection_agrees_with_bdtr(self) -> None:
        agents._tail_states.clear()
        for trials in range(0, 2001):
            successes = np.arange(trials + 1)
            tails = np.minimum(successes, trials - successes)
            expected = np.minimum(1.0, 2.0 * bdtr(tails, trials, 0.5)) < 0.05
            expected[2 * tails == trials] = False
            actual = [binomial_pvalue_half(k, trials) < 0.05 for k in range(trials + 1)]
            assert actual == expected.tolist(), trials


class TestTailCache:
    def test_bounded_after_long_walk(self) -> None:
        agents._tail_states.clear()
        successes = 0
        for trials in range(1, 3 * agents._TAIL_CACHE_SIZE):
            successes += trials % 3 == 0
            binomial_pvalue_half(successes, trials)
        assert len(agents._tail_states) == agents._TAIL_CACHE_SIZE
        assert (successes, trials) in agents._tail_states

    def test_hit_refreshes_entry(self) -> None:
        agents._tail_states.clear()
        binomial_pvalue_half(1, 3)
        first = 10
        for trials in range(first, first + agents._TAIL_CACHE_SIZE - 1):
            binomial_pvalue_half(0, trials)
        assert len(agents._tail_states) == agents._TAIL_CACHE_SIZE
        binomial_pvalue_half(2, 3)
        binomial_pvalue_half(0, first + agents._TAIL_CACHE_SIZE)
        assert (1, 3) in agents._tail_states
        assert (0, first) not in agents._tail_states


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
