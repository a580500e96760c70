"""Reference implementations of the matching-pennies p-value and loop.

``bdtr_pvalue`` is the p-value the predictor took from scipy's ``bdtr``
before citom computed the binomial tail exactly, and
``run_matching_pennies`` is the per-trial loop in which each agent draws
its own uniform, computer first, and the predictor picks among its
rejected statistics from a candidate list.  ``exact_pvalue`` is the
p-value as a ``Fraction`` of ``math.comb`` sums.  The property tests in
``test_pennies_oracles.py`` hold the production code to these.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
from scipy.special import bdtr

from citom.agents import DeltaRuleLearner, MatchingPenniesPredictor
from citom.scenarios import MatchingPenniesConfig


def bdtr_pvalue(successes: int, trials: int) -> float:
    """``min(1, 2 * BinomCDF(min(k, n - k), n, 1/2))`` through scipy."""
    if trials < 0 or not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if trials == 0:
        return 1.0
    tail = min(successes, trials - successes)
    if 2 * tail == trials:
        return 1.0
    return min(1.0, 2.0 * float(bdtr(float(tail), trials, 0.5)))


def exact_pvalue(successes: int, trials: int) -> float:
    """The two-sided p-value as an exact rational, rounded once to float."""
    tail = min(successes, trials - successes)
    doubled = Fraction(2 * sum(comb(trials, i) for i in range(tail + 1)), 2**trials)
    return float(min(Fraction(1), doubled))


class ReferencePredictor(MatchingPenniesPredictor):
    """The predictor with the candidate-list decision, by default on ``bdtr`` p-values."""

    def __init__(
        self, algorithm_id: int, significance_level: float = 0.05, pvalue_fn=bdtr_pvalue
    ) -> None:
        super().__init__(algorithm_id, significance_level)
        self.pvalue_fn = pvalue_fn

    def response_probability(self) -> float:
        if self.algorithm_id == 0 or self._trials < self.context_length + 1:
            return 0.5
        candidates: list[tuple[float, int, float]] = []
        ones, total = self._choice_table[self._choice_ctx]
        if total:
            candidates.append((self.pvalue_fn(ones, total), 0, ones / total))
        if self.algorithm_id == 2:
            ones, total = self._pair_table[self._pair_ctx]
            if total:
                candidates.append((self.pvalue_fn(ones, total), 1, ones / total))
        rejected = [c for c in candidates if c[0] < self.significance_level]
        if not rejected:
            return 0.5
        _, _, bias = min(rejected, key=lambda c: (c[0], c[1]))
        return 1.0 - bias

    def choose(self, rng: np.random.Generator) -> int:
        return 1 if rng.random() < self.response_probability() else 0


def run_matching_pennies(
    config: MatchingPenniesConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(monkey, computer, monkey_reward, computer_reward)``, one draw per agent per trial."""
    rng = np.random.default_rng(config.seed)
    predictor = ReferencePredictor(config.algorithm_id, config.significance_level)
    learner = DeltaRuleLearner(config.learning_rate, config.inverse_temperature)
    steps = config.steps
    monkey = np.empty(steps, dtype=np.int64)
    computer = np.empty(steps, dtype=np.int64)
    monkey_reward = np.empty(steps, dtype=np.int64)
    for t in range(steps):
        c = predictor.choose(rng)
        m = 1 if rng.random() < learner.action_probability() else 0
        reward = 1 if m == c else 0
        predictor.observe(m, reward)
        learner.update(m, float(reward))
        monkey[t] = m
        computer[t] = c
        monkey_reward[t] = reward
    return monkey, computer, monkey_reward, 1 - monkey_reward
