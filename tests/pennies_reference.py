"""Reference implementations of the matching-pennies p-value and loop.

``bdtr_pvalue`` is the p-value the predictor took from scipy's ``bdtr``
before citom computed the binomial tail exactly, and
``run_matching_pennies`` is the per-trial loop in which each agent draws
its own uniform, computer first, and the predictor picks among its
rejected statistics from a candidate list.  ``exact_pvalue`` is the
p-value as a ``Fraction`` of ``math.comb`` sums.  The reference agents
share no rule code with ``citom.agents``: the predictor keeps its whole
history and counts completed n-grams in dictionaries keyed by context
tuples, and the learner applies its own delta rule and softmax.  The
property tests in ``test_pennies_oracles.py`` hold the production code
to these.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, exp

import numpy as np
from scipy.special import bdtr

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


# Relative gap under which two p-values, or a p-value and alpha, are
# decided on exact p-values: far wider than bdtr's rounding error.  A
# wider gap only costs time, since the exact p-values are right anyway.
NEAR = 1e-9


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= NEAR * max(a, b)


class ReferencePredictor:
    """The predictor with the candidate-list decision, by default on ``bdtr`` p-values.

    Where rounded p-values of rejecting statistics lie within ``NEAR`` of
    each other or of alpha, the decision is taken on exact p-values: two
    different counts can have exactly equal p-values (1 of 15 and 0 of 11
    both have 2**-10), and ``bdtr`` may round them apart.
    """

    context_length = 4

    def __init__(
        self, algorithm_id: int, significance_level: float = 0.05, pvalue_fn=bdtr_pvalue
    ) -> None:
        self.algorithm_id = algorithm_id
        self.significance_level = significance_level
        self.pvalue_fn = pvalue_fn
        self.history: list[tuple[int, int]] = []
        # (action-1 count, total count) of each completed n-gram's context:
        # the last four choices, and the last four (choice, reward) pairs.
        self.choice_counts: dict[tuple[int, ...], tuple[int, int]] = {}
        self.pair_counts: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {}

    def contexts(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        recent = tuple(self.history[-self.context_length :])
        return tuple(choice for choice, _ in recent), recent

    def observe(self, choice: int, reward: int) -> None:
        if len(self.history) >= self.context_length:
            choice_context, pair_context = self.contexts()
            for counts, context in (
                (self.choice_counts, choice_context),
                (self.pair_counts, pair_context),
            ):
                ones, total = counts.get(context, (0, 0))
                counts[context] = (ones + choice, total + 1)
        self.history.append((choice, reward))

    def rejected(self) -> list[tuple[float, int, int, int]]:
        """``(p-value, index, ones, total)`` of each statistic that rejects now."""
        if self.algorithm_id == 0 or len(self.history) < self.context_length + 1:
            return []
        choice_context, pair_context = self.contexts()
        counts = [self.choice_counts.get(choice_context, (0, 0))]
        if self.algorithm_id == 2:
            counts.append(self.pair_counts.get(pair_context, (0, 0)))
        alpha = self.significance_level
        candidates = [
            (self.pvalue_fn(ones, total), index, ones, total)
            for index, (ones, total) in enumerate(counts)
            if total
        ]
        close = [c[0] for c in candidates if c[0] < alpha * (1 + NEAR)]
        if any(_near(p, alpha) for p in close) or (len(close) == 2 and _near(*close)):
            # A rounded p-value may split an exact tie or cross alpha, so
            # the exact p-values decide.
            candidates = [
                (exact_pvalue(ones, total), index, ones, total)
                for _, index, ones, total in candidates
            ]
        return [c for c in candidates if c[0] < alpha]

    def response_probability(self) -> float:
        rejected = self.rejected()
        if not rejected:
            return 0.5
        _, _, ones, total = min(rejected, key=lambda c: (c[0], c[1]))
        return 1.0 - ones / total

    def choose(self, rng: np.random.Generator) -> int:
        return 1 if rng.random() < self.response_probability() else 0


class ReferenceLearner:
    """Delta-rule values from 0.5 and a two-action softmax over them."""

    def __init__(self, learning_rate: float, inverse_temperature: float) -> None:
        self.learning_rate = learning_rate
        self.inverse_temperature = inverse_temperature
        self.values = [0.5, 0.5]

    def action_probability(self) -> float:
        gap = self.inverse_temperature * (self.values[1] - self.values[0])
        try:
            return 1.0 / (1.0 + exp(-gap))
        except OverflowError:
            # exp(-gap) is beyond the float range, so 1 + exp(gap) rounds
            # to 1 and e^gap / (1 + e^gap) is e^gap.
            return exp(gap)

    def update(self, action: int, reward: float) -> None:
        self.values[action] += self.learning_rate * (reward - self.values[action])


def run_matching_pennies(
    config: MatchingPenniesConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(monkey, computer, monkey_reward, computer_reward)`` as int8, one draw
    per agent per trial."""
    rng = np.random.default_rng(config.seed)
    predictor = ReferencePredictor(config.algorithm_id, config.significance_level)
    learner = ReferenceLearner(config.learning_rate, config.inverse_temperature)
    steps = config.steps
    monkey = np.empty(steps, dtype=np.int8)
    computer = np.empty(steps, dtype=np.int8)
    monkey_reward = np.empty(steps, dtype=np.int8)
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
