"""Agent policies for the two experimental settings.

Matching pennies pits a reward-driven learner (the "monkey") against a
computer opponent that escalates through three algorithms: algorithm 0
plays uniformly at random, algorithm 1 tests the learner's recent choice
patterns for bias, and algorithm 2 additionally tests choice-and-reward
patterns.  Both tests are exact two-sided binomial tests against 0.5,
computed from an exact integer tail sum; the integer states live in a
bounded least-recently-used cache keyed by ``(tail, trials)``, so a count
that moves by one trial per visit costs one integer step instead of a
fresh sum.  While the null is retained the predictor behaves exactly like
algorithm 0, which the constructor's injectable ``pvalue_fn`` lets tests
force.

The orchestrated triad couples a signal-following orchestrator to two
myopic workers who always play the unique strict pure equilibrium of the
effective game currently in force (falling back to a configured
status-quo action when no unique strict equilibrium exists).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from math import exp
from typing import Callable, ClassVar

from .game_core import (
    COOPERATE,
    DEFECT,
    EffectiveGameParam,
    GameTable,
    effective_game,
    pure_nash,
)

__all__ = [
    "binomial_pvalue_half",
    "MatchingPenniesPredictor",
    "DeltaRuleLearner",
    "equilibrium_action",
    "Orchestrator",
]


# Tail states by ``(tail, trials)``: ``(S, C(trials, tail), p-value)`` with
# ``S`` the exact sum of ``C(trials, i)`` over ``i <= tail``.
_TAIL_CACHE_SIZE = 4096
_tail_states: OrderedDict[tuple[int, int], tuple[int, int, float]] = OrderedDict()


def binomial_pvalue_half(successes: int, trials: int) -> float:
    """Exact two-sided binomial p-value against p = 0.5.

    At the symmetric null the minimum-likelihood two-sided test doubles
    the tail of the less frequent outcome, so the p-value is
    ``min(1, 2 * sum(C(n, i) for i <= t) / 2**n)`` with ``t = min(k, n - k)``.
    The sum is kept as an exact integer and the result is that rational
    correctly rounded to a float; a perfectly balanced count has p-value 1.

    Integer states are cached per ``(t, n)`` in a least-recently-used
    cache of ``_TAIL_CACHE_SIZE`` entries (a hit refreshes the entry).  A
    miss whose ``(t, n - 1)`` or ``(t - 1, n - 1)`` state is cached takes
    one step from it, which is the common case for a count that grows by
    one trial at a time; otherwise the sum is built from scratch.
    """
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    failures = trials - successes
    key = (successes if successes < failures else failures, trials)
    # Taking the entry out and putting it back makes it the most recent.
    state = _tail_states.pop(key, None)
    if state is None:
        state = _tail_state(int(key[0]), int(trials))
        if len(_tail_states) >= _TAIL_CACHE_SIZE:
            _tail_states.popitem(last=False)
    _tail_states[key] = state
    return state[2]


def _tail_state(t: int, n: int) -> tuple[int, int, float]:
    """``(S, C(n, t), p-value)`` of tail ``t`` at ``n`` trials, ``2t <= n``."""
    previous = _tail_states.get((t, n - 1))
    if previous is not None:
        # S(t, n) = S(t, n-1) + S(t-1, n-1) = 2 S(t, n-1) - C(n-1, t).
        below, coefficient, _ = previous
        total = 2 * below - coefficient
        coefficient = coefficient * n // (n - t)
    elif t and (previous := _tail_states.get((t - 1, n - 1))) is not None:
        # S(t, n) = 2 S(t-1, n-1) + C(n-1, t).
        below, coefficient, _ = previous
        total = 2 * below + coefficient * (n - t) // t
        coefficient = coefficient * n // t
    else:
        total = coefficient = 1
        for i in range(1, t + 1):
            coefficient = coefficient * (n - i + 1) // i
            total += coefficient
    # Balanced counts (n = 0 included) have p-value 1.  Otherwise the
    # doubled tail is at most 1 (exactly 1 at t = (n-1)/2), and int / int
    # rounds correctly.
    pvalue = 1.0 if 2 * t == n else total / (1 << (n - 1))
    return total, coefficient, pvalue


# Opponent trials in one n-gram context.  The per-trial methods read this
# global, not the class constant: CPython 3.11 does not specialise reading
# a class attribute through an instance, which took about 35 ns more per
# read in a micro-benchmark.
_CONTEXT_LENGTH = 4


@dataclass
class MatchingPenniesPredictor:
    """Computer opponent over binary actions 0/1 ("left"/"right").

    ``algorithm_id`` selects the escalation level:

    * 0: uniform play, ignores history.
    * 1: conditions on the last ``context_length`` (4) opponent choices.  The
      full history of completed n-grams gives a count table; if the exact
      binomial test rejects uniformity at ``significance_level``, play
      action 1 with probability ``1 - p_hat`` (the complement of the
      opponent's estimated bias), otherwise 50:50.
    * 2: additionally conditions on the last ``context_length``
      (choice, reward) pairs, tests both statistics, and exploits the
      rejected one with the smaller p-value (ties fall back to the
      choice-only statistic).

    Histories shorter than 5 trials always yield 50:50 (cold start).
    While the null is retained the response probability is 0.5, exactly
    as under algorithm 0, which ``pvalue_fn=lambda k, n: 1.0`` exposes
    directly.  The caller draws the action: 1 when its uniform falls below
    ``response_probability()``.
    """

    algorithm_id: int
    significance_level: float = 0.05
    context_length: ClassVar[int] = _CONTEXT_LENGTH
    pvalue_fn: Callable[[int, int], float] = binomial_pvalue_half

    def __post_init__(self) -> None:
        if self.algorithm_id not in (0, 1, 2):
            raise ValueError(f"algorithm_id must be 0, 1 or 2, got {self.algorithm_id}")
        if not 0.0 < self.significance_level < 1.0:
            raise ValueError("significance_level must lie in (0, 1)")
        self._trials = 0
        # Count tables indexed by rolling context codes: low bits hold the
        # most recent step.  Entries are [action-1 count, total count].
        self._choice_table = [[0, 0] for _ in range(1 << self.context_length)]
        self._pair_table = [[0, 0] for _ in range(1 << (2 * self.context_length))]
        self._choice_ctx = 0
        self._pair_ctx = 0
        self._choice_mask = (1 << self.context_length) - 1
        self._pair_mask = (1 << (2 * self.context_length)) - 1

    @property
    def trials_observed(self) -> int:
        return self._trials

    def response_probability(self) -> float:
        """Probability of playing action 1 at the current history."""
        if self.algorithm_id == 0 or self._trials < _CONTEXT_LENGTH + 1:
            return 0.5
        response = 0.5
        # A statistic is exploited when it rejects at a p-value below the
        # best so far, so the pair statistic wins only a strictly smaller one.
        best = self.significance_level
        ones, total = self._choice_table[self._choice_ctx]
        if total:
            pvalue = self.pvalue_fn(ones, total)
            if pvalue < best:
                best, response = pvalue, 1.0 - ones / total
        if self.algorithm_id == 2:
            ones, total = self._pair_table[self._pair_ctx]
            if total:
                pvalue = self.pvalue_fn(ones, total)
                if pvalue < best:
                    response = 1.0 - ones / total
        return response

    def observe(self, opponent_choice: int, opponent_reward: int) -> None:
        """Record the opponent's resolved trial and update the n-gram tables.

        Counts are only credited once a full context of prior trials
        exists, so the tables always reflect completed n-grams.
        """
        if opponent_choice not in (0, 1) or opponent_reward not in (0, 1):
            raise ValueError("choice and reward must be binary")
        if self._trials >= _CONTEXT_LENGTH:
            entry = self._choice_table[self._choice_ctx]
            entry[0] += opponent_choice
            entry[1] += 1
            entry = self._pair_table[self._pair_ctx]
            entry[0] += opponent_choice
            entry[1] += 1
        self._choice_ctx = ((self._choice_ctx << 1) | opponent_choice) & self._choice_mask
        self._pair_ctx = (
            (self._pair_ctx << 2) | (opponent_choice << 1) | opponent_reward
        ) & self._pair_mask
        self._trials += 1


@dataclass
class DeltaRuleLearner:
    """Reward-tracking softmax chooser over binary actions 0/1.

    Each action keeps a running value estimate, starting at
    ``initial_value`` (0.5) and updated by the delta rule
    ``v[a] += learning_rate * (reward - v[a])``; ``action_probability`` is
    the softmax over the values scaled by ``inverse_temperature``, and the
    caller draws the action from it.  Zero inverse temperature gives
    uniform choice regardless of values.
    """

    learning_rate: float = 0.2
    inverse_temperature: float = 3.0
    initial_value: ClassVar[float] = 0.5
    values: list[float] = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.inverse_temperature < 0.0:
            raise ValueError("inverse_temperature must be >= 0")
        self.values = [self.initial_value, self.initial_value]

    def action_probability(self) -> float:
        """Probability of playing action 1 under the current values."""
        gap = self.inverse_temperature * (self.values[1] - self.values[0])
        return 1.0 / (1.0 + exp(-gap))

    def update(self, action: int, reward: float) -> None:
        if action not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {action!r}")
        self.values[action] += self.learning_rate * (reward - self.values[action])


def equilibrium_action(
    table: GameTable, player: int, tie_break: int = DEFECT
) -> int:
    """Myopic equilibrium play: the player's side of the unique strict NE.

    When the table has exactly one strict pure equilibrium the player
    takes their component of it.  Any ambiguity (no strict equilibrium,
    as on the degenerate boundary of the effective family, or several)
    resolves to the ``tie_break`` action, Defect by default as the
    conservative status quo.  A table with no pure equilibrium at all is
    an error: this agent has no notion of mixed play.
    """
    equilibria = pure_nash(table)
    if not len(equilibria):
        raise ValueError("table has no pure equilibrium; cannot play myopically")
    strict = equilibria.strict_equilibria
    if len(strict) == 1:
        return strict[0].actions[player]
    if tie_break not in (COOPERATE, DEFECT):
        raise ValueError(f"tie_break must be +1 or -1, got {tie_break!r}")
    return tie_break


@dataclass(frozen=True)
class Orchestrator:
    """Signal-following coupler that retunes the workers' effective game.

    Emits ``x1 = sign * signal * amplitude``; the emission is the
    coupling of the effective game the workers face.  ``sign`` is never
    hard-coded: :meth:`calibrated` probes both signs and keeps the one
    for which a +1 signal produces a game whose unique strict equilibrium
    is mutual cooperation, so the construction survives any re-signing of
    the underlying payoff family.
    """

    sign: int
    amplitude: float = 0.25

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not 0.0 < self.amplitude <= 0.5:
            raise ValueError("amplitude must lie in (0, 1/2]")

    @classmethod
    def calibrated(cls, amplitude: float = 0.25) -> "Orchestrator":
        """Resolve the emission sign from the payoff family itself."""
        good_signs = []
        for sign in (1, -1):
            table = effective_game(EffectiveGameParam(sign * amplitude))
            strict = pure_nash(table).strict_equilibria
            if len(strict) == 1 and strict[0].actions == (COOPERATE, COOPERATE):
                good_signs.append(sign)
        if len(good_signs) != 1:
            raise ValueError(
                f"calibration must single out one sign, found {good_signs}"
            )
        return cls(good_signs[0], amplitude)
