"""Agent policies for the two experimental settings.

Matching pennies pits a reward-driven learner (the "monkey") against a
computer opponent that escalates through three algorithms: algorithm 0
plays uniformly at random, algorithm 1 tests the learner's recent choice
patterns for bias, and algorithm 2 additionally tests choice-and-reward
patterns.  Both tests are exact two-sided binomial tests against 0.5.  A
test rejects by the critical tail of its count.  Only when both of
algorithm 2's statistics reject does it take their exact p-values, to
exploit the smaller.  While the null is retained the predictor behaves
exactly like algorithm 0.  The decision rule lives in
``response_from_counts``, which both the predictor's per-step method and
the fused trial loop of ``scenarios.run_matching_pennies`` call.

Every exact tail state (``walk_pvalue``) has one owner, which walks it
from its own last count: each count-table entry, or each significance
level's critical-tail list (``critical_tails``).  ``walk_pvalue`` is the
one function that computes a p-value.

Long algorithm-2 sessions cost more than linear time: both statistics
reject on over half the trials (108,838 of 200k at seed 0), and each
walk steps integers of up to ``n`` bits.  On one Xeon core, 50k / 100k /
200k trials take 0.15 / 0.44 / 1.5 s against 0.04 / 0.08 / 0.16 s for
algorithm 1 (``run_matching_pennies``, seed 0, best of five).

The orchestrated triad couples a signal-following orchestrator to two
myopic workers who always play the unique strict pure equilibrium of the
effective game currently in force (falling back to Defect, the status
quo, when no unique strict equilibrium exists).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from math import exp, isfinite
from typing import ClassVar

from .game_core import (
    COOPERATE,
    DEFECT,
    EffectiveGameParam,
    GameTable,
    effective_game,
    pure_nash,
)

__all__ = [
    "MatchingPenniesPredictor",
    "DeltaRuleLearner",
    "equilibrium_action",
    "emission_sign",
]


def walk_pvalue(state: list[int], tail: int, trials: int) -> float:
    """Move ``state`` in place to ``(tail, trials)`` and return its p-value.

    ``state`` is ``[t, n, S(t, n), C(n, t)]`` with ``S(t, n)`` the exact sum
    of ``C(n, i)`` over ``i <= t``; ``[0, n, 1, 1]`` is a valid start, and
    ``trials`` must not be below ``n``.  The walk first raises ``n`` with
    ``S(t, n+1) = S(t, n) + S(t-1, n) = 2 S(t, n) - C(n, t)``, then moves
    ``t`` by ``C(n, t+1)`` or ``C(n, t)``.  A balanced count (``n = 0``
    included) has p-value 1.  Otherwise the doubled tail ``S / 2**(n-1)``
    is at most 1 (exactly 1 at ``t = (n-1)/2``), and int / int rounds it
    correctly.
    """
    t, n, total, coefficient = state
    while n < trials:
        total = 2 * total - coefficient
        n += 1
        coefficient = coefficient * n // (n - t)
    while t < tail:
        coefficient = coefficient * (n - t) // (t + 1)
        t += 1
        total += coefficient
    while t > tail:
        total -= coefficient
        coefficient = coefficient * t // (n - t + 1)
        t -= 1
    state[:] = t, n, total, coefficient
    return 1.0 if 2 * t == n else total / (1 << (n - 1))


_CRITICAL_LEVELS = 8  # critical-tail lists kept, the most recently used last
# By significance level: the critical-tail list and the tail state it walks.
_critical: OrderedDict[float, tuple[list[int], list[int]]] = OrderedDict()


def critical_tails(alpha: float, trials: int) -> list[int]:
    """The critical-tail list ``c`` of ``alpha``, grown in place to cover ``trials``.

    ``c[n]`` is the largest tail ``t`` whose exact two-sided p-value
    ``min(1, 2 S(t, n) / 2**n)`` is below ``alpha``, or -1 if none, with
    ``S(t, n)`` the sum of ``C(n, i)`` over ``i <= t``.  The p-value keeps
    the order of ``S`` through rounding and the cap at 1, and a balanced
    count's p-value 1 exceeds ``alpha``, so:

    * ``S`` grows with ``t``, so ``k`` of ``n`` rejects iff ``min(k, n - k) <= c[n]``.
    * ``S(t, n+1) = S(t, n) + S(t-1, n) <= 2 S(t, n)``, so ``c[n+1] >= c[n]``.
    * ``S(t+1, n+1) = S(t+1, n) + S(t, n) >= 2 S(t, n)``, so ``c[n+1] <= c[n] + 1``.

    So each new ``n`` takes one p-value, walked (``walk_pvalue``) one step
    from the last by the list's own tail state.  The list is shared by every
    caller with the same ``alpha``; the trial loop in ``scenarios`` grows it
    as the predictor does.
    """
    _critical[alpha] = critical, state = _critical.pop(alpha, None) or ([-1], [0, 0, 1, 1])
    if len(_critical) > _CRITICAL_LEVELS:
        _critical.popitem(last=False)
    tail = critical[-1]
    for n in range(len(critical), trials + 1):
        if walk_pvalue(state, tail + 1, n) < alpha:
            tail += 1
        critical.append(tail)
    return critical


def check_predictor_settings(algorithm_id: int, significance_level: float) -> None:
    """Raise ``ValueError`` unless ``MatchingPenniesPredictor`` accepts these."""
    if algorithm_id not in (0, 1, 2):
        raise ValueError(f"algorithm_id must be 0, 1 or 2, got {algorithm_id}")
    if not 0.0 < significance_level < 1.0:
        raise ValueError("significance_level must lie in (0, 1)")


def new_count_table(context_bits: int) -> list[list]:
    """Fresh ``[action-1 count, total count, tail state]`` entries, one per context code."""
    return [[0, 0, [0, 0, 1, 1]] for _ in range(1 << context_bits)]


def response_from_counts(
    algorithm_id: int, critical: list[int], choice: list, pair: list
) -> float:
    """Algorithm 1 or 2's probability of action 1 from the counts in force.

    ``choice`` and ``pair`` are the ``[action-1 count, total count, tail
    state]`` entries of the current choice and (choice, reward) contexts.
    ``critical``, the critical-tail list of the significance level, must
    index the choice total, which bounds the pair total.  The rule is the
    one ``MatchingPenniesPredictor`` documents.  A count rejects iff its
    tail is at most its critical tail, that is iff its p-value is below
    the level, so exact p-values are walked (``walk_pvalue``, on each
    entry's own tail state) only when both statistics reject, to compare
    them.  An empty count has tail 0 > ``c[0]`` = -1, so it never rejects.
    """
    ones, total, state = choice
    tail = ones if 2 * ones < total else total - ones
    choice_rejects = tail <= critical[total]
    if algorithm_id == 2:
        pair_ones, pair_total, pair_state = pair
        pair_tail = pair_ones if 2 * pair_ones < pair_total else pair_total - pair_ones
        if pair_tail <= critical[pair_total] and (
            not choice_rejects
            or walk_pvalue(pair_state, pair_tail, pair_total) < walk_pvalue(state, tail, total)
        ):
            return 1.0 - pair_ones / pair_total
    return 1.0 - ones / total if choice_rejects else 0.5


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

    Histories shorter than 5 trials always yield 50:50 (cold start).  After
    it, algorithms 1 and 2 decide by ``response_from_counts``: a statistic
    rejects by its count's critical tail (``critical_tails``), and a
    retained null gives 0.5 exactly, as algorithm 0 does.  Per step, the
    caller draws action 1 when its uniform falls below
    ``response_probability()`` and then passes the resolved trial to
    ``observe``; ``scenarios.run_matching_pennies`` runs the same steps
    inline.
    """

    algorithm_id: int
    significance_level: float = 0.05
    context_length: ClassVar[int] = 4

    def __post_init__(self) -> None:
        check_predictor_settings(self.algorithm_id, self.significance_level)
        self._trials = 0
        # Count tables indexed by rolling context codes: low bits hold the
        # most recent step.  Entries are [action-1 count, total count, tail
        # state], the state as ``walk_pvalue`` takes it.  Only the tables the
        # algorithm reads are kept; ``[None]`` stands in for the others.
        context, algorithm_id = self.context_length, self.algorithm_id
        self._choice_table = new_count_table(context) if algorithm_id else [None]
        self._pair_table = new_count_table(2 * context) if algorithm_id == 2 else [None]
        self._choice_ctx = 0
        self._pair_ctx = 0
        self._choice_mask = len(self._choice_table) - 1
        self._pair_mask = len(self._pair_table) - 1

    def response_probability(self) -> float:
        """Probability of playing action 1 at the current history."""
        if self.algorithm_id == 0 or self._trials < self.context_length + 1:
            return 0.5
        choice = self._choice_table[self._choice_ctx]
        critical = critical_tails(self.significance_level, choice[1])
        return response_from_counts(
            self.algorithm_id, critical, choice, self._pair_table[self._pair_ctx]
        )

    def observe(self, opponent_choice: int, opponent_reward: int) -> None:
        """Record the opponent's resolved trial and update the n-gram tables.

        Counts are only credited once a full context of prior trials
        exists, so the tables always reflect completed n-grams.
        """
        if opponent_choice not in (0, 1) or opponent_reward not in (0, 1):
            raise ValueError("choice and reward must be binary")
        if self._trials >= self.context_length and self.algorithm_id:
            entry = self._choice_table[self._choice_ctx]
            entry[0] += opponent_choice
            entry[1] += 1
            if self.algorithm_id == 2:
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
    uniform choice regardless of values.  With ``gap = inverse_temperature
    * (v[1] - v[0])`` the probability is ``1 / (1 + exp(-gap))``; where
    ``exp(-gap)`` overflows, ``1 + exp(gap)`` rounds to 1 and it is
    ``exp(gap)``.
    """

    learning_rate: float = 0.2
    inverse_temperature: float = 3.0
    initial_value: ClassVar[float] = 0.5
    values: list[float] = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not isfinite(self.inverse_temperature):
            raise ValueError("inverse_temperature must be finite")
        if self.inverse_temperature < 0.0:
            raise ValueError("inverse_temperature must be >= 0")
        self.values = [self.initial_value, self.initial_value]

    def action_probability(self) -> float:
        """Probability of playing action 1 under the current values."""
        gap = self.inverse_temperature * (self.values[1] - self.values[0])
        try:
            return 1.0 / (1.0 + exp(-gap))
        except OverflowError:
            return exp(gap)

    def update(self, action: int, reward: float) -> None:
        if action not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {action!r}")
        self.values[action] += self.learning_rate * (reward - self.values[action])


def equilibrium_action(table: GameTable, player: int) -> int:
    """Myopic equilibrium play: the player's side of the unique strict NE.

    When the table has exactly one strict pure equilibrium the player
    takes their component of it.  Any ambiguity (no strict equilibrium,
    as on the degenerate boundary of the effective family, or several)
    resolves to Defect, the conservative status quo.  A table with no
    pure equilibrium at all is an error: this agent has no notion of
    mixed play.
    """
    equilibria = pure_nash(table)
    if not len(equilibria):
        raise ValueError("table has no pure equilibrium; cannot play myopically")
    strict = equilibria.strict_equilibria
    if len(strict) == 1:
        return strict[0].actions[player]
    return DEFECT


def emission_sign(amplitude: float) -> int:
    """The orchestrator's calibrated sign: it emits ``x1 = sign * signal * amplitude``,
    the coupling of the effective game the workers face.

    Both signs are probed, and the one kept makes both workers play ``COOPERATE``
    on a +1 signal under ``equilibrium_action``, the rule they play by, so the
    construction survives any re-signing of the underlying payoff family.
    """
    if not 0.0 < amplitude <= 0.5:
        raise ValueError("amplitude must lie in (0, 1/2]")
    good_signs = []
    for sign in (1, -1):
        table = effective_game(EffectiveGameParam(sign * amplitude))
        if equilibrium_action(table, 0) == equilibrium_action(table, 1) == COOPERATE:
            good_signs.append(sign)
    if len(good_signs) != 1:
        raise ValueError(f"calibration must single out one sign, found {good_signs}")
    return good_signs[0]
