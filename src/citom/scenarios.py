"""Seeded episode generators and the measurement bridge.

Two scenario families produce the symbol series the excess-TDMI measure
is applied to.  The orchestrated triad follows a binary signal: in mode
"a" the orchestrator merely reports the signal while the workers sit in
mutual defection, so the joint series carries no excess information; in
mode "b" the orchestrator's emission retunes the workers' effective game
and the workers respond to the coupling in force ``delay`` steps later,
so the signal is readable twice (instantly through the orchestrator,
lagged through the workers) and the group state predicts itself roughly
one bit better than its members at lag ``delay``.  With ``delay = 0``
the workers react instantly, the whole joint state collapses to a
function of the current signal, and the excess vanishes; that contrast
is the point of the construction.

Matching pennies runs the delta-rule learner against the escalating
predictor; per trial the computer draws first, then the learner, the
learner is rewarded on a match and the computer on a mismatch, and both
update.  All randomness flows through one seeded generator in that fixed
order, so identical configurations replay identical episodes.

Both configs share one run check, and both logs derive from
:class:`EpisodeLog`, which symbolises and sizes either one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import exp
from operator import index
from typing import ClassVar, Iterable

import numpy as np

from .agents import (
    DeltaRuleLearner,
    MatchingPenniesPredictor,
    Orchestrator,
    check_predictor_settings,
    critical_tails,
    equilibrium_action,
    new_count_table,
    response_from_counts,
)
from .game_core import COOPERATE, EffectiveGameParam, effective_game, triadic_utilities
from .info_measures import JointSeries, MeasureReport, SymbolSeries, excess_tdmi

__all__ = [
    "TriadicConfig",
    "MatchingPenniesConfig",
    "TriadicLog",
    "MatchingPenniesLog",
    "EpisodeLog",
    "run_triadic",
    "run_matching_pennies",
    "measure_log",
    "DEFAULT_TAUS",
]

DEFAULT_TAUS = (1, 2, 3)  # the lags measured when none are named


def _integer(name: str, value) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_run(config, *integers: str) -> None:
    """Store ``steps``, ``seed`` and each of ``integers`` of the frozen ``config`` as an
    ``int``, check ``steps >= 2`` and ``seed >= 0`` and validate ``taus``, or raise."""
    for name in ("steps", "seed", *integers):
        object.__setattr__(config, name, _integer(name, getattr(config, name)))
    if config.steps < 2:
        raise ValueError(f"steps must be >= 2, got {config.steps}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    object.__setattr__(config, "taus", validated_taus(config.taus, config.steps))


def validated_taus(taus: Iterable[int], steps: int) -> tuple[int, ...]:
    result = tuple(_integer("lag", tau) for tau in taus)
    if not result:
        raise ValueError("at least one lag is required")
    for tau in result:
        if tau < 1:
            raise ValueError(f"lags must be >= 1, got {tau}")
        if tau >= steps:
            raise ValueError(f"lag {tau} needs more than {steps} steps")
    return result


@dataclass(frozen=True)
class TriadicConfig:
    """Configuration of an orchestrated-triad episode."""

    mode: str
    steps: int = 100_000
    seed: int = 0
    delay: int = 1
    taus: tuple[int, ...] = DEFAULT_TAUS
    amplitude: float = 0.25
    revenue_share: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in ("a", "b"):
            raise ValueError(f"mode must be 'a' or 'b', got {self.mode!r}")
        _check_run(self, "delay")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        # The orchestrator's own checks: the amplitude's range, then a sign
        # that calibrates (from 2**-54 down, ``1 - amplitude`` rounds to 1).
        # Then the utilities' own check of the revenue share's range.
        Orchestrator(1, self.amplitude)
        Orchestrator.calibrated(self.amplitude)
        triadic_utilities(0.0, COOPERATE, COOPERATE, self.revenue_share)


@dataclass(frozen=True)
class MatchingPenniesConfig:
    """Configuration of a matching-pennies episode."""

    algorithm_id: int
    steps: int = 10_000
    seed: int = 0
    taus: tuple[int, ...] = DEFAULT_TAUS
    significance_level: float = 0.05
    learning_rate: float = 0.2
    inverse_temperature: float = 3.0

    def __post_init__(self) -> None:
        _check_run(self, "algorithm_id")
        # The agents' own checks, run when the config is built.
        check_predictor_settings(self.algorithm_id, self.significance_level)
        DeltaRuleLearner(self.learning_rate, self.inverse_temperature)


class EpisodeLog:
    """Base of the episode records: a ``config`` field, then the per-step columns, made
    read-only in place, not copied by ``frozen``: a log owns the arrays its simulation has just
    made, and a copy would double the int8 columns and split ``x1`` and ``coupling``'s buffer.
    ``index`` names ``episode.csv``'s step column and ``agent_names`` the measured columns."""

    index: ClassVar[str]
    agent_names: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        for field in fields(self)[1:]:
            getattr(self, field.name).setflags(write=False)

    def __len__(self) -> int:
        return len(getattr(self, self.agent_names[0]))

    def joint_series(self) -> JointSeries:
        """Symbolise the measured state: each agent column as the binary
        symbol ``value > 0``, which maps the triad's -1/+1 spins and the
        pennies' 0/1 choices alike."""
        return JointSeries(
            tuple(SymbolSeries(getattr(self, name) > 0, 2) for name in self.agent_names)
        )


@dataclass(frozen=True)
class TriadicLog(EpisodeLog):
    """Per-step record of an orchestrated-triad episode.

    ``coupling`` is the effective-game parameter in force at each step
    (0 in mode "a", where the game is never modulated); utilities always
    equal the triadic utilities of the recorded (coupling, x2, x3), and
    ``value`` flags rounds of mutual worker cooperation.  Utilities and
    the raw signal are not part of the measured state.  ``signal``, ``x2``,
    ``x3`` and ``value`` are int8, the rest float64; in mode "b", ``coupling``
    and ``x1`` view one buffer: the warm-up amplitude, then the emission.
    """

    config: TriadicConfig
    signal: np.ndarray
    x1: np.ndarray
    coupling: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    value: np.ndarray

    index = "step"
    agent_names = ("x1", "x2", "x3")


@dataclass(frozen=True)
class MatchingPenniesLog(EpisodeLog):
    """Per-trial record of a matching-pennies episode: int8 0/1 actions and rewards."""

    config: MatchingPenniesConfig
    monkey: np.ndarray
    computer: np.ndarray
    monkey_reward: np.ndarray
    computer_reward: np.ndarray

    index = "trial"
    agent_names = ("monkey", "computer")


def run_triadic(config: TriadicConfig) -> TriadicLog:
    """Simulate the orchestrated triad.

    The binary signal is iid uniform over +-1.  Mode "a": the
    orchestrator reports the signal unchanged and the workers stay in
    mutual defection.  Mode "b": the orchestrator emits its calibrated
    coupling for the current signal, and the coupling in force at step
    ``t`` is the emission from step ``t - delay`` (the dilemma-side
    status quo fills the warm-up steps); the workers then play the
    unique strict equilibrium of the game in force, defecting on the
    degenerate boundary.
    """
    rng = np.random.default_rng(config.seed)
    steps = config.steps
    signal = rng.integers(0, 2, size=steps).astype(np.int8) * 2 - 1  # the int64 draw fixes the stream

    if config.mode == "a":
        x1, coupling = signal.astype(np.float64), np.zeros(steps)
    else:
        orchestrator = Orchestrator.calibrated(config.amplitude)
        warmup = min(config.delay, steps)
        emission = np.full(warmup + steps, config.amplitude)
        np.multiply(orchestrator.sign * config.amplitude, signal, out=emission[warmup:])
        coupling, x1 = emission[:steps], emission[warmup:]

    # The coupling takes few distinct values, so resolve the workers'
    # equilibrium response and the utilities once per value and gather
    # them by value code.  Mode "a" has coupling 0, the degenerate
    # boundary, where they defect.  (``return_inverse`` also keeps
    # ``np.unique`` from importing ``numpy.ma``.)
    values, codes = np.unique(coupling, return_inverse=True)
    actions = np.empty((2, values.size), dtype=np.int8)
    utilities = np.empty((3, values.size))
    for index, value in enumerate(values.tolist()):
        table = effective_game(EffectiveGameParam(value))
        a2, a3 = equilibrium_action(table, 0), equilibrium_action(table, 1)
        actions[:, index] = a2, a3
        utilities[:, index] = triadic_utilities(value, a2, a3, config.revenue_share)
    x2, x3 = actions.take(codes, axis=1)
    u1, u2, u3 = utilities.take(codes, axis=1)
    value_flag = ((x2 == COOPERATE) & (x3 == COOPERATE)).astype(np.int8)

    return TriadicLog(config, signal, x1, coupling, x2, x3, u1, u2, u3, value_flag)


def run_matching_pennies(config: MatchingPenniesConfig) -> MatchingPenniesLog:
    """Simulate matching pennies between learner and predictor.

    Per trial, in fixed draw order: the computer commits its action, the
    learner commits its action, the learner earns 1 on a match and the
    computer earns the complement, then the predictor observes the
    learner's resolved trial and the learner applies its delta rule.

    One fused loop plays both agents' per-step methods with their state
    in locals.  The predictor decides by ``response_from_counts``, as its
    ``response_probability`` does, and the learner's softmax and delta
    rule are its methods' float expressions, so the episode is bit for
    bit the one the methods would play.  Algorithm 0 keeps no count
    table, algorithm 1 the choice table and algorithm 2 both tables.
    """
    rng = np.random.default_rng(config.seed)
    algorithm_id = config.algorithm_id
    alpha = config.significance_level
    learning_rate = config.learning_rate
    beta = config.inverse_temperature
    steps = config.steps
    context = MatchingPenniesPredictor.context_length
    # Counts are credited from trial ``context``, once a full context of prior
    # trials exists, and read from the trial after; algorithm 0 does neither.
    credit_from, decide_from = (context, context + 1) if algorithm_id else (steps, steps)
    # Count tables indexed by rolling context codes, low bits the most
    # recent step; entries are [action-1 count, total count, tail state].
    # ``choice`` and ``pair`` are the entries in force; ``[None]`` stands in for a table not kept.
    choice_table = new_count_table(context) if algorithm_id else [None]
    pair_table = new_count_table(2 * context) if algorithm_id == 2 else [None]
    choice_mask = len(choice_table) - 1
    pair_mask = len(pair_table) - 1
    choice_ctx = pair_ctx = 0
    choice, pair = choice_table[0], pair_table[0]
    critical, covered = [], 0  # the critical-tail list and the totals it indexes
    value0 = value1 = DeltaRuleLearner.initial_value
    # Each agent draws one uniform per trial and plays 1 below its
    # probability of action 1, computer first: uniform 2t is the
    # computer's and 2t+1 the learner's, all from one batched draw.  Byte
    # arrays take the actions and become the int8 columns uncopied.
    draws = iter(rng.random(2 * steps).tolist())
    monkey_choices = bytearray(steps)
    computer_choices = bytearray(steps)
    for t, computer_draw, monkey_draw in zip(range(steps), draws, draws):
        response = 0.5
        if t >= decide_from:
            if choice[1] >= covered:
                critical = critical_tails(alpha, choice[1])
                covered = len(critical)
            response = response_from_counts(algorithm_id, critical, choice, pair)
        c = 1 if computer_draw < response else 0
        gap = beta * (value1 - value0)
        try:
            m = 1 if monkey_draw < 1.0 / (1.0 + exp(-gap)) else 0
        except OverflowError:
            m = 1 if monkey_draw < exp(gap) else 0
        reward = 1 if m == c else 0
        if algorithm_id:
            if t >= credit_from:
                choice[0] += m
                choice[1] += 1
            choice_ctx = ((choice_ctx << 1) | m) & choice_mask
            choice = choice_table[choice_ctx]
            if algorithm_id == 2:
                if t >= credit_from:
                    pair[0] += m
                    pair[1] += 1
                pair_ctx = ((pair_ctx << 2) | (m << 1) | reward) & pair_mask
                pair = pair_table[pair_ctx]
        if m:
            value1 += learning_rate * (reward - value1)
        else:
            value0 += learning_rate * (reward - value0)
        monkey_choices[t] = m
        computer_choices[t] = c
    monkey = np.frombuffer(monkey_choices, dtype=np.int8)
    computer = np.frombuffer(computer_choices, dtype=np.int8)
    monkey_reward = (monkey == computer).astype(np.int8)
    computer_reward = 1 - monkey_reward
    return MatchingPenniesLog(config, monkey, computer, monkey_reward, computer_reward)


def measure_log(log: EpisodeLog, taus: Iterable[int] | None = None) -> tuple[MeasureReport, ...]:
    """Excess-TDMI reports of an episode at each requested lag.

    Defaults to the lags in the episode's configuration.
    """
    if taus is None:
        taus = log.config.taus
    joint = log.joint_series()
    requested = validated_taus(taus, len(log))
    return tuple(excess_tdmi(joint, tau) for tau in requested)
