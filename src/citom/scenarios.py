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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .agents import DeltaRuleLearner, MatchingPenniesPredictor, Orchestrator, equilibrium_action
from .game_core import (
    COOPERATE,
    DEFECT,
    EffectiveGameParam,
    effective_game,
    triadic_utilities,
)
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
]


def _validated_taus(taus: Iterable[int], steps: int) -> tuple[int, ...]:
    result = tuple(int(tau) for tau in taus)
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
    taus: tuple[int, ...] = (1, 2, 3)
    amplitude: float = 0.25
    revenue_share: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in ("a", "b"):
            raise ValueError(f"mode must be 'a' or 'b', got {self.mode!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        object.__setattr__(self, "taus", _validated_taus(self.taus, self.steps))


@dataclass(frozen=True)
class MatchingPenniesConfig:
    """Configuration of a matching-pennies episode."""

    algorithm_id: int
    steps: int = 10_000
    seed: int = 0
    taus: tuple[int, ...] = (1, 2, 3)
    significance_level: float = 0.05
    learning_rate: float = 0.2
    inverse_temperature: float = 3.0

    def __post_init__(self) -> None:
        if self.algorithm_id not in (0, 1, 2):
            raise ValueError(f"algorithm_id must be 0, 1 or 2, got {self.algorithm_id}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        object.__setattr__(self, "taus", _validated_taus(self.taus, self.steps))


def _spin_to_symbol(values: np.ndarray) -> SymbolSeries:
    return SymbolSeries((values > 0).astype(np.int64), 2)


@dataclass(frozen=True)
class TriadicLog:
    """Per-step record of an orchestrated-triad episode.

    ``coupling`` is the effective-game parameter in force at each step
    (0 in mode "a", where the game is never modulated); utilities always
    equal the triadic utilities of the recorded (coupling, x2, x3), and
    ``value`` flags rounds of mutual worker cooperation.
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

    agent_names = ("x1", "x2", "x3")

    def __len__(self) -> int:
        return int(self.signal.size)

    def joint_series(self) -> JointSeries:
        """Symbolise the measured state (x1, x2, x3); sign maps to {0, 1}.

        Utilities and the raw signal are not part of the measured state.
        """
        return JointSeries(
            (_spin_to_symbol(self.x1), _spin_to_symbol(self.x2), _spin_to_symbol(self.x3))
        )


@dataclass(frozen=True)
class MatchingPenniesLog:
    """Per-trial record of a matching-pennies episode (actions 0/1)."""

    config: MatchingPenniesConfig
    monkey: np.ndarray
    computer: np.ndarray
    monkey_reward: np.ndarray
    computer_reward: np.ndarray

    agent_names = ("monkey", "computer")

    def __len__(self) -> int:
        return int(self.monkey.size)

    def joint_series(self) -> JointSeries:
        """Symbolise the measured state (monkey, computer choices)."""
        return JointSeries(
            (
                SymbolSeries(self.monkey, 2),
                SymbolSeries(self.computer, 2),
            )
        )


EpisodeLog = TriadicLog | MatchingPenniesLog


def _worker_actions_for(coupling_value: float, tie_break: int) -> tuple[int, int]:
    table = effective_game(EffectiveGameParam(coupling_value))
    return (
        equilibrium_action(table, 0, tie_break),
        equilibrium_action(table, 1, tie_break),
    )


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
    signal = rng.integers(0, 2, size=steps).astype(np.int64) * 2 - 1

    if config.mode == "a":
        x1 = signal.astype(np.float64)
        coupling = np.zeros(steps)
    else:
        orchestrator = Orchestrator.calibrated(config.amplitude)
        x1 = (orchestrator.sign * config.amplitude) * signal
        warmup = min(config.delay, steps)
        coupling = np.concatenate((np.full(warmup, config.amplitude), x1[: steps - warmup]))

    x2 = np.empty(steps, dtype=np.int64)
    x3 = np.empty(steps, dtype=np.int64)
    u1 = np.empty(steps)
    u2 = np.empty(steps)
    u3 = np.empty(steps)
    # The coupling takes few distinct values, so resolve the workers'
    # equilibrium response and the utilities once per value.  Mode "a"
    # has coupling 0, the degenerate boundary, where they defect.
    for value in np.unique(coupling):
        mask = coupling == value
        a2, a3 = _worker_actions_for(float(value), DEFECT)
        x2[mask] = a2
        x3[mask] = a3
        step_u = triadic_utilities(float(value), a2, a3, config.revenue_share)
        u1[mask], u2[mask], u3[mask] = step_u
    value_flag = ((x2 == COOPERATE) & (x3 == COOPERATE)).astype(np.int64)

    for array in (signal, x1, coupling, x2, x3, u1, u2, u3, value_flag):
        array.setflags(write=False)
    return TriadicLog(
        config=config,
        signal=signal,
        x1=x1,
        coupling=coupling,
        x2=x2,
        x3=x3,
        u1=u1,
        u2=u2,
        u3=u3,
        value=value_flag,
    )


def run_matching_pennies(config: MatchingPenniesConfig) -> MatchingPenniesLog:
    """Simulate matching pennies between learner and predictor.

    Per trial, in fixed draw order: the computer commits its action, the
    learner commits its action, the learner earns 1 on a match and the
    computer earns the complement, then the predictor observes the
    learner's resolved trial and the learner applies its delta rule.
    """
    rng = np.random.default_rng(config.seed)
    predictor = MatchingPenniesPredictor(
        config.algorithm_id, config.significance_level
    )
    learner = DeltaRuleLearner(config.learning_rate, config.inverse_temperature)
    steps = config.steps
    monkey = np.empty(steps, dtype=np.int64)
    computer = np.empty(steps, dtype=np.int64)
    monkey_reward = np.empty(steps, dtype=np.int64)
    # Each agent draws one uniform per trial and plays 1 below its
    # probability of action 1, computer first: uniform 2t is the
    # computer's and 2t+1 the learner's, all from one batched draw.
    draws = iter(rng.random(2 * steps).tolist())
    for t, (computer_draw, monkey_draw) in enumerate(zip(draws, draws)):
        c = 1 if computer_draw < predictor.response_probability() else 0
        m = 1 if monkey_draw < learner.action_probability() else 0
        reward = 1 if m == c else 0
        predictor.observe(m, reward)
        learner.update(m, float(reward))
        monkey[t] = m
        computer[t] = c
        monkey_reward[t] = reward
    computer_reward = 1 - monkey_reward
    for array in (monkey, computer, monkey_reward, computer_reward):
        array.setflags(write=False)
    return MatchingPenniesLog(
        config=config,
        monkey=monkey,
        computer=computer,
        monkey_reward=monkey_reward,
        computer_reward=computer_reward,
    )


def measure_log(log: EpisodeLog, taus: Iterable[int] | None = None) -> tuple[MeasureReport, ...]:
    """Excess-TDMI reports of an episode at each requested lag.

    Defaults to the lags in the episode's configuration.
    """
    if taus is None:
        taus = log.config.taus
    joint = log.joint_series()
    requested = _validated_taus(taus, len(log))
    return tuple(excess_tdmi(joint, tau) for tau in requested)
