"""Belief updates, anchored policies, and message selection for
theory-of-mind play.

A latent type space carries a prior over partner types; a channel gives
per-type message likelihoods, and Bayes updates turn observed messages
into posteriors.  A type-conditioned policy mixed under such a posterior
is the modelled partner's expected behaviour, and a speaker choosing a
message simulates exactly that to steer the partner.

Anchored ("piKL") best responses trade reward against staying close to
an anchor policy: ``pi(a) proportional to anchor(a) * exp(Q(a) / lam)``.
The exponent uses the natural base, and every objective here measures KL
divergence in nats; :func:`kl_divergence` and :func:`tom_divergence`
report in bits, the unit the measurement side of this package speaks.

The unified objective stacks three terms: expected reward, an anchor
penalty weighted by ``lambda_anchor``, and a divergence between a
reward-greedy policy and the modelled-partner policy weighted by
``lambda_tom``.  In the default diagnostic mode the greedy policy is
fixed by the Q-values, so the last term audits how far pure reward
seeking sits from the partner model without influencing the optimum; the
coupled mode substitutes the evaluated policy itself, making the penalty
bite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite, log
from typing import Sequence

import numpy as np

from .info_measures import as_distribution, as_integer, frozen

__all__ = [
    "LatentTypeSpace",
    "Channel",
    "BeliefState",
    "Policy",
    "ObjectiveParams",
    "ObjectiveMode",
    "bayes_update",
    "tom_policy_mix",
    "induced_message_policy",
    "message_expected_utilities",
    "best_message",
    "select_message",
    "kl_divergence",
    "tom_divergence",
    "pikl_best_response",
    "anchor_objective",
    "unified_objective",
]

@dataclass(frozen=True)
class LatentTypeSpace:
    """Finite set of latent partner types with a prior; a writable prior is copied."""

    prior: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        prior = as_distribution(self.prior, "prior")
        if self.labels is not None and len(self.labels) != prior.size:
            raise ValueError("labels must match the number of types")
        object.__setattr__(self, "prior", frozen(prior, np.float64))


@dataclass(frozen=True)
class Channel:
    """Message likelihoods per type, ``likelihood[t, m] = P(m | t)``; a writable input is copied."""

    likelihood: np.ndarray

    def __post_init__(self) -> None:
        lik = np.asarray(self.likelihood, dtype=np.float64)
        if lik.ndim != 2:
            raise ValueError(f"likelihood must be 2-D, got shape {lik.shape}")
        for row in lik:
            as_distribution(row, "likelihood row")
        object.__setattr__(self, "likelihood", frozen(lik, np.float64))

    @property
    def n_types(self) -> int:
        return int(self.likelihood.shape[0])

    @property
    def n_messages(self) -> int:
        return int(self.likelihood.shape[1])


@dataclass(frozen=True)
class BeliefState:
    """A normalised belief over latent types; a writable posterior is copied."""

    posterior: np.ndarray

    def __post_init__(self) -> None:
        posterior = as_distribution(self.posterior, "posterior")
        object.__setattr__(self, "posterior", frozen(posterior, np.float64))


@dataclass(frozen=True)
class Policy:
    """Conditional action distributions with named axes.

    The last axis always ranges over actions and every slice along it must
    be a distribution; a writable table is copied.  ``axes`` names the
    leading axes, e.g. ``"sa"`` for state-conditioned, ``"tsa"`` for type-
    then state-conditioned, ``"sma"`` for state- then message-conditioned.
    """

    table: np.ndarray
    axes: str = "sa"

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        if not self.axes or self.axes[-1] != "a":
            raise ValueError(f"axes must end with 'a', got {self.axes!r}")
        if table.ndim != len(self.axes):
            raise ValueError(
                f"table with axes {self.axes!r} must be {len(self.axes)}-D, "
                f"got shape {table.shape}"
            )
        flat = table.reshape(-1, table.shape[-1])
        for row in flat:
            as_distribution(row, "policy row")
        object.__setattr__(self, "table", frozen(table, np.float64))

    @property
    def n_actions(self) -> int:
        return int(self.table.shape[-1])

    @classmethod
    def greedy(cls, q_values: np.ndarray) -> "Policy":
        """One-hot argmax policy over Q-values; ties go to the lowest index."""
        q = np.asarray(q_values, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError(f"q_values must be 2-D, got shape {q.shape}")
        table = np.zeros_like(q)
        table[np.arange(q.shape[0]), q.argmax(axis=1)] = 1.0
        return cls(table, "sa")


def bayes_update(
    prior: LatentTypeSpace | BeliefState, channel: Channel, message: int
) -> BeliefState:
    """Posterior over types after observing one message.

    ``posterior(t) proportional to P(message | t) * prior(t)``.  A
    message with zero evidence under the prior is an error: conditioning
    on an impossible observation has no answer.
    """
    prior_vec = prior.posterior if isinstance(prior, BeliefState) else prior.prior
    if prior_vec.size != channel.n_types:
        raise ValueError(
            f"prior has {prior_vec.size} types but channel has {channel.n_types}"
        )
    if not 0 <= message < channel.n_messages:
        raise ValueError(f"message {message} out of range")
    weighted = prior_vec * channel.likelihood[:, message]
    evidence = float(weighted.sum())
    if evidence <= 0.0:
        raise ValueError(
            f"message {message} has zero evidence under the prior"
        )
    return BeliefState(weighted / evidence)


def tom_policy_mix(
    conditional: Policy, belief: BeliefState, state: int
) -> np.ndarray:
    """Belief-weighted mixture of a type-conditioned policy at one state.

    Returns the action distribution ``sum_t b(t) * pi(a | s, t)``; a
    degenerate belief selects the corresponding type's policy exactly.
    """
    if conditional.axes != "tsa":
        raise ValueError(f"conditional policy must have axes 'tsa', got {conditional.axes!r}")
    if conditional.table.shape[0] != belief.posterior.size:
        raise ValueError(
            f"policy covers {conditional.table.shape[0]} types but belief has "
            f"{belief.posterior.size}"
        )
    if not 0 <= state < conditional.table.shape[1]:
        raise ValueError(f"state {state} out of range")
    return belief.posterior @ conditional.table[:, state, :]


def induced_message_policy(
    space: LatentTypeSpace, channel: Channel, conditional: Policy
) -> Policy:
    """Partner behaviour per (state, message): Bayes update then mixture.

    Every message must have positive evidence under the prior, otherwise
    the partner's reaction to it is undefined.
    """
    n_states = conditional.table.shape[1]
    table = np.empty((n_states, channel.n_messages, conditional.n_actions))
    for message in range(channel.n_messages):
        belief = bayes_update(space, channel, message)
        for state in range(n_states):
            table[state, message] = tom_policy_mix(conditional, belief, state)
    return Policy(table, "sma")


def message_expected_utilities(
    space: LatentTypeSpace,
    channel: Channel,
    conditional: Policy,
    state: int,
    speaker_utility: np.ndarray,
    receiver_type_belief: BeliefState,
    reactions: Policy | None = None,
) -> np.ndarray:
    """Speaker's expected utility of each candidate message.

    The speaker simulates the receiver: message ``m`` induces the
    posterior-mixed action distribution at ``state``.  The utility table
    is indexed ``speaker_utility[receiver_type, action]`` and the
    speaker's belief over receiver types weights the rows, so
    ``EU(m) = sum_j b(j) sum_a pi(a | state, m) U[j, a]``.  ``reactions``, if
    given, must be ``induced_message_policy(space, channel, conditional)``.
    """
    utility = np.asarray(speaker_utility, dtype=np.float64)
    if utility.ndim != 2:
        raise ValueError(f"speaker_utility must be 2-D, got shape {utility.shape}")
    if utility.shape[0] != receiver_type_belief.posterior.size:
        raise ValueError(
            "speaker_utility rows must match the receiver-type belief"
        )
    if utility.shape[1] != conditional.n_actions:
        raise ValueError("speaker_utility columns must match the action count")
    if not np.isfinite(utility).all():
        raise ValueError("speaker_utility must be finite")
    if not 0 <= state < conditional.table.shape[1]:
        raise ValueError(f"state {state} out of range")
    weighted_utility = receiver_type_belief.posterior @ utility
    if reactions is None:
        reactions = induced_message_policy(space, channel, conditional)
    return reactions.table[state] @ weighted_utility


def best_message(utilities: np.ndarray) -> int:
    """The message of highest expected utility; ties resolve to the lowest index."""
    return int(np.argmax(utilities))


def select_message(
    space: LatentTypeSpace,
    channel: Channel,
    conditional: Policy,
    state: int,
    speaker_utility: np.ndarray,
    receiver_type_belief: BeliefState,
) -> int:
    """Utility-maximising message; ties resolve as in ``best_message``."""
    utilities = message_expected_utilities(
        space, channel, conditional, state, speaker_utility, receiver_type_belief
    )
    return best_message(utilities)


def _kl_nats(p: np.ndarray, q: np.ndarray) -> float:
    if p.size != q.size:
        raise ValueError(f"distributions differ in size: {p.size} vs {q.size}")
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        raise ValueError(
            "divergence is infinite: first distribution has mass outside "
            "the second's support"
        )
    return float((p[support] * np.log(p[support] / q[support])).sum())


def kl_divergence(
    p: np.ndarray | Sequence[float],
    q: np.ndarray | Sequence[float],
) -> float:
    """KL divergence ``D(p || q)`` in bits.

    Mass of ``p`` outside the support of ``q`` makes the divergence
    infinite and raises instead of returning a float.
    """
    return _kl_nats(as_distribution(p, "p"), as_distribution(q, "q")) / log(2.0)


def tom_divergence(
    rl_policy: Policy,
    modelled_policy: Policy,
    state: int,
    message: int,
) -> float:
    """Divergence of reward-driven play from the modelled partner, in bits.

    ``rl_policy`` is state-conditioned (axes ``"sa"``) and the modelled
    partner policy message-resolved (axes ``"sma"``); the result is
    ``D(rl(.|s) || modelled(.|s, m))``; each ``Policy`` checked its own rows.
    """
    if rl_policy.axes != "sa":
        raise ValueError(f"rl_policy must have axes 'sa', got {rl_policy.axes!r}")
    if modelled_policy.axes != "sma":
        raise ValueError(
            f"modelled_policy must have axes 'sma', got {modelled_policy.axes!r}"
        )
    state, message = as_integer(state, "state"), as_integer(message, "message")
    return _kl_nats(rl_policy.table[state], modelled_policy.table[state, message]) / log(2.0)


def pikl_best_response(
    q_values: np.ndarray | Sequence[float],
    anchor: np.ndarray | Sequence[float],
    lam: float,
) -> np.ndarray:
    """Closed-form maximiser of ``pi . Q - lam * KL(pi || anchor)``.

    For ``lam > 0`` the optimum is ``pi(a) proportional to
    anchor(a) * exp(Q(a) / lam)`` with the natural exponent; ``lam = 0``
    recovers the unanchored greedy policy (lowest-index tie-break).
    Non-finite Q-values and a negative or non-finite ``lam`` are rejected.
    """
    q = np.asarray(q_values, dtype=np.float64)
    anchor = as_distribution(anchor, "anchor")
    if q.shape != anchor.shape:
        raise ValueError(f"q_values shape {q.shape} must match anchor {anchor.shape}")
    if not np.isfinite(q).all():
        raise ValueError("q_values must be finite")
    if not isfinite(lam):
        raise ValueError(f"regularisation weight must be finite, got {lam}")
    if lam < 0.0:
        raise ValueError(f"regularisation weight must be >= 0, got {lam}")
    if lam == 0.0:
        response = np.zeros_like(anchor)
        response[int(np.argmax(q))] = 1.0
        return response
    with np.errstate(over="ignore"):  # an overflowed exponent is -inf, and exp(-inf) = 0 exactly
        weights = anchor * np.exp((q - q.max()) / lam)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("anchor must give positive weight somewhere")
    return weights / total


@dataclass(frozen=True)
class ObjectiveParams:
    """Inputs of the anchored and unified objectives.

    ``q_values`` drive greedy/anchored responses; ``rewards`` (defaulting
    to the Q-values) are what the expectation term pays out.  Both tables
    must be finite (a writable one is copied), and both regularisation
    weights finite and non-negative.
    """

    q_values: np.ndarray
    rewards: np.ndarray | None = None
    lambda_anchor: float = 1.0
    lambda_tom: float = 1.0

    def __post_init__(self) -> None:
        q = np.asarray(self.q_values, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError(f"q_values must be 2-D, got shape {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("q_values must be finite")
        object.__setattr__(self, "q_values", frozen(q, np.float64))
        if self.rewards is not None:
            rewards = np.asarray(self.rewards, dtype=np.float64)
            if rewards.shape != q.shape:
                raise ValueError(
                    f"rewards shape {rewards.shape} must match q_values {q.shape}"
                )
            if not np.isfinite(rewards).all():
                raise ValueError("rewards must be finite")
            object.__setattr__(self, "rewards", frozen(rewards, np.float64))
        if not (isfinite(self.lambda_anchor) and isfinite(self.lambda_tom)):
            raise ValueError("regularisation weights must be finite")
        if self.lambda_anchor < 0.0 or self.lambda_tom < 0.0:
            raise ValueError("regularisation weights must be >= 0")

    @property
    def reward_table(self) -> np.ndarray:
        return self.q_values if self.rewards is None else self.rewards


class ObjectiveMode(enum.Enum):
    """How the partner-divergence term treats the reward-driven policy.

    DIAGNOSTIC fixes it to the greedy policy of the Q-values, so the term
    reports the tension between pure reward seeking and the partner model
    without moving the optimum.  COUPLED substitutes the evaluated policy
    itself, making the divergence an active penalty.
    """

    DIAGNOSTIC = "diagnostic"
    COUPLED = "coupled"


def _anchored(
    policy: Policy, params: ObjectiveParams, anchor: Policy, state_distribution
) -> tuple[float, np.ndarray]:
    """:func:`anchor_objective` and the checked state distribution that weights it."""
    if policy.axes != "sa":
        raise ValueError(f"policy must have axes 'sa', got {policy.axes!r}")
    if policy.table.shape != params.q_values.shape:
        raise ValueError(
            f"policy shape {policy.table.shape} must match q_values "
            f"{params.q_values.shape}"
        )
    dist = as_distribution(np.asarray(state_distribution), "state_distribution")
    if dist.size != policy.table.shape[0]:
        raise ValueError("state_distribution must cover every state")
    if anchor.axes != "sa" or anchor.table.shape != policy.table.shape:
        raise ValueError("anchor must be an 'sa' policy matching the evaluated one")
    total = 0.0
    rewards = params.reward_table
    for state, weight in enumerate(dist):
        if weight == 0.0:
            continue
        row = policy.table[state]
        value = float(row @ rewards[state])
        value -= params.lambda_anchor * _kl_nats(row, anchor.table[state])
        total += weight * value
    return total, dist


def anchor_objective(
    policy: Policy,
    params: ObjectiveParams,
    anchor: Policy,
    state_distribution: np.ndarray | Sequence[float],
) -> float:
    """Expected reward minus the anchor penalty, KL in nats:
    ``sum_s d(s) [ pi(.|s) . R(s,.) - lambda_anchor * KL(pi || anchor) ]``.
    """
    return _anchored(policy, params, anchor, state_distribution)[0]


def unified_objective(
    policy: Policy,
    params: ObjectiveParams,
    anchor: Policy,
    modelled_partner: Policy | None,
    state_distribution: np.ndarray | Sequence[float],
    mode: ObjectiveMode = ObjectiveMode.DIAGNOSTIC,
) -> float:
    """Anchored objective minus the partner-divergence term.

    ``modelled_partner`` is a state-conditioned (axes ``"sa"``) policy,
    typically a message-resolved mixture.  With ``lambda_tom == 0`` the
    term is skipped entirely and the value equals
    :func:`anchor_objective` exactly, whatever the partner model.
    """
    base, dist = _anchored(policy, params, anchor, state_distribution)
    if params.lambda_tom == 0.0:
        return base
    if modelled_partner is None:
        raise ValueError("a partner model is required when lambda_tom > 0")
    if modelled_partner.axes != "sa":
        raise ValueError(
            f"modelled_partner must have axes 'sa', got {modelled_partner.axes!r}"
        )
    if modelled_partner.table.shape != policy.table.shape:
        raise ValueError("modelled_partner must match the evaluated policy's shape")
    reward_driven = (
        Policy.greedy(params.q_values) if mode is ObjectiveMode.DIAGNOSTIC else policy
    )
    penalty = 0.0
    for state, weight in enumerate(dist):
        if weight == 0.0:
            continue
        penalty += weight * _kl_nats(
            reward_driven.table[state], modelled_partner.table[state]
        )
    return base - params.lambda_tom * penalty
