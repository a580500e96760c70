"""Reference implementation of the orchestrated-triad episode.

``run_triadic`` draws the signal as ``citom.scenarios.run_triadic`` does
and then resolves every step on its own: it builds the step's coupling
from the orchestrator's emission ``delay`` steps back, builds that
step's effective game, and asks ``equilibrium_action`` and
``triadic_utilities`` for the workers' play and the three utilities.
Production resolves each distinct coupling once and gathers the results
by value code; ``test_scenarios.py`` holds it to this loop byte for byte.
"""

from __future__ import annotations

import numpy as np

from citom.agents import emission_sign, equilibrium_action
from citom.game_core import COOPERATE, effective_game, triadic_utilities
from citom.scenarios import TriadicConfig


def run_triadic(config: TriadicConfig) -> tuple[np.ndarray, ...]:
    """``(signal, x1, coupling, x2, x3, u1, u2, u3, value)`` of one episode;
    the signal, the workers' actions and ``value`` are int8."""
    rng = np.random.default_rng(config.seed)
    steps = config.steps
    signal = rng.integers(0, 2, size=steps).astype(np.int64) * 2 - 1
    if config.mode == "b":
        emission = emission_sign(config.amplitude) * config.amplitude
    x1, coupling = np.empty(steps), np.empty(steps)
    x2, x3, value = (np.empty(steps, dtype=np.int8) for _ in range(3))
    u1, u2, u3 = np.empty(steps), np.empty(steps), np.empty(steps)
    for t in range(steps):
        s = int(signal[t])
        if config.mode == "a":
            x1[t], coupling[t] = float(s), 0.0
        else:
            x1[t] = emission * s
            # The dilemma-side status quo holds until the first emission lands.
            if t < config.delay:
                coupling[t] = config.amplitude
            else:
                coupling[t] = emission * int(signal[t - config.delay])
        table = effective_game(float(coupling[t]))
        x2[t] = equilibrium_action(table, 0)
        x3[t] = equilibrium_action(table, 1)
        u1[t], u2[t], u3[t] = triadic_utilities(
            float(coupling[t]), int(x2[t]), int(x3[t]), config.revenue_share
        )
        value[t] = int(x2[t] == COOPERATE and x3[t] == COOPERATE)
    return signal.astype(np.int8), x1, coupling, x2, x3, u1, u2, u3, value
