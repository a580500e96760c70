"""Binary-action games, their multilinear utility form, and a tunable
dilemma/harmony family.

Actions are spin-valued: each player plays +1 or -1.  Under the default
sign convention +1 means Cooperate; a defect-positive convention is
provided because quarter-sum cofactor formulas in common circulation
encode +1 as Defect, and flipping the convention flips the sign of every
odd-cardinality cofactor.

A payoff table over n players has a unique multilinear (Boolean-Fourier)
expansion ``U(x) = sum_S a^S prod_{j in S} x_j`` whose coefficients are
the parity-weighted payoff averages computed here.  Because the expansion
is multilinear it extends off the +-1 cube, which is how a fractional
coupling input (such as an orchestrator's +-1/4 emission) parameterises a
whole family of effective two-player games.

The effective family fixes mutual cooperation at R = 1 and mutual
defection at P = 0 and moves temptation/sucker payoffs with one coupling
``c``: T = R + c and S = P - c.  For c > 0 defection dominates (a
prisoner's dilemma, unique equilibrium (D, D)); for c < 0 cooperation
dominates (a harmony game, unique equilibrium (C, C)); c = 0 is the
degenerate boundary where every profile is a weak equilibrium.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .info_measures import frozen

__all__ = [
    "COOPERATE",
    "DEFECT",
    "SignConvention",
    "GameTable",
    "UtilityPolynomial",
    "NashEquilibrium",
    "profile_index",
    "profile_actions",
    "cofactors_2x2",
    "cofactors_n",
    "evaluate",
    "effective_game",
    "pure_nash",
    "triadic_utilities",
]

COOPERATE = 1
DEFECT = -1
R = 1.0  # mutual cooperation in the effective family
P = 0.0  # mutual defection in the effective family


class SignConvention(enum.Enum):
    """Meaning of the spin value +1 in action vectors and cofactors."""

    COOPERATE_POSITIVE = "cooperate_positive"
    DEFECT_POSITIVE = "defect_positive"


def _validate_spin(actions: Sequence[int]) -> None:
    for value in actions:
        if value not in (COOPERATE, DEFECT):
            raise ValueError(f"actions must be +1 or -1, got {value!r}")


def profile_index(actions: Sequence[int]) -> int:
    """Flat index of a +-1 action profile, player 1 most significant.

    Cooperate (+1) maps to bit 0 and Defect (-1) to bit 1, so index 0 is
    all-Cooperate and the last index is all-Defect.  For two players the
    order is (C,C), (C,D), (D,C), (D,D).
    """
    _validate_spin(actions)
    index = 0
    for value in actions:
        index = (index << 1) | (0 if value == COOPERATE else 1)
    return index


def profile_actions(
    index: int,
    n_players: int,
    convention: SignConvention = SignConvention.COOPERATE_POSITIVE,
) -> tuple[int, ...]:
    """Action spins of a profile index under the given sign convention."""
    if not 0 <= index < (1 << n_players):
        raise ValueError(f"index {index} out of range for {n_players} players")
    flip = -1 if convention is SignConvention.DEFECT_POSITIVE else 1
    bits = ((index >> (n_players - 1 - j)) & 1 for j in range(n_players))
    return tuple(flip * (1 - 2 * bit) for bit in bits)


@dataclass(frozen=True)
class GameTable:
    """Normal-form payoffs of an n-player binary-action game.

    ``payoffs[p, i]`` is player ``p``'s payoff at the profile with flat index
    ``i`` (see :func:`profile_index`), kept read-only: a writable input is copied.
    """

    n_players: int
    payoffs: np.ndarray

    def __post_init__(self) -> None:
        if self.n_players < 1:
            raise ValueError(f"need at least one player, got {self.n_players}")
        payoffs = np.asarray(self.payoffs, dtype=np.float64)
        expected = (self.n_players, 1 << self.n_players)
        if payoffs.shape != expected:
            raise ValueError(f"payoffs must have shape {expected}, got {payoffs.shape}")
        if not np.isfinite(payoffs).all():
            raise ValueError("payoffs must be finite")
        object.__setattr__(self, "payoffs", frozen(payoffs, np.float64))

    @classmethod
    def two_player(cls, row: np.ndarray, col: np.ndarray) -> "GameTable":
        """Build a 2-player table from (own action, other action) matrices.

        Both matrices are indexed with Cooperate first: ``row[a][b]`` is
        the row player's payoff when the row player plays ``a`` and the
        column player plays ``b``, and symmetrically for ``col``.
        """
        row = np.asarray(row, dtype=np.float64)
        col = np.asarray(col, dtype=np.float64)
        if row.shape != (2, 2) or col.shape != (2, 2):
            raise ValueError("two_player expects two 2x2 matrices")
        flat_row = [row[0, 0], row[0, 1], row[1, 0], row[1, 1]]
        flat_col = [col[0, 0], col[1, 0], col[0, 1], col[1, 1]]
        return cls(2, np.array([flat_row, flat_col]))


@dataclass(frozen=True)
class UtilityPolynomial:
    """Multilinear expansion of one player's payoff over action spins.

    ``cofactors[mask]`` (read-only; a writable input is copied) is the
    coefficient of ``prod_{j in S} x_j`` where bit ``n - 1 - j`` of ``mask``
    flags player ``j``'s membership in ``S`` (the bit layout of profile
    indices).  The recorded convention states what spin the polynomial's
    inputs use; converting it between conventions negates every
    odd-cardinality coefficient.
    """

    n_players: int
    cofactors: np.ndarray
    convention: SignConvention = SignConvention.COOPERATE_POSITIVE

    def __post_init__(self) -> None:
        cofactors = np.asarray(self.cofactors, dtype=np.float64)
        if cofactors.shape != (1 << self.n_players,):
            raise ValueError(
                f"cofactors must have shape ({1 << self.n_players},), "
                f"got {cofactors.shape}"
            )
        object.__setattr__(self, "cofactors", frozen(cofactors, np.float64))

    def cofactor(self, players: Iterable[int] = ()) -> float:
        """Coefficient of the monomial over the given player subset."""
        mask = 0
        for player in players:
            if not 0 <= player < self.n_players:
                raise ValueError(f"player {player} out of range")
            mask |= 1 << (self.n_players - 1 - player)
        return float(self.cofactors[mask])


def _monomials(actions: Sequence[float]) -> np.ndarray:
    """``prod_{j in S} x_j`` per mask, in :class:`UtilityPolynomial`'s bit layout."""
    monomials = np.ones(1)
    for value in reversed(actions):
        monomials = np.concatenate((monomials, monomials * value))
    return monomials


def cofactors_n(
    table: GameTable,
    player: int,
    convention: SignConvention = SignConvention.COOPERATE_POSITIVE,
) -> UtilityPolynomial:
    """Multilinear cofactors of one player's payoffs in an n-player game.

    Each coefficient is the parity-weighted average
    ``a^S = 2^-n sum_profiles payoff * prod_{j in S} x_j``; by parity
    orthogonality the expansion reproduces the table exactly.
    """
    if not 0 <= player < table.n_players:
        raise ValueError(f"player {player} out of range")
    n = table.n_players
    profiles = [profile_actions(index, n, convention) for index in range(1 << n)]
    # One row per mask, C-contiguous: a transposed view changes last bits.
    parity = np.stack([_monomials(spins) for spins in profiles], axis=1)
    cofactors = parity @ table.payoffs[player] / float(1 << n)
    return UtilityPolynomial(n, cofactors, convention)


def cofactors_2x2(
    table: GameTable,
    player: int,
    convention: SignConvention = SignConvention.COOPERATE_POSITIVE,
) -> UtilityPolynomial:
    """Quarter-sum cofactors of a 2-player game, written out explicitly.

    Independent of :func:`cofactors_n` (which must agree with it): the
    four coefficients come straight from the quarter sums of the payoff
    entries.  ``g[a][b]`` below is the payoff when ``player`` plays ``a``
    and the opponent plays ``b``, Cooperate first.
    """
    if table.n_players != 2:
        raise ValueError(f"cofactors_2x2 needs a 2-player table, got {table.n_players}")
    if player not in (0, 1):
        raise ValueError(f"player {player} out of range")
    flat = table.payoffs[player]
    if player == 0:
        g = [[flat[0], flat[1]], [flat[2], flat[3]]]
    else:
        g = [[flat[0], flat[2]], [flat[1], flat[3]]]
    base = (g[0][0] + g[0][1] + g[1][0] + g[1][1]) / 4.0
    own = ((g[1][0] + g[1][1]) - (g[0][0] + g[0][1])) / 4.0
    other = ((g[0][1] + g[1][1]) - (g[0][0] + g[1][0])) / 4.0
    pair = ((g[0][0] + g[1][1]) - (g[0][1] + g[1][0])) / 4.0
    if convention is SignConvention.COOPERATE_POSITIVE:
        own, other = -own, -other
    cofactors = np.empty(4)
    own_mask = 1 << (1 - player)
    other_mask = 1 << player
    cofactors[0] = base
    cofactors[own_mask] = own
    cofactors[other_mask] = other
    cofactors[3] = pair
    return UtilityPolynomial(2, cofactors, convention)


def evaluate(polynomial: UtilityPolynomial, actions: Sequence[float]) -> float:
    """Evaluate the multilinear form at an action vector.

    Spins outside +-1 are deliberately allowed: the multilinear extension
    is what gives fractional couplings meaning.  The caller must supply
    spins in the polynomial's own sign convention.
    """
    if len(actions) != polynomial.n_players:
        raise ValueError(
            f"expected {polynomial.n_players} actions, got {len(actions)}"
        )
    return float(polynomial.cofactors @ _monomials(actions))


def effective_game(coupling: float) -> GameTable:
    """Symmetric 2-player table of the family at coupling ``-1/2 <= c <= 1/2``.

    The own-by-other payoff matrix, Cooperate first, is
    ``[[R, S], [T, P]]`` with ``T = R + c`` and ``S = P - c``.
    """
    if not -0.5 <= coupling <= 0.5:
        raise ValueError(f"coupling must lie in [-1/2, 1/2], got {coupling}")
    matrix = [[R, P - coupling], [R + coupling, P]]
    return GameTable.two_player(matrix, matrix)


@dataclass(frozen=True)
class NashEquilibrium:
    """A pure-strategy profile no player can improve on unilaterally."""

    actions: tuple[int, ...]
    strict: bool


def pure_nash(table: GameTable) -> tuple[NashEquilibrium, ...]:
    """All pure-strategy Nash equilibria, flagged strict or weak.

    A profile is an equilibrium when no unilateral deviation strictly
    improves the deviator; it is weak when some deviation exactly ties.
    Profiles are reported in flat-index order with cooperate-positive
    spins.
    """
    n = table.n_players
    equilibria: list[NashEquilibrium] = []
    for index in range(1 << n):
        strict = True
        stable = True
        for player in range(n):
            deviation = index ^ (1 << (n - 1 - player))
            own = table.payoffs[player, index]
            dev = table.payoffs[player, deviation]
            if dev > own:
                stable = False
                break
            if dev == own:
                strict = False
        if stable:
            equilibria.append(NashEquilibrium(profile_actions(index, n), strict))
    return tuple(equilibria)


def triadic_utilities(
    x1: float, x2: int, x3: int, revenue_share: float
) -> tuple[float, float, float]:
    """Per-step utilities of the orchestrated triad.

    Agent 1's emission ``x1`` acts as the coupling of the effective game
    the two workers play, so agents 2 and 3 receive the family payoffs at
    (x2, x3) with c = x1, and agent 1 takes a fixed revenue share of
    their total.  A cooperation round at share 0.1 yields (0.2, 1, 1);
    mutual defection yields (0, 0, 0) at any coupling.
    """
    table = effective_game(x1)
    if not 0.0 <= revenue_share <= 1.0:
        raise ValueError(f"revenue_share must lie in [0, 1], got {revenue_share}")
    u2, u3 = table.payoffs[:, profile_index((x2, x3))].tolist()
    return revenue_share * (u2 + u3), u2, u3
