"""Game representation and Fourier-cofactor tests.

The decomposition oracle here is deliberately naive: subsets are real
Python sets and the parity product is computed term by term, so it
shares no code path with the package's transform.
"""

from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest

from citom.game_core import (
    COOPERATE,
    DEFECT,
    GameTable,
    SignConvention,
    cofactors_2x2,
    cofactors_n,
    effective_game,
    evaluate,
    profile_actions,
    profile_index,
    pure_nash,
    triadic_utilities,
)

C, D = COOPERATE, DEFECT


def brute_force_cofactor(
    payoffs: np.ndarray, subset: set[int], n: int, convention: SignConvention
) -> float:
    """Textbook parity-weighted average over all +-1 profiles."""
    total = 0.0
    for index in range(2**n):
        spins = profile_actions(index, n, convention)
        parity = 1.0
        for player in subset:
            parity *= spins[player]
        total += payoffs[index] * parity
    return total / 2**n


def all_subsets(n: int) -> list[set[int]]:
    players = range(n)
    return [set(combo) for size in range(n + 1) for combo in combinations(players, size)]


def popcount_parity(n: int, convention: SignConvention) -> np.ndarray:
    """Signs ``prod_{j in S} x_j``, one row per subset mask, by popcount.

    A set profile bit is spin -1 under the cooperate-positive
    convention, so the sign is ``(-1)^popcount(mask & index)``; the
    defect-positive convention flips each row by ``(-1)^|S|``.
    """
    size = 1 << n
    pop = np.array([v.bit_count() for v in range(size)], dtype=np.int64)
    indices = np.arange(size)
    parity = 1.0 - 2.0 * (pop[indices[:, None] & indices[None, :]] & 1)
    if convention is SignConvention.DEFECT_POSITIVE:
        parity *= (1.0 - 2.0 * (pop & 1))[:, None]
    return parity


class TestProfileIndexing:
    def test_two_player_order(self) -> None:
        assert profile_index((C, C)) == 0
        assert profile_index((C, D)) == 1
        assert profile_index((D, C)) == 2
        assert profile_index((D, D)) == 3

    def test_actions_round_trip(self) -> None:
        for n in (1, 2, 3):
            for index in range(2**n):
                assert profile_index(profile_actions(index, n)) == index

    def test_defect_positive_flips_spins(self) -> None:
        assert profile_actions(0, 2) == (C, C)
        assert profile_actions(0, 2, SignConvention.DEFECT_POSITIVE) == (-1, -1)

    def test_rejects_non_spin_values(self) -> None:
        with pytest.raises(ValueError):
            profile_index((1, 0))
        with pytest.raises(ValueError):
            profile_actions(4, 2)


class TestGameTable:
    def test_two_player_builder_flattens_in_profile_order(self) -> None:
        row = np.array([[3.0, 0.0], [5.0, 1.0]])
        col = np.array([[3.0, 0.0], [5.0, 1.0]])
        table = GameTable.two_player(row, col)
        assert table.payoffs[0].tolist() == [3.0, 0.0, 5.0, 1.0]
        assert table.payoffs[1].tolist() == [3.0, 5.0, 0.0, 1.0]
        assert table.payoffs[0, profile_index((D, C))] == 5.0
        assert table.payoffs[1, profile_index((D, C))] == 0.0

    def test_shape_validation(self) -> None:
        with pytest.raises(ValueError):
            GameTable(2, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            GameTable(0, np.zeros((0, 1)))
        with pytest.raises(ValueError):
            GameTable(1, np.array([[np.inf, 0.0]]))


class TestCofactors2x2:
    def test_effective_game_defect_positive_matches_quarter_sum_values(self) -> None:
        # The quarter-sum cofactors of the coupling family are
        # (1/2)[1, c, -(1+c), 0] under the defect-positive convention,
        # ordered (constant, own, other, pair).
        for c in (0.25, -0.25):
            table = effective_game(c)
            for player in (0, 1):
                poly = cofactors_2x2(table, player, SignConvention.DEFECT_POSITIVE)
                other = 1 - player
                assert poly.cofactor(()) == pytest.approx(0.5, abs=1e-15)
                assert poly.cofactor({player}) == pytest.approx(c / 2, abs=1e-15)
                assert poly.cofactor({other}) == pytest.approx(
                    -(1 + c) / 2, abs=1e-15
                )
                assert poly.cofactor({0, 1}) == pytest.approx(0.0, abs=1e-15)

    def test_cooperate_positive_flips_odd_cofactors(self) -> None:
        table = effective_game(0.25)
        appendix = cofactors_2x2(table, 0, SignConvention.DEFECT_POSITIVE)
        default = cofactors_2x2(table, 0)
        assert default.cofactor(()) == appendix.cofactor(())
        assert default.cofactor({0}) == -appendix.cofactor({0})
        assert default.cofactor({1}) == -appendix.cofactor({1})
        assert default.cofactor({0, 1}) == appendix.cofactor({0, 1})

    def test_matches_general_transform(self) -> None:
        # Summation order differs between the closed-form quarter sums
        # and the matrix transform, so agreement is to rounding only.
        rng = np.random.default_rng(20)
        for _ in range(50):
            table = GameTable(2, rng.normal(size=(2, 4)))
            for player in (0, 1):
                for convention in SignConvention:
                    special = cofactors_2x2(table, player, convention)
                    general = cofactors_n(table, player, convention)
                    np.testing.assert_allclose(
                        special.cofactors, general.cofactors, rtol=0, atol=1e-14
                    )

    def test_wrong_arity_rejected(self) -> None:
        table = GameTable(3, np.zeros((3, 8)))
        with pytest.raises(ValueError):
            cofactors_2x2(table, 0)


class TestCofactorsN:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("convention", list(SignConvention))
    def test_matches_brute_force_oracle(
        self, n: int, convention: SignConvention
    ) -> None:
        rng = np.random.default_rng(100 + n)
        table = GameTable(n, rng.normal(size=(n, 2**n)))
        for player in range(n):
            poly = cofactors_n(table, player, convention)
            for subset in all_subsets(n):
                expected = brute_force_cofactor(
                    table.payoffs[player], subset, n, convention
                )
                assert poly.cofactor(subset) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("convention", list(SignConvention))
    def test_round_trip_reconstructs_payoffs(self, convention: SignConvention) -> None:
        rng = np.random.default_rng(9)
        for n in (2, 3):
            table = GameTable(n, rng.normal(size=(n, 2**n)))
            for player in range(n):
                poly = cofactors_n(table, player, convention)
                for index in range(2**n):
                    spins = profile_actions(index, n, convention)
                    assert evaluate(poly, spins) == pytest.approx(
                        table.payoffs[player, index], abs=1e-12
                    )


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("convention", list(SignConvention))
    def test_bytes_match_popcount_parity_transform(
        self, n: int, convention: SignConvention
    ) -> None:
        parity = popcount_parity(n, convention)
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            table = GameTable(n, rng.normal(size=(n, 2**n)))
            for player in range(n):
                expected = parity @ table.payoffs[player] / 2**n
                got = cofactors_n(table, player, convention).cofactors
                assert got.tobytes() == expected.tobytes()


class TestEvaluate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_mask_loop_off_the_cube(self, n: int) -> None:
        rng = np.random.default_rng(400 + n)
        for convention in SignConvention:
            table = GameTable(n, rng.normal(size=(n, 2**n)))
            poly = cofactors_n(table, 0, convention)
            for _ in range(20):
                spins = rng.uniform(-1.5, 1.5, size=n).tolist()
                expected = 0.0
                for mask in range(2**n):
                    term = float(poly.cofactors[mask])
                    for j in range(n):
                        if (mask >> (n - 1 - j)) & 1:
                            term *= spins[j]
                    expected += term
                assert evaluate(poly, spins) == pytest.approx(expected, abs=1e-12)

    def test_hand_multilinear_value(self) -> None:
        # Polynomial 2 + 3 x0 - 5 x1 + 7 x0 x1 evaluated at (0.5, -2).
        poly = cofactors_n(GameTable(2, np.zeros((2, 4))), 0)
        poly = poly.__class__(2, np.array([2.0, -5.0, 3.0, 7.0]), poly.convention)
        value = evaluate(poly, (0.5, -2.0))
        assert value == pytest.approx(2 + 3 * 0.5 - 5 * -2 + 7 * 0.5 * -2, abs=1e-15)

    def test_fractional_coupling_extension(self) -> None:
        # Multilinearity off the cube: evaluating at x = 0 in one slot
        # averages that player's two pure responses.
        rng = np.random.default_rng(17)
        table = GameTable(2, rng.normal(size=(2, 4)))
        poly = cofactors_n(table, 0)
        averaged = 0.5 * (evaluate(poly, (1.0, 1.0)) + evaluate(poly, (-1.0, 1.0)))
        assert evaluate(poly, (0.0, 1.0)) == pytest.approx(averaged, abs=1e-12)

    def test_arity_mismatch(self) -> None:
        poly = cofactors_n(GameTable(2, np.zeros((2, 4))), 0)
        with pytest.raises(ValueError):
            evaluate(poly, (1.0,))


class TestEffectiveGame:
    def test_matrix_entries(self) -> None:
        c = 0.25
        table = effective_game(c)
        assert table.payoffs[0, profile_index((C, C))] == 1.0
        assert table.payoffs[1, profile_index((C, C))] == 1.0
        assert table.payoffs[0, profile_index((C, D))] == -c
        assert table.payoffs[1, profile_index((C, D))] == 1 + c
        assert table.payoffs[0, profile_index((D, C))] == 1 + c
        assert table.payoffs[1, profile_index((D, C))] == -c
        assert table.payoffs[0, profile_index((D, D))] == 0.0
        assert table.payoffs[1, profile_index((D, D))] == 0.0

    def test_coupling_domain(self) -> None:
        for bad in (0.6, -0.6, np.nan):
            with pytest.raises(ValueError, match=rf"^coupling must lie in \[-1/2, 1/2\], got {bad}$"):
                effective_game(bad)
        table = effective_game(-0.5)
        assert table.payoffs[0, profile_index((D, C))] == 0.5  # temptation R + c
        assert table.payoffs[0, profile_index((C, D))] == 0.5  # sucker P - c


class TestPureNash:
    def test_dilemma_side_unique_strict_defection(self) -> None:
        nash = pure_nash(effective_game(0.25))
        assert len(nash) == 1
        assert nash[0].actions == (D, D)
        assert nash[0].strict

    def test_harmony_side_unique_strict_cooperation(self) -> None:
        nash = pure_nash(effective_game(-0.25))
        assert len(nash) == 1
        assert nash[0].actions == (C, C)
        assert nash[0].strict

    def test_degenerate_boundary_all_weak(self) -> None:
        nash = pure_nash(effective_game(0.0))
        assert len(nash) == 4
        assert not any(eq.strict for eq in nash)

    def test_coordination_game_two_strict(self) -> None:
        stag = GameTable.two_player(
            np.array([[4.0, 0.0], [3.0, 2.0]]), np.array([[4.0, 0.0], [3.0, 2.0]])
        )
        nash = pure_nash(stag)
        assert [eq.actions for eq in nash] == [(C, C), (D, D)]
        assert all(eq.strict for eq in nash)

    def test_matching_pennies_has_no_pure_equilibrium(self) -> None:
        pennies = GameTable(
            2, np.array([[1.0, -1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])
        )
        assert len(pure_nash(pennies)) == 0

    def test_invariant_under_positive_affine_rescaling(self) -> None:
        rng = np.random.default_rng(33)
        for _ in range(25):
            payoffs = rng.normal(size=(2, 4))
            table = GameTable(2, payoffs)
            scaled = payoffs.copy()
            scaled[0] = 2.5 * scaled[0] - 7.0
            assert pure_nash(table) == pure_nash(GameTable(2, scaled))


class TestTriadicUtilities:
    def test_cooperation_round(self) -> None:
        assert triadic_utilities(-0.25, C, C, 0.1) == (0.2, 1.0, 1.0)

    def test_mutual_defection_is_zero_everywhere(self) -> None:
        assert triadic_utilities(0.25, D, D, 0.1) == (0.0, 0.0, 0.0)
        assert triadic_utilities(-0.25, D, D, 0.1) == (0.0, 0.0, 0.0)

    def test_mixed_round(self) -> None:
        u1, u2, u3 = triadic_utilities(0.25, C, D, 0.1)
        assert (u1, u2, u3) == (pytest.approx(0.1), -0.25, 1.25)
        u1, u2, u3 = triadic_utilities(0.25, D, C, 0.1)
        assert (u1, u2, u3) == (pytest.approx(0.1), 1.25, -0.25)

    def test_revenue_share_scales_orchestrator_cut(self) -> None:
        base = triadic_utilities(-0.25, C, C, revenue_share=0.1)
        doubled = triadic_utilities(-0.25, C, C, revenue_share=0.2)
        assert doubled[0] == pytest.approx(2 * base[0])
        assert doubled[1:] == base[1:]

    def test_domain_validation(self) -> None:
        with pytest.raises(ValueError):
            triadic_utilities(0.75, C, C, 0.1)
        with pytest.raises(ValueError):
            triadic_utilities(0.25, 0, C, 0.1)

    def test_checks_run_in_argument_order(self) -> None:
        # The coupling's range is the effective game's check.
        message = re.escape("coupling must lie in [-1/2, 1/2], got 0.75")
        with pytest.raises(ValueError, match=f"^{message}$"):
            triadic_utilities(0.75, 0, C, 7.0)
        with pytest.raises(ValueError, match="^revenue_share must lie in"):
            triadic_utilities(0.25, 0, C, 7.0)
        with pytest.raises(ValueError, match="^actions must be"):
            triadic_utilities(0.25, 0, C, 0.1)

    @pytest.mark.parametrize("share", [np.nan, -0.1, 7.0])
    def test_revenue_share_out_of_range_rejected(self, share: float) -> None:
        message = re.escape(f"revenue_share must lie in [0, 1], got {share}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            triadic_utilities(-0.25, C, C, share)
