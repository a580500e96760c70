"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
(visible with ``-s`` or on failure) in addition to its verbose pytest
line.  Criterion 2 is asserted exactly as stated even though the
synthetic learner cannot satisfy its first inequality; the assertion
message points at the analysis in the README's "Acceptance suite"
section rather than weakening the claim.
"""

from __future__ import annotations

import json
import time
import warnings
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from citom.cli import main
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
    pure_nash,
)
from citom.info_measures import (
    LagPairDistribution,
    mutual_information,
)
from citom.scenarios import (
    MatchingPenniesConfig,
    TriadicConfig,
    measure_log,
    run_matching_pennies,
    run_triadic,
)
from citom.tom_policy import (
    BeliefState,
    Channel,
    LatentTypeSpace,
    ObjectiveParams,
    Policy,
    anchor_objective,
    bayes_update,
    best_message,
    induced_message_policy,
    kl_divergence,
    message_expected_utilities,
    pikl_best_response,
    tom_policy_mix,
    unified_objective,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    else:
        print(f"criterion {number} ({description}): PASS")


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.05, 1.0, size)
    return raw / raw.sum()


def test_criterion_1_triadic_excess_values() -> None:
    with criterion(1, "triadic excess 0 bits in mode a, 1 bit in mode b"):
        start = time.perf_counter()
        log_a = run_triadic(TriadicConfig(mode="a", steps=100_000, seed=0))
        reports_a = measure_log(log_a, taus=(1, 2, 3))
        elapsed_a = time.perf_counter() - start
        for report in reports_a:
            assert report.excess == 0.0, (
                f"mode a excess at tau={report.tau} should be exactly 0, "
                f"got {report.excess}"
            )

        start = time.perf_counter()
        log_b = run_triadic(TriadicConfig(mode="b", steps=100_000, seed=0, delay=1))
        (report_b,) = measure_log(log_b, taus=(1,))
        elapsed_b = time.perf_counter() - start
        assert report_b.excess == pytest.approx(1.0, abs=0.02), (
            f"mode b excess at tau=1 should be 1.0 +- 0.02, got {report_b.excess}"
        )
        assert elapsed_a < 2.0, f"mode a run took {elapsed_a:.2f} s (limit 2 s)"
        assert elapsed_b < 2.0, f"mode b run took {elapsed_b:.2f} s (limit 2 s)"


def test_criterion_2_pennies_median_excess_strictly_ordered() -> None:
    with criterion(2, "median excess ordered algo0 > algo1 > algo2"):
        start = time.perf_counter()
        medians = {}
        for algorithm_id in (0, 1, 2):
            values = []
            for seed in range(20):
                config = MatchingPenniesConfig(
                    algorithm_id=algorithm_id, steps=10_000, seed=seed, taus=(1,)
                )
                (report,) = measure_log(run_matching_pennies(config), taus=(1,))
                values.append(report.excess)
            medians[algorithm_id] = float(np.median(values))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sweep took {elapsed:.1f} s (limit 30 s)"
        assert medians[1] > medians[2], (
            f"expected algo1 > algo2, got {medians[1]:.4f} <= {medians[2]:.4f}"
        )
        assert medians[0] > medians[1], (
            "expected algo0 > algo1, got "
            f"{medians[0]:.4f} <= {medians[1]:.4f}. Known structural gap: a "
            "within-session-fixed learner cannot reproduce the decrease, "
            "because choice-only exploitation suppresses only marginally "
            "visible structure (already subtracted from the excess) while "
            "any rejection couples the computer to the joint past, adding "
            "joint-only information. See the README's \"Acceptance suite\" "
            "section."
        )


def test_criterion_3_fourier_round_trip_and_orthogonality() -> None:
    with criterion(3, "Fourier decomposition round trip and parity orthogonality"):
        rng = np.random.default_rng(2024)
        cases = [(2, 1000), (3, 100)]
        for n_players, count in cases:
            size = 2**n_players
            for _ in range(count):
                table = GameTable(n_players, rng.normal(size=(n_players, size)))
                for player in range(n_players):
                    poly = cofactors_n(table, player)
                    for index in range(size):
                        spins = profile_actions(index, n_players)
                        rebuilt = evaluate(poly, spins)
                        assert rebuilt == pytest.approx(
                            table.payoffs[player, index], abs=1e-12
                        )
        for n in range(1, 5):
            players = range(n)
            subsets = [
                frozenset(combo)
                for size in range(n + 1)
                for combo in combinations(players, size)
            ]
            parity = np.empty((len(subsets), 2**n))
            for row, subset in enumerate(subsets):
                for index in range(2**n):
                    spins = profile_actions(index, n)
                    product = 1.0
                    for player in subset:
                        product *= spins[player]
                    parity[row, index] = product
            gram = parity @ parity.T
            assert np.array_equal(gram, (2**n) * np.eye(len(subsets)))


def test_criterion_4_game_family_classification_and_cofactors() -> None:
    with criterion(4, "c-grid equilibria and quarter-sum cofactor values"):
        grid = np.linspace(-0.5, 0.5, 101)
        assert grid.size == 101
        for c in grid[grid != 0.0]:
            nash = pure_nash(effective_game(float(c)))
            assert len(nash) == 1, f"c={c}: expected a unique pure equilibrium"
            equilibrium = nash[0]
            assert equilibrium.strict, f"c={c}: equilibrium should be strict"
            expected = (DEFECT, DEFECT) if c > 0 else (COOPERATE, COOPERATE)
            assert equilibrium.actions == expected, (
                f"c={c}: expected {expected}, got {equilibrium.actions}"
            )
        for c in (0.25, -0.25):
            table = effective_game(c)
            for player in (0, 1):
                poly = cofactors_2x2(table, player, SignConvention.DEFECT_POSITIVE)
                other = 1 - player
                values = (
                    poly.cofactor(()),
                    poly.cofactor({player}),
                    poly.cofactor({other}),
                    poly.cofactor({0, 1}),
                )
                expected = (0.5, c / 2, -(1 + c) / 2, 0.0)
                assert values == pytest.approx(expected, abs=1e-12), (
                    f"c={c}, player {player}: cofactors {values} != {expected}"
                )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_5_pikl_matches_numeric_simplex_maximiser() -> None:
    with criterion(5, "anchored response optimal, KL monotone, zero-weight exact"):
        rng = np.random.default_rng(123)

        def objective(p: np.ndarray, q: np.ndarray, anchor: np.ndarray, lam: float) -> float:
            p = np.clip(p, 1e-300, None)
            return float(p @ q) - lam * float((p * np.log(p / anchor)).sum())

        for _ in range(100):
            n = int(rng.integers(2, 6))
            q = rng.normal(size=n)
            anchor = random_distribution(rng, n)
            lam = float(rng.uniform(0.2, 3.0))
            closed = pikl_best_response(q, anchor, lam)
            result = minimize(
                lambda p: -objective(p, q, anchor, lam),
                x0=anchor,
                method="SLSQP",
                bounds=[(1e-10, 1.0)] * n,
                constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0}],
                options={"maxiter": 500, "ftol": 1e-14},
            )
            assert result.success
            gap = abs(objective(closed, q, anchor, lam) - (-result.fun))
            assert gap <= 1e-6, f"objective gap {gap} exceeds 1e-6"

        for _ in range(10):
            n = int(rng.integers(2, 6))
            q = rng.normal(size=n)
            anchor = random_distribution(rng, n)
            lambdas = [0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
            divergences = [
                kl_divergence(pikl_best_response(q, anchor, lam), anchor)
                for lam in lambdas
            ]
            for before, after in zip(divergences, divergences[1:]):
                assert after <= before + 1e-12

        for _ in range(20):
            n_states, n_actions = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            policy = Policy(
                np.stack([random_distribution(rng, n_actions) for _ in range(n_states)])
            )
            anchor_policy = Policy(
                np.stack([random_distribution(rng, n_actions) for _ in range(n_states)])
            )
            params = ObjectiveParams(
                rng.normal(size=(n_states, n_actions)),
                lambda_anchor=float(rng.uniform(0.0, 2.0)),
                lambda_tom=0.0,
            )
            weights = random_distribution(rng, n_states)
            base = anchor_objective(policy, params, anchor_policy, weights)
            value = unified_objective(policy, params, anchor_policy, None, weights)
            assert value == base


def test_criterion_6_bayes_tom_stack() -> None:
    with criterion(6, "posteriors, mixtures, and exhaustive message optimality"):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            n_types = int(rng.integers(2, 6))
            n_messages = int(rng.integers(2, 5))
            prior = random_distribution(rng, n_types)
            likelihood = np.stack(
                [random_distribution(rng, n_messages) for _ in range(n_types)]
            )
            message = int(rng.integers(0, n_messages))
            weighted = prior * likelihood[:, message]
            expected = weighted / weighted.sum()
            posterior = bayes_update(
                LatentTypeSpace(prior), Channel(likelihood), message
            ).posterior
            assert np.max(np.abs(posterior - expected)) <= 1e-12

        for _ in range(200):
            n_types = int(rng.integers(2, 5))
            n_states = int(rng.integers(1, 4))
            n_actions = int(rng.integers(2, 5))
            conditional = Policy(
                np.stack(
                    [
                        np.stack(
                            [random_distribution(rng, n_actions) for _ in range(n_states)]
                        )
                        for _ in range(n_types)
                    ]
                ),
                "tsa",
            )
            belief = BeliefState(random_distribution(rng, n_types))
            state = int(rng.integers(0, n_states))
            mix = tom_policy_mix(conditional, belief, state)
            assert mix.min() >= 0.0
            assert abs(float(mix.sum()) - 1.0) <= 1e-12

        for _ in range(200):
            n_types = int(rng.integers(2, 4))
            n_messages = int(rng.integers(2, 5))
            n_actions = int(rng.integers(2, 4))
            space = LatentTypeSpace(random_distribution(rng, n_types))
            channel = Channel(
                np.stack([random_distribution(rng, n_messages) for _ in range(n_types)])
            )
            conditional = Policy(
                np.stack(
                    [random_distribution(rng, n_actions)[None, :] for _ in range(n_types)]
                ),
                "tsa",
            )
            utility = rng.normal(size=(n_types, n_actions))
            belief = BeliefState(random_distribution(rng, n_types))
            reactions = induced_message_policy(space, channel, conditional)
            utilities = message_expected_utilities(reactions, 0, utility, belief)
            exhaustive = []
            weighted_utility = belief.posterior @ utility
            for m in range(n_messages):
                numerator = space.prior * channel.likelihood[:, m]
                posterior = numerator / numerator.sum()
                mixture = posterior @ conditional.table[:, 0, :]
                exhaustive.append(float(mixture @ weighted_utility))
            assert np.max(np.abs(utilities - np.asarray(exhaustive))) <= 1e-12
            chosen = best_message(utilities)
            assert all(utilities[chosen] >= u for u in utilities)
            assert chosen == int(np.argmax(exhaustive))


def test_criterion_7_estimator_consistency_and_closed_form() -> None:
    with criterion(7, "plug-in MI error shrinks with T; analytic MI exact"):
        joints = {
            "dependent": np.array([[0.4, 0.1], [0.2, 0.3]]),
            "independent": np.outer([0.6, 0.4], [0.3, 0.7]),
            "bijective": np.array([[0.5, 0.0], [0.0, 0.5]]),
        }

        def closed_form(probabilities: np.ndarray) -> float:
            rows = probabilities.sum(axis=1)
            cols = probabilities.sum(axis=0)
            total = 0.0
            for i in range(2):
                for j in range(2):
                    p = probabilities[i, j]
                    if p > 0:
                        total += p * np.log2(p / (rows[i] * cols[j]))
            return total

        for probabilities in joints.values():
            analytic = mutual_information(
                LagPairDistribution.from_probabilities(probabilities, tau=1)
            )
            assert abs(analytic - closed_form(probabilities)) <= 1e-12

        probabilities = joints["dependent"]
        truth = closed_form(probabilities)
        flat = probabilities.reshape(-1)
        medians = []
        for sample_size in (10**3, 10**4, 10**5):
            errors = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                cells = rng.choice(4, size=sample_size, p=flat)
                counts = np.bincount(cells, minlength=4).reshape(2, 2)
                estimate = mutual_information(
                    LagPairDistribution.from_counts(counts, tau=1)
                )
                errors.append(abs(estimate - truth))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2], (
            f"median errors {medians} should decrease with sample size"
        )


def test_criterion_8_byte_identical_reruns(tmp_path: Path) -> None:
    with criterion(8, "identical config and seed reproduce identical bytes"):
        triadic = TriadicConfig(mode="b", steps=3000, seed=13, taus=(1, 2))
        first = run_triadic(triadic)
        second = run_triadic(triadic)
        for name in ("signal", "x1", "coupling", "x2", "x3", "u1", "u2", "u3", "value"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))

        pennies = MatchingPenniesConfig(algorithm_id=2, steps=3000, seed=13, taus=(1,))
        first_mp = run_matching_pennies(pennies)
        second_mp = run_matching_pennies(pennies)
        for name in ("monkey", "computer", "monkey_reward", "computer_reward"):
            np.testing.assert_array_equal(
                getattr(first_mp, name), getattr(second_mp, name)
            )

        invocations = {
            "triadic": ["simulate-triadic", "--mode", "b", "--steps", "2000",
                        "--seed", "3", "--taus", "1,2"],
            "pennies": ["simulate-mp", "--algo", "1", "--steps", "2000",
                        "--seed", "3", "--taus", "1"],
            "demo": ["pikl-demo"],
        }
        for label, argv in invocations.items():
            out_a = tmp_path / f"{label}_a"
            out_b = tmp_path / f"{label}_b"
            assert main([*argv, "--out", str(out_a)]) == 0
            assert main([*argv, "--out", str(out_b)]) == 0
            names_a = sorted(p.name for p in out_a.iterdir())
            names_b = sorted(p.name for p in out_b.iterdir())
            assert names_a == names_b and names_a
            for name in names_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                    f"{label}: {name} differs between invocations"
                )
        series = tmp_path / "triadic_a" / "series.csv"
        measured_a = tmp_path / "measured_a"
        measured_b = tmp_path / "measured_b"
        argv = ["measure", "--input", str(series), "--taus", "1,2"]
        assert main([*argv, "--out", str(measured_a)]) == 0
        assert main([*argv, "--out", str(measured_b)]) == 0
        assert (
            (measured_a / "measures.csv").read_bytes()
            == (measured_b / "measures.csv").read_bytes()
        )
