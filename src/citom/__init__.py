"""Measure how much more a group predicts itself than its members do.

The package has three layers.  ``info_measures`` estimates time-delayed
mutual information with the plug-in estimator and reports the excess of
the joint series over the per-agent sum.  ``game_core`` and ``agents``
supply the systems being measured: a coupling-tunable dilemma/harmony
game family with its multilinear utility form, an orchestrated triad
that routes a signal through a game reconfiguration, and a matching
pennies arena with an escalating opponent model.  ``tom_policy`` covers
the belief/anchoring side: Bayes updates over latent partner types,
message selection through a simulated receiver, and anchored (piKL)
policies with their objectives.  ``scenarios`` ties generators to the
measure and ``cli`` exposes everything as commands.
"""

from .info_measures import (
    JointSeries,
    LagPairDistribution,
    MeasureReport,
    SymbolSeries,
    build_lag_pairs,
    excess_tdmi,
    mutual_information,
    tdmi,
)
from .game_core import (
    COOPERATE,
    DEFECT,
    EffectiveGameParam,
    GameTable,
    NashEquilibrium,
    NashSet,
    SignConvention,
    UtilityPolynomial,
    cofactors_2x2,
    cofactors_n,
    effective_game,
    evaluate,
    profile_actions,
    profile_index,
    pure_nash,
    triadic_utilities,
)
from .agents import (
    DeltaRuleLearner,
    MatchingPenniesPredictor,
    Orchestrator,
    binomial_pvalue_half,
    equilibrium_action,
)
from .tom_policy import (
    BeliefState,
    Channel,
    LatentTypeSpace,
    ObjectiveMode,
    ObjectiveParams,
    Policy,
    anchor_objective,
    bayes_update,
    induced_message_policy,
    kl_divergence,
    message_expected_utilities,
    pikl_best_response,
    select_message,
    tom_divergence,
    tom_policy_mix,
    unified_objective,
)
from .scenarios import (
    EpisodeLog,
    MatchingPenniesConfig,
    MatchingPenniesLog,
    TriadicConfig,
    TriadicLog,
    measure_log,
    run_matching_pennies,
    run_triadic,
)
from .io import (
    ParseError,
    SeriesFile,
    parse_series_csv,
)

__version__ = "0.1.0"

__all__ = [
    "SymbolSeries",
    "JointSeries",
    "LagPairDistribution",
    "MeasureReport",
    "build_lag_pairs",
    "mutual_information",
    "tdmi",
    "excess_tdmi",
    "COOPERATE",
    "DEFECT",
    "GameTable",
    "UtilityPolynomial",
    "EffectiveGameParam",
    "NashEquilibrium",
    "NashSet",
    "SignConvention",
    "profile_index",
    "profile_actions",
    "cofactors_2x2",
    "cofactors_n",
    "evaluate",
    "effective_game",
    "pure_nash",
    "triadic_utilities",
    "MatchingPenniesPredictor",
    "DeltaRuleLearner",
    "Orchestrator",
    "binomial_pvalue_half",
    "equilibrium_action",
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
    "select_message",
    "kl_divergence",
    "tom_divergence",
    "pikl_best_response",
    "anchor_objective",
    "unified_objective",
    "TriadicConfig",
    "MatchingPenniesConfig",
    "TriadicLog",
    "MatchingPenniesLog",
    "EpisodeLog",
    "run_triadic",
    "run_matching_pennies",
    "measure_log",
    "ParseError",
    "SeriesFile",
    "parse_series_csv",
    "__version__",
]
