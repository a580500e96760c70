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

Each public name is declared once, in its module's ``__all__``, and the
package re-exports the five lists above whole.  The one exception is
``io``: the package republishes only three of its names, so those three
are named here too.  A later wildcard import would silently rebind a
name that two modules export; the duplicate check on ``citom.__all__``
in ``tests/test_exports.py`` is what catches that.
"""

from .info_measures import *
from .game_core import *
from .agents import *
from .tom_policy import *
from .scenarios import *
from .io import ParseError, SeriesFile, parse_series_csv
from . import agents, game_core, info_measures, scenarios, tom_policy

__version__ = "0.1.0"

__all__ = [
    *info_measures.__all__,
    *game_core.__all__,
    *agents.__all__,
    *tom_policy.__all__,
    *scenarios.__all__,
    "ParseError",
    "SeriesFile",
    "parse_series_csv",
    "__version__",
]
