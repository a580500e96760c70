"""Dense reference implementations of the lag-pair table and TDMI.

These count every (present, lagged) pair into a full ``K x K`` table and
take the mutual information over it, as ``citom.info_measures`` did
before ``tdmi`` counted occupied cells only.  The property tests in
``test_info_oracles.py`` require the production code to return the same
floats, bit for bit.
"""

from __future__ import annotations

import numpy as np

from citom.info_measures import JointSeries, LagPairDistribution, SymbolSeries


def build_lag_pairs(series: SymbolSeries | JointSeries, tau: int) -> LagPairDistribution:
    """``bincount`` of ``present * K + lagged`` over all ``K * K`` cells."""
    if isinstance(series, JointSeries):
        series = series.encode()
    length = len(series)
    if not 1 <= tau < length:
        raise ValueError(f"tau must satisfy 1 <= tau < {length}, got {tau}")
    k = series.alphabet_size
    present = series.symbols[tau:].astype(np.int64)  # widened: the symbols' own type wraps
    lagged = series.symbols[:-tau].astype(np.int64)
    counts = np.bincount(present * k + lagged, minlength=k * k).reshape(k, k)
    return LagPairDistribution.from_counts(counts, tau)


def mutual_information(distribution: LagPairDistribution) -> float:
    """Plug-in MI with marginals summed over the dense table, clamped at 0."""
    probs = distribution.probabilities
    marg_present = probs.sum(axis=1)
    marg_lagged = probs.sum(axis=0)
    product = np.outer(marg_present, marg_lagged)
    nz = probs > 0.0
    mi = float((probs[nz] * np.log2(probs[nz] / product[nz])).sum())
    return max(mi, 0.0)


def tdmi(series: SymbolSeries | JointSeries, tau: int) -> float:
    return mutual_information(build_lag_pairs(series, tau))
