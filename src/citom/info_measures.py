"""Plug-in information measures over discrete symbol series.

The collective-intelligence measure used throughout this package compares
the predictive information a group's joint state carries about its own
future with the sum of what the members carry individually.  Both sides
are time-delayed mutual informations (TDMI) estimated with the
maximum-likelihood (plug-in) estimator: empirical cell frequencies go
straight into the mutual-information sum, logarithms are base 2 (bits),
``0 * log 0`` is taken as 0, and no bias correction is applied.  Plug-in
estimates are therefore biased upward for small samples; callers who care
should compare against the iid baselines exercised in the test suite.

The excess TDMI of a joint series at lag ``tau`` is::

    excess(tau) = I(X_t ; X_{t-tau}) - sum_i I(X^i_t ; X^i_{t-tau})

where ``X`` is the tuple of per-agent symbols and ``X^i`` the i-th
component on its own.  Negative excess is meaningful (the whole can be
less predictable than its parts) and is reported, never clamped.

``tdmi`` and ``excess_tdmi`` count only the occupied cells of the
``K x K`` lag-pair table, where ``K`` is the (joint) alphabet size, so
they use memory proportional to ``T + K`` plus one chunk of about 2**20
table cells, never ``K * K``.  ``mutual_information`` takes a dense
table's nonzero cells through the same MI function, and both results are
bit-identical to the dense sums: cell probabilities are the same
quotients, and each marginal adds the same floats in the same order.
The present (row) marginal scatters a chunk of occupied rows at a time
into a dense ``K``-wide buffer and sums it with ``sum(axis=1)``, as on
the dense table.  The lagged (column) marginal is ``np.bincount`` over
the cells' columns weighted by their probabilities, which adds each
column's cells in row order, as the dense ``sum(axis=0)`` does.
Marginals from exact integer counts would be closer to the truth but
would change the last bit of many results, and with it the bytes of
``measures.json``.  Counting requires ``K * K < 2**63``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymbolSeries",
    "JointSeries",
    "LagPairDistribution",
    "MeasureReport",
    "build_lag_pairs",
    "mutual_information",
    "entropy",
    "tdmi",
    "excess_tdmi",
]

# Codes and squared alphabets must stay below this to fit in int64.
_INT64_LIMIT = 2**63

# Table cells in one chunk of the row-sum buffer (see ``_mutual_information``).
_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class SymbolSeries:
    """A finite time series of symbols from a fixed alphabet ``{0..k-1}``.

    Args:
        symbols: 1-D integer array, one entry per time step.
        alphabet_size: size ``k`` of the alphabet; every symbol must lie
            in ``[0, k)``.  The alphabet is part of the type so that
            distributions built from the series have a well-defined
            support even when some symbols never occur.
    """

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        symbols = np.asarray(self.symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise ValueError(f"symbols must be 1-D, got shape {symbols.shape}")
        if symbols.size == 0:
            raise ValueError("series must contain at least one step")
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.alphabet_size):
            raise ValueError(
                f"symbols must lie in [0, {self.alphabet_size}), "
                f"found range [{symbols.min()}, {symbols.max()}]"
            )
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return int(self.symbols.size)


@dataclass(frozen=True)
class JointSeries:
    """Aligned per-agent symbol series forming one joint state per step.

    Component order is significant: component 0 (agent 1) is the most
    significant digit of the mixed-radix joint encoding, later components
    vary faster.  All components must have equal length.
    """

    components: tuple[SymbolSeries, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("joint series needs at least one component")
        lengths = {len(c) for c in self.components}
        if len(lengths) != 1:
            raise ValueError(f"component lengths differ: {sorted(lengths)}")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n_agents(self) -> int:
        return len(self.components)

    @property
    def joint_alphabet_size(self) -> int:
        size = 1
        for comp in self.components:
            size *= comp.alphabet_size
        return size

    def __len__(self) -> int:
        return len(self.components[0])

    def encode(self) -> SymbolSeries:
        """Collapse to a single series of mixed-radix joint symbols.

        The code of step ``t`` is ``(...(s_1 * k_2 + s_2) * k_3 + ...)``,
        i.e. agent 1 is the most significant digit.  Raises ``ValueError``
        when the joint alphabet has ``2**63`` symbols or more, because the
        codes would not fit in int64.
        """
        size = self.joint_alphabet_size
        if size >= _INT64_LIMIT:
            raise ValueError(
                f"joint alphabet of {size} symbols is too large to encode: "
                f"the product of the alphabet sizes must be < 2**63"
            )
        codes = np.zeros(len(self), dtype=np.int64)
        for comp in self.components:
            codes = codes * comp.alphabet_size + comp.symbols
        return SymbolSeries(codes, size)


@dataclass(frozen=True)
class LagPairDistribution:
    """Joint distribution of (present symbol, symbol ``tau`` steps back).

    ``probabilities[a, b]`` is the probability of present symbol ``a``
    together with lagged symbol ``b``.  ``sample_count`` records how many
    (present, lagged) pairs the distribution was estimated from; it is 0
    for analytically specified distributions.
    """

    probabilities: np.ndarray
    tau: int
    sample_count: int = 0

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError(f"probabilities must be square, got shape {probs.shape}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.sample_count < 0:
            raise ValueError(f"sample_count must be >= 0, got {self.sample_count}")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.min() < 0.0:
            raise ValueError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_counts(cls, counts: np.ndarray, tau: int) -> "LagPairDistribution":
        """Normalise a square count matrix of (present, lagged) pairs."""
        counts = np.asarray(counts)
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            raise ValueError("counts must contain at least one observation")
        return cls(counts.astype(np.float64) / float(total), tau, total)

    @classmethod
    def from_probabilities(
        cls, probabilities: np.ndarray, tau: int
    ) -> "LagPairDistribution":
        """Wrap an analytically specified joint distribution (no samples)."""
        return cls(np.asarray(probabilities, dtype=np.float64), tau, 0)


@dataclass(frozen=True)
class MeasureReport:
    """Excess-TDMI decomposition of one joint series at one lag.

    ``excess == joint_tdmi - sum(per_agent_tdmi)`` by construction; the
    sign is preserved, so a whole less predictable than its parts shows
    up as a negative excess.
    """

    tau: int
    joint_tdmi: float
    per_agent_tdmi: tuple[float, ...]
    excess: float = field(init=False)

    def __post_init__(self) -> None:
        total = 0.0
        for part in self.per_agent_tdmi:
            total += part
        object.__setattr__(self, "excess", self.joint_tdmi - total)


def _occupied_cells(
    series: SymbolSeries | JointSeries, tau: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Occupied cells of the (present, lagged) table, in row-major order.

    Returns ``(k, rows, cols, probs)``: the alphabet size and, per
    occupied cell, its row (present symbol), column (lagged symbol) and
    probability ``count / (T - tau)``.
    """
    if isinstance(series, JointSeries):
        series = series.encode()
    length = len(series)
    if not 1 <= tau < length:
        raise ValueError(f"tau must satisfy 1 <= tau < {length}, got {tau}")
    k = series.alphabet_size
    if k * k >= _INT64_LIMIT:
        raise ValueError(
            f"alphabet of {k} symbols is too large to count lag pairs: "
            f"its square must be < 2**63"
        )
    codes = series.symbols[tau:] * k + series.symbols[:-tau]
    # A table with no more cells than pairs is cheaper to count than to sort.
    if k * k <= codes.size:
        table = np.bincount(codes, minlength=k * k)
        cells = np.flatnonzero(table)
        counts = table[cells]
    else:
        cells, counts = np.unique(codes, return_counts=True)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("counts must contain at least one observation")
    probs = counts / total
    mass = float(probs.sum())
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {mass!r}")
    rows, cols = np.divmod(cells, k)
    return k, rows, cols, probs


def _mutual_information(
    k: int, rows: np.ndarray, cols: np.ndarray, probs: np.ndarray
) -> float:
    """Plug-in MI in bits from the occupied cells of a ``K x K`` table.

    ``rows``, ``cols`` and ``probs`` give each occupied cell's row
    (present symbol), column (lagged symbol) and probability, in
    row-major order.  The occupied rows are scattered a chunk at a time
    into one dense ``K``-wide buffer, so every row is summed by
    ``sum(axis=1)`` over the same ``K`` values as in the dense table.
    See ``mutual_information`` for the clamp at 0.
    """
    new_row = np.empty(rows.size, dtype=bool)
    new_row[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    bounds = np.concatenate((np.flatnonzero(new_row), [rows.size]))
    ranks = np.cumsum(new_row) - 1
    n_rows = bounds.size - 1
    per_chunk = min(max(1, _CHUNK_CELLS // k), n_rows)
    buffer = np.zeros((per_chunk, k))
    row_sums = np.empty(n_rows)
    for first in range(0, n_rows, per_chunk):
        last = min(first + per_chunk, n_rows)
        cells = slice(bounds[first], bounds[last])
        local = ranks[cells] - first
        buffer[local, cols[cells]] = probs[cells]
        row_sums[first:last] = buffer[: last - first].sum(axis=1)
        buffer[local, cols[cells]] = 0.0
    # Release the chunk's pages before the per-cell temporaries take theirs.
    del buffer
    product = row_sums[ranks]
    product *= np.bincount(cols, weights=probs, minlength=k)[cols]
    mi = float((probs * np.log2(probs / product)).sum())
    return max(mi, 0.0)


def build_lag_pairs(
    series: SymbolSeries | JointSeries, tau: int
) -> LagPairDistribution:
    """Empirical joint distribution of (symbol at t, symbol at t - tau).

    Pairs are formed for every ``t`` in ``[tau, T)``, so the first ``tau``
    steps contribute only as lagged partners and ``T - tau`` pairs are
    counted.  Requires ``1 <= tau < T``.  The table is dense, ``K x K``;
    ``tdmi`` gives its mutual information without building it.
    """
    k, rows, cols, probs = _occupied_cells(series, tau)
    table = np.zeros((k, k))
    table[rows, cols] = probs
    return LagPairDistribution(table, tau, len(series) - tau)


def entropy(probabilities: np.ndarray) -> float:
    """Plug-in Shannon entropy of a distribution, in bits."""
    probs = np.asarray(probabilities, dtype=np.float64)
    nz = probs > 0.0
    return float(-(probs[nz] * np.log2(probs[nz])).sum())


def mutual_information(distribution: LagPairDistribution) -> float:
    """Plug-in mutual information of a lag-pair distribution, in bits.

    Zero-probability cells contribute nothing (0 log 0 = 0).  The result
    is clamped at 0: the plug-in value is a KL divergence against the
    product of its own marginals, so any negative output is pure floating
    point round-off.
    """
    probs = distribution.probabilities
    rows, cols = np.nonzero(probs > 0.0)
    return _mutual_information(probs.shape[0], rows, cols, probs[rows, cols])


def tdmi(series: SymbolSeries | JointSeries, tau: int) -> float:
    """Time-delayed mutual information ``I(X_t ; X_{t-tau})`` in bits.

    Equal, bit for bit, to ``mutual_information(build_lag_pairs(series,
    tau))``, without building the ``K x K`` table.
    """
    return _mutual_information(*_occupied_cells(series, tau))


def excess_tdmi(joint: JointSeries, tau: int) -> MeasureReport:
    """Joint TDMI minus the sum of per-agent TDMIs, at one lag.

    Positive excess means the joint state predicts its own future better
    than the agents do separately; the plug-in estimates on both sides
    share the same bias direction but not magnitude, so small samples can
    distort the difference.
    """
    joint_value = tdmi(joint, tau)
    parts = tuple(tdmi(component, tau) for component in joint.components)
    return MeasureReport(tau=tau, joint_tdmi=joint_value, per_agent_tdmi=parts)
