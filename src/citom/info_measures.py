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
they use memory proportional to ``T + K``, never ``K * K``.  A wide joint
alphabet still costs a ``K``-long column marginal, plus ``K / 16`` lane
slots per occupied row in ``_present_marginal``: at ``tau = 1`` on 1000
steps of iid binary agents, ``excess_tdmi`` takes 0.1 s and 8 MiB (traced
peak) at 20 agents, 1.5 s and 128 MiB at 24, 6.4 s and 512 MiB at 26
(2-core Xeon VM, numpy 2.4.6).  The one
counter, ``_lag_counts``, sorts a lag's pair codes in place, in the
narrowest unsigned type, or counts them if the table has no more cells
than pairs, and returns each occupied cell's int64 row, column and count,
which every reader divides by the pairs once.  All are bit-identical to
the dense reference in ``tests/info_reference.py``: the probabilities are
the same quotients, and each marginal adds the same floats in the same
order (a row's in ``_present_marginal``, a column's by ``np.bincount`` in
row order, as ``sum(axis=0)`` does).  Exact integer marginals would change
the last bit of many results, and the bytes of ``measures.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Sequence

import numpy as np

__all__ = [
    "SymbolSeries",
    "JointSeries",
    "LagPairDistribution",
    "MeasureReport",
    "build_lag_pairs",
    "mutual_information",
    "tdmi",
    "excess_tdmi",
]

# Codes and squared alphabets must stay below this to fit in int64.
_INT64_LIMIT = 2**63

# Lane slots in one chunk of the row sums (see ``_present_marginal``).
_CHUNK_CELLS = 1 << 16

# numpy's float64 ``pairwise_sum`` (numpy/_core/src/umath/loops_utils.h.src)
# adds in 8 lanes and halves any run of more than 128 values.
_LANES, _BLOCK = 8, 128

# Most cells in the lag-pair table of a run of agents that ``excess_tdmi``
# counts together: any size is exact, and a small table is cheap to sum out.
_GROUP_CELLS = 1 << 8

_DIST_TOL = 1e-9


def as_distribution(values: np.ndarray | Sequence[float], label: str) -> np.ndarray:
    """``values`` as a float64 vector, checked to be a distribution named ``label``."""
    dist = np.asarray(values, dtype=np.float64)
    if dist.ndim != 1:
        raise ValueError(f"{label} must be 1-D, got shape {dist.shape}")
    if dist.size == 0:
        raise ValueError(f"{label} must be non-empty")
    if not np.isfinite(dist).all():
        raise ValueError(f"{label} must be finite")
    if dist.min() < 0.0:
        raise ValueError(f"{label} must be non-negative")
    if abs(float(dist.sum()) - 1.0) > _DIST_TOL:
        raise ValueError(f"{label} must sum to 1, got {float(dist.sum())!r}")
    return dist


def as_integer(value, label: str) -> int:
    """``value`` as an ``int`` by ``operator.index``, else a ``ValueError`` naming ``label``."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{label} must be an integer, got {value!r}") from None


def frozen(array: np.ndarray, dtype) -> np.ndarray:
    """``array`` as read-only ``dtype``, copied if it or what it views is writable: the freeze rule
    of ``SymbolSeries``, ``LagPairDistribution`` and the ``game_core`` and ``tom_policy`` objects.
    A read-only owner, such as a parsed column, is kept without a copy (numpy could unlock it)."""
    owner = array
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    kept = array.astype(dtype, copy=not (owner is None or isinstance(owner, bytes)))
    kept.setflags(write=False)
    return kept


def _check_integers(values: np.ndarray, label: str) -> None:
    """Raise ``ValueError`` naming ``label`` if ``values`` is empty or not all finite integers."""
    if values.size == 0:
        raise ValueError(f"{label} must be non-empty")
    if values.dtype.kind not in "biu":
        floats = values.astype(np.float64).ravel()
        bad = np.flatnonzero(~np.isfinite(floats) | (floats != np.trunc(floats)))
        if bad.size:
            raise ValueError(f"{label} must be integers, got {floats[bad[0]]}")


def _narrowest(alphabet_size: int) -> np.dtype:
    """The narrowest unsigned type that holds ``alphabet_size - 1`` (at most uint64)."""
    return np.min_scalar_type(min(alphabet_size, _INT64_LIMIT) - 1)


def _mixed_radix(components: Sequence[SymbolSeries], dtype) -> np.ndarray:
    """Read-only ``dtype`` codes of the components, the first the most significant digit."""
    codes, radix = np.zeros(len(components[0]), dtype=dtype), 1
    for comp in components:
        if radix > 1:  # zero codes need no shift, and a radix of 2**8 does not fit in uint8
            codes *= comp.alphabet_size
        codes += comp.symbols
        radix *= comp.alphabet_size
    codes.setflags(write=False)
    return codes


@dataclass(frozen=True)
class SymbolSeries:
    """A finite time series of symbols from a fixed alphabet ``{0..k-1}``.

    Args:
        symbols: 1-D integer array, one entry per time step, kept
            read-only in the narrowest unsigned type that holds
            ``alphabet_size - 1`` (a copy if anyone could still write it,
            or if it has another type): uint8 for up to 256 symbols.
        alphabet_size: size ``k`` of the alphabet; every symbol must lie
            in ``[0, k)``.  The alphabet is part of the type so that
            distributions built from the series have a well-defined
            support even when some symbols never occur.
    """

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet_size", as_integer(self.alphabet_size, "alphabet_size"))
        symbols = np.asarray(self.symbols)
        if symbols.ndim != 1:
            raise ValueError(f"symbols must be 1-D, got shape {symbols.shape}")
        if symbols.size == 0:
            raise ValueError("series must contain at least one step")
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        _check_integers(symbols, "symbols")
        if symbols.min() < 0 or symbols.max() >= self.alphabet_size:
            raise ValueError(
                f"symbols must lie in [0, {self.alphabet_size}), "
                f"found range [{symbols.min()}, {symbols.max()}]"
            )
        object.__setattr__(self, "symbols", frozen(symbols, _narrowest(self.alphabet_size)))

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
    _encoded: SymbolSeries | None = field(default=None, init=False, repr=False, compare=False)
    _groups: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        when the joint alphabet has ``2**63`` symbols or more, because
        counting needs int64 codes.  The codes take the joint alphabet's
        narrowest unsigned type.  Later calls return the first result.
        """
        if self._encoded is None:
            size = self.joint_alphabet_size
            if size >= _INT64_LIMIT:
                raise ValueError(
                    f"joint alphabet of {size} symbols is too large to encode: "
                    f"the product of the alphabet sizes must be < 2**63"
                )
            codes = _mixed_radix(self.components, _narrowest(size))
            object.__setattr__(self, "_encoded", SymbolSeries(codes, size))
        return self._encoded

    def _agent_groups(self) -> tuple[JointSeries | SymbolSeries, ...]:
        """Runs of consecutive agents whose lag-pair table has at most ``_GROUP_CELLS``
        cells, for ``excess_tdmi``: a ``JointSeries`` of several agents, encoded once
        for all lags, or one agent's series.  Later calls return the first result."""
        if self._groups is None:
            runs, cells = [[]], 1
            for comp in self.components:
                cells *= comp.alphabet_size**2
                if cells > _GROUP_CELLS and runs[-1]:
                    runs.append([])
                    cells = comp.alphabet_size**2
                runs[-1].append(comp)
            groups = tuple(JointSeries(run) if run[1:] else run[0] for run in runs)
            object.__setattr__(self, "_groups", groups)
        return self._groups


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
        object.__setattr__(self, "tau", as_integer(self.tau, "tau"))
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.sample_count < 0:
            raise ValueError(f"sample_count must be >= 0, got {self.sample_count}")
        as_distribution(probs.ravel(), "probabilities")
        object.__setattr__(self, "probabilities", frozen(probs, np.float64))

    @classmethod
    def from_counts(cls, counts: np.ndarray, tau: int) -> "LagPairDistribution":
        """Normalise a square count matrix of (present, lagged) pairs."""
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got shape {counts.shape}")
        _check_integers(counts, "counts")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            raise ValueError("counts must contain at least one observation")
        probs = np.divide(counts, float(total), dtype=np.float64)
        probs.setflags(write=False)  # a fresh array, which ``frozen`` need not copy
        return cls(probs, tau, total)

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
        object.__setattr__(self, "tau", as_integer(self.tau, "tau"))
        total = 0.0
        for part in self.per_agent_tdmi:
            total += part
        object.__setattr__(self, "excess", self.joint_tdmi - total)


def _lag_counts(
    series: SymbolSeries | JointSeries, tau: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, int]:
    """Occupied cells of the (present, lagged) table, in row-major order.

    Returns ``(k, rows, cols, counts, pairs)``: the alphabet size, per
    occupied cell its int64 row (present symbol), column (lagged symbol)
    and count, and the number of pairs ``T - tau``.  Sorted codes give the
    cells and counts where a run of equal codes starts, found by one mask.
    """
    if isinstance(series, JointSeries):
        series = series.encode()
    tau = as_integer(tau, "tau")
    if not 1 <= tau < len(series):
        raise ValueError(f"tau must satisfy 1 <= tau < {len(series)}, got {tau}")
    k = series.alphabet_size
    if k * k >= _INT64_LIMIT:
        raise ValueError(
            f"alphabet of {k} symbols is too large to count lag pairs: "
            f"its square must be < 2**63"
        )
    symbols, pairs = series.symbols, len(series) - tau
    dtype = np.min_scalar_type(k * k - 1)  # narrowest to sort; ``bincount`` casts it to intp
    codes = np.multiply(symbols[tau:], k, dtype=dtype, casting="unsafe")
    np.add(codes, symbols[:-tau], out=codes, dtype=dtype, casting="unsafe")
    if k * k <= pairs:  # a table no bigger than the pairs is cheaper to count than to sort
        table = np.bincount(codes, minlength=k * k)
        cells = np.flatnonzero(table)
        counts = table[cells]
    else:
        codes.sort()
        starts = np.ones(pairs, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        cells, counts = codes[starts], np.diff(starts, append=pairs)
        del codes, starts  # before the int64 rows and columns
    rows, cols = np.divmod(cells.astype(np.int64, copy=False), k)
    return k, rows, cols, counts, pairs


def _present_marginal(k: int, rows: np.ndarray, cols: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Each cell's row sum, bit for bit the dense ``K``-wide row's ``sum(axis=1)``.

    numpy's ``pairwise_sum`` splits a row at multiples of ``_LANES`` into
    blocks of at most ``_BLOCK`` columns, adds columns ``j, j + 8, ...`` of
    a block in lane ``j``, combines lanes as ``((r0+r1)+(r2+r3))+((r4+r5)+
    (r6+r7))``, adds the row's last ``K % 8`` columns in order, and adds the
    blocks up the halving tree; a block that splits no further keeps its
    columns in its left child, a leaf of one complete tree.  A chunk of rows
    is ``bincount`` into slots ``leaf * 8 + lane`` in row-major order, paired
    down to a value per leaf, given its tail (``np.add.at``), and paired down
    to a value per row; an empty slot adds ``+0.0``, which changes no sum.
    """
    if k < _LANES:  # a row of fewer columns is added in order from 0, as ``bincount`` does
        return np.bincount(rows, probs)[rows]
    bounds = np.concatenate(([0], np.flatnonzero(rows[1:] != rows[:-1]) + 1, [rows.size]))
    n_rows, widths = bounds.size - 1, np.diff(bounds)  # cells per occupied row
    leaves = np.array([k])  # columns per leaf, left to right
    while leaves.max() > _BLOCK:
        half = np.where(leaves > _BLOCK, leaves // 2 - leaves // 2 % _LANES, leaves)
        leaves = np.column_stack((half, leaves - half)).ravel()
    slots = _LANES * leaves.size  # per row
    first_slots = np.repeat(np.arange(0, slots, _LANES), -(-leaves // _LANES))  # per octet
    positions = first_slots[cols // _LANES]  # in place, so that one temporary lives at a time
    positions += cols & (_LANES - 1)
    positions += np.repeat(np.arange(0, n_rows * slots, slots), widths)
    body = k - k % _LANES  # columns added in lanes; the rest are the tail
    weights = np.where(cols < body, probs, 0.0) if body < k else probs
    per_chunk = min(max(1, _CHUNK_CELLS // slots), n_rows)  # rows
    row_sums = np.empty(n_rows)
    for first in range(0, n_rows, per_chunk):
        last = min(first + per_chunk, n_rows)
        lo, hi = bounds[first], bounds[last]
        cells = positions[lo:hi] - first * slots
        sums = np.bincount(cells, weights[lo:hi], minlength=(last - first) * slots)
        while sums.size > (last - first) * leaves.size:
            sums = sums[0::2] + sums[1::2]
        tail = lo + np.flatnonzero(cols[lo:hi] >= body)
        np.add.at(sums, positions[tail] // _LANES - first * leaves.size, probs[tail])
        while sums.size > last - first:
            sums = sums[0::2] + sums[1::2]
        row_sums[first:last] = sums
    return np.repeat(row_sums, widths)


def _mutual_information(k: int, rows: np.ndarray, cols: np.ndarray, probs: np.ndarray) -> float:
    """Plug-in MI in bits from the occupied cells of a ``K x K`` table.

    ``rows``, ``cols`` and ``probs`` give each occupied cell's row
    (present symbol), column (lagged symbol) and probability, in
    row-major order.  Each marginal adds the dense table's floats in its
    order.  See ``mutual_information`` for the clamp at 0.
    """
    product = _present_marginal(k, rows, cols, probs)
    product *= np.bincount(cols, weights=probs, minlength=k)[cols]
    np.log2(np.divide(probs, product, out=product), out=product)
    mi = float(np.multiply(product, probs, out=product).sum())
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
    k, rows, cols, counts, _ = _lag_counts(series, tau)
    table = np.zeros((k, k), dtype=np.int64)
    table[rows, cols] = counts
    return LagPairDistribution.from_counts(table, tau)


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

    Pairs are formed for every ``t`` in ``[tau, T)``, so ``T - tau`` pairs
    are counted; requires ``1 <= tau < T``.  Equal, bit for bit, to
    ``mutual_information(build_lag_pairs(series, tau))`` and to the dense
    reference in ``tests/info_reference.py``, without the ``K x K`` table.
    """
    k, rows, cols, counts, pairs = _lag_counts(series, tau)
    probs = counts / pairs
    del counts  # before the marginals, which are the lag's peak
    return _mutual_information(k, rows, cols, probs)


def excess_tdmi(joint: JointSeries, tau: int) -> MeasureReport:
    """Joint TDMI minus the sum of per-agent TDMIs, at one lag.

    Positive excess means the joint state predicts its own future better
    than the agents do separately; the plug-in estimates on both sides
    share the same bias direction but not magnitude, so small samples can
    distort the difference.

    Each member's TDMI is ``tdmi(component, tau)`` bit for bit: a run of
    agents is counted once per lag, and each member's counts, exact integer
    sums over the other members, give the cells and quotients ``tdmi`` has.
    """
    joint_value = tdmi(joint, tau)
    parts = []
    for run in joint._agent_groups():
        if isinstance(run, SymbolSeries):
            parts.append(tdmi(run, tau))
            continue
        stride, rows, cols, counts, pairs = _lag_counts(run, tau)
        for k in [comp.alphabet_size for comp in run.components]:  # most significant first
            stride //= k
            table = np.bincount(rows // stride % k * k + cols // stride % k, counts, k * k)
            cells = np.flatnonzero(table)  # row-major, as in ``_lag_counts``
            parts.append(_mutual_information(k, *np.divmod(cells, k), table[cells] / pairs))
    return MeasureReport(tau=tau, joint_tdmi=joint_value, per_agent_tdmi=tuple(parts))
