"""Every array a frozen citom object holds follows ``frozen``'s one rule.

The array is read-only, and it is a copy only when the caller could still
write it: as its owner, or through the writable base of a view.  A
read-only array that owns its memory is kept as it is, and the caller's
own array is never locked.  ``SITES`` names each such field once;
``test_every_frozen_array_field_has_a_site`` fails when a frozen class in
``citom.__all__`` gains an array field that the table does not name.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import pytest

import citom
from citom import (
    BeliefState,
    Channel,
    EpisodeLog,
    GameTable,
    LagPairDistribution,
    LatentTypeSpace,
    ObjectiveParams,
    Policy,
    SymbolSeries,
    UtilityPolynomial,
)

# "Class.field": (a builder from one valid array, the array's values and dtype).
SITES: dict[str, tuple[Callable[[np.ndarray], object], list, type]] = {
    "GameTable.payoffs": (
        lambda a: GameTable(2, a), [[1.0, -0.5, 1.5, 0.0], [1.0, 1.5, -0.5, 0.0]], np.float64
    ),
    "UtilityPolynomial.cofactors": (
        lambda a: UtilityPolynomial(2, a), [0.5, 0.25, -0.25, 0.0], np.float64
    ),
    "LatentTypeSpace.prior": (LatentTypeSpace, [0.5, 0.5], np.float64),
    "Channel.likelihood": (Channel, [[0.8, 0.2], [0.3, 0.7]], np.float64),
    "BeliefState.posterior": (BeliefState, [0.6, 0.4], np.float64),
    "Policy.table": (Policy, [[0.9, 0.1], [0.5, 0.5]], np.float64),
    "ObjectiveParams.q_values": (ObjectiveParams, [[1.0, 0.0], [0.5, 2.0]], np.float64),
    "ObjectiveParams.rewards": (
        lambda a: ObjectiveParams(np.zeros(a.shape), a), [[1.0, 0.0], [0.5, 2.0]], np.float64
    ),
    "SymbolSeries.symbols": (lambda a: SymbolSeries(a, 2), [0, 1, 1, 0, 1], np.uint8),
    "LagPairDistribution.probabilities": (
        lambda a: LagPairDistribution(a, 1), [[0.5, 0.25], [0.125, 0.125]], np.float64
    ),
}

# Episode logs take ownership of the columns their simulation has just made
# and lock them in place: a copy would double the columns' memory and split
# the buffer that a triad log's ``x1`` and ``coupling`` share.
EXEMPT = (EpisodeLog,)


def _held(site: str, array: np.ndarray) -> np.ndarray:
    build = SITES[site][0]
    return getattr(build(array), site.split(".")[1])


def _handed_over(site: str, how: str) -> tuple[np.ndarray, np.ndarray]:
    """The array a caller hands over ``how``, and the writable array that
    can still reach its memory."""
    _, values, dtype = SITES[site]
    if how == "owner":
        owner = np.array(values, dtype=dtype)
        return owner, owner
    base = np.array([values, values], dtype=dtype)
    view = base[0]
    if how == "read-only view":
        view.setflags(write=False)
    return view, base


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("how", ["owner", "writable view", "read-only view"])
def test_a_writable_input_is_copied_and_left_writable(site: str, how: str) -> None:
    values = SITES[site][1]
    array, writable = _handed_over(site, how)
    held = _held(site, array)
    assert writable.flags.writeable
    assert array.flags.writeable == (how != "read-only view")
    assert not held.flags.writeable
    writable[...] = 5
    assert held.tolist() == values


@pytest.mark.parametrize("site", SITES)
def test_a_read_only_owner_is_kept_without_a_copy(site: str) -> None:
    _, values, dtype = SITES[site]
    owned = np.array(values, dtype=dtype)
    owned.setflags(write=False)
    assert np.shares_memory(_held(site, owned), owned)


def test_every_frozen_array_field_has_a_site() -> None:
    found = set()
    for name in citom.__all__:
        cls = getattr(citom, name)
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        if not cls.__dataclass_params__.frozen or issubclass(cls, EXEMPT):
            continue
        found |= {
            f"{cls.__name__}.{field.name}"
            for field in dataclasses.fields(cls)
            if "ndarray" in str(field.type)
        }
    assert found == set(SITES)
