"""The peak memory one call allocates, as ``tracemalloc`` traces it.

The tests' memory bounds measure through :func:`traced_peak`, so each
bound is read the same way: from the call's start, with nothing traced
before it.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable


def traced_peak(call: Callable[..., Any], *args: Any) -> tuple[Any, int]:
    """``call(*args)``'s result and the traced peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
