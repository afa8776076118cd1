"""Call-count registry for the public operations.

The verification harness embeds these counters in its reports so a run can
prove it exercised every operation at least once.  Counting is a plain dict
update; it never changes results and costs nothing measurable.
"""

from __future__ import annotations

import functools
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

_COUNTS: dict[str, int] = {}


def tracked(name: str) -> Callable[[F], F]:
    """Register ``name`` and count each call of the decorated function."""

    _COUNTS.setdefault(name, 0)

    def deco(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _COUNTS[name] += 1
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


def registered_ops() -> list[str]:
    return sorted(_COUNTS)


def counts() -> dict[str, int]:
    return dict(sorted(_COUNTS.items()))


def reset() -> None:
    for key in _COUNTS:
        _COUNTS[key] = 0
