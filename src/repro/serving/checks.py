"""The one type rule every ``EngineConfig`` block check shares.

Each optional part of a pipeline checks its own config block in the module
that runs it (``router``, ``rollout``, ``autoscale``, ``tracing``: each a
``check_block(name, value)``); an integer means the same thing in all of
them — a bool is not an int and neither is a float.
"""

from __future__ import annotations

from typing import Any


def is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
