"""What is left of the vectorized trace helpers: :func:`numpy_active`.

Nothing under ``src/`` uses numpy (DESIGN.md §12); the name survives only
because the ``perf/bench.py`` run header imports it, and goes when that
header stops asking for it.
"""

from __future__ import annotations

from importlib.util import find_spec


def numpy_active() -> bool:
    """True when numpy is importable (``perf/bench.py`` prints it)."""
    return find_spec("numpy") is not None
