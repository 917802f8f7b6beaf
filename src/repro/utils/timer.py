"""Wall-clock timing of a ``with`` block, used by the FL round engines."""

from __future__ import annotations

import time
from typing import Optional


class Stopwatch:
    """One-shot wall-clock measurement of a ``with`` block.

    >>> with Stopwatch() as watch:
    ...     pass
    >>> watch.elapsed >= 0.0
    True

    The FL round executors use this for the per-round / per-client timing
    recorded in :class:`repro.fl.simulation.FLHistory`.
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None
