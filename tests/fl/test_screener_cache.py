"""The streaming screener's cached window statistics.

:class:`~repro.fl.robust.StreamingScreener` computes its window statistics
once per window (sorting the window for the coordinate-wise median) instead
of once per arrival.  The oracle below is the per-arrival arithmetic it
replaced: ``np.median`` over a freshly stacked window on every arrival.
Replayed streams must give bitwise the same ``(reason, score)`` pairs and
equal centers through warm-up, odd and even window lengths, tied and
signed-zero coordinates, rejections (which keep the cache) and a
mid-stream :meth:`~repro.fl.robust.StreamingScreener.import_state`.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.config import ScreeningConfig
from repro.fl.aggregation import flatten_state
from repro.fl.robust import StreamingScreener

_EPS = 1e-12

CONFIG = ScreeningConfig(
    max_delta_norm=1e4, norm_multiplier=3.0, outlier_threshold=2.5, min_cosine=-0.2
)


class _OracleScreener:
    """Per-arrival screening: every statistic recomputed from the window."""

    def __init__(self, config, window):
        self.config = config
        self.deltas = deque(maxlen=window)

    def screen(self, delta):
        """``(reason, score, center)``; ``center`` is ``None`` before the
        window holds ``min_updates`` deltas."""
        config = self.config
        flat = flatten_state(delta).astype(np.float64, copy=False)
        if not np.all(np.isfinite(flat)):
            return "non_finite", float("inf"), None
        norm = float(np.linalg.norm(flat))
        if config.max_delta_norm is not None and norm > config.max_delta_norm:
            return "norm_bound", 0.0, None
        score, reason, center = 0.0, None, None
        if 0 < len(self.deltas) < config.min_updates:
            window_norms = [float(np.linalg.norm(d)) for d in self.deltas]
            median_norm = float(np.median(window_norms))
            if config.norm_multiplier > 0 and norm > config.norm_multiplier * max(
                median_norm, _EPS
            ):
                reason = "norm_outlier"
        elif len(self.deltas) >= config.min_updates:
            matrix = np.stack(list(self.deltas))
            center = np.median(matrix, axis=0)
            center_norm = float(np.linalg.norm(center))
            residuals = np.linalg.norm(matrix - center[None, :], axis=1)
            scale = max(float(np.median(residuals)), _EPS)
            score = float(np.linalg.norm(flat - center) / scale)
            median_norm = float(np.median(np.linalg.norm(matrix, axis=1)))
            denominator = norm * center_norm
            cosine = float(flat @ center / denominator) if denominator > _EPS else 1.0
            if config.norm_multiplier > 0 and norm > config.norm_multiplier * max(
                median_norm, _EPS
            ):
                reason = "norm_outlier"
            elif config.outlier_threshold > 0 and score > config.outlier_threshold:
                reason = "distance_outlier"
            elif config.min_cosine is not None and cosine < config.min_cosine:
                reason = "direction"
        if reason is None:
            self.deltas.append(np.array(flat, copy=True))
        return reason, score, center


def _stream(seed, arrivals=60, size=41):
    """Honest deltas around one direction, with ties, signed zeros and a
    scripted share of attacks."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=size)
    for index in range(arrivals):
        delta = base + rng.normal(scale=0.4, size=size)
        delta[:12] = np.round(delta[:12], 1)  # ties across the window
        delta[12:16] = 0.0
        delta[16:20] = -0.0  # a column of signed zeros
        delta[20:24] = rng.choice([0.0, -0.0], size=4)
        if index % 11 == 7:
            delta = -2.0 * delta  # sign flip: direction / distance outlier
        elif index % 13 == 9:
            delta = 40.0 * delta  # norm outlier
        elif index == 30:
            delta[3] = np.nan
        elif index == 41:
            delta = 1e5 * delta  # past max_delta_norm
        yield {"w": delta[:30].reshape(5, 6), "b": delta[30:]}


@pytest.mark.parametrize("window", [7, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_screener_matches_per_arrival_screening(window, seed):
    screener = StreamingScreener(CONFIG, window=window)
    oracle = _OracleScreener(CONFIG, window)
    exported = []
    seen = set()
    for index, delta in enumerate(_stream(seed)):
        if index == 20:
            exported = screener.export_state()
        if index == 45:
            # A restored window replaces the one the warm cache describes.
            assert screener._statistics() is not None
            screener.import_state(exported)
            oracle.deltas = deque(
                (np.array(d, copy=True) for d in exported), maxlen=window
            )
        cached = screener._statistics()
        length = len(oracle.deltas)
        expected_reason, expected_score, expected_center = oracle.screen(delta)
        reason, score = screener.screen(index, delta)
        assert (reason, score.hex()) == (expected_reason, expected_score.hex()), index
        if expected_center is not None:
            assert np.array_equal(cached.center, expected_center), index
            seen.add(("full", length % 2, reason is None))
        elif length:
            seen.add(("warmup",))
        if reason is not None and cached is not None:
            # A rejected delta leaves the window, and so the cache, alone.
            assert screener._statistics() is cached, index
        assert len(screener) == len(oracle.deltas)
    assert {("warmup",), ("full", 0, True), ("full", 1, True)} <= seen
    assert any(key[0] == "full" and not key[2] for key in seen), "no rejection"
