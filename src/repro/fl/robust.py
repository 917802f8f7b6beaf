"""Server-side screening of incoming client updates.

FedAvg aggregates whatever the clients return; one NaN-poisoned or
sign-flipped state dict corrupts the global model for everyone.  This module
is the server's first line of defense: every update is validated *before*
aggregation and flagged clients are quarantined for the round.

:func:`screen_updates` applies up to four independent rules (configured by
:class:`~repro.core.config.ScreeningConfig`):

1. **finiteness** — any NaN/Inf coordinate rejects the update outright;
2. **absolute norm bound** — the L2 norm of the update's delta from the
   broadcast state must not exceed ``max_delta_norm``;
3. **relative norm bound** — deltas larger than ``norm_multiplier`` times
   the round's *median* delta norm are rejected (scale-free; catches boosted
   model-replacement without tuning an absolute bound);
4. **distance/direction outliers** — each delta's distance to the
   coordinate-wise *median delta* (a robust center a Byzantine minority
   cannot move) is normalized by the median of those distances into an
   anomaly score; scores above ``outlier_threshold`` — or deltas whose
   cosine similarity to the median delta falls below ``min_cosine`` — are
   rejected.  Sign-flipped updates keep an honest-looking norm but sit far
   from the median delta, with cosine near -1.

Every statistic is computed over the full update set in one pass, so the
decision for a client is independent of iteration order — screening is
permutation-invariant and bit-identical across execution backends, and a
checkpoint-resumed round reproduces the same quarantine decisions.

Rejected clients count against the server's ``min_participation`` quorum
(they delivered no usable update); per-client reasons and anomaly scores
surface in ``RoundMetrics.rejected_clients`` / ``anomaly_scores``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ScreeningConfig
from repro.fl.aggregation import flatten_state
from repro.fl.client import ClientUpdate
from repro.utils.logging import get_logger

StateDict = Dict[str, np.ndarray]
_log = get_logger("fl.robust")

#: Guard against division by an exactly-zero robust scale (identical updates).
_EPS = 1e-12

#: Reasons screening can quarantine a client, in rule order.
REJECT_REASONS = (
    "shape_mismatch",
    "non_finite",
    "norm_bound",
    "norm_outlier",
    "distance_outlier",
    "direction",
)


@dataclass
class ScreeningReport:
    """Outcome of screening one round's updates.

    ``scores`` holds every screened client's anomaly score (distance to the
    median delta over the median such distance; ``inf`` for non-finite
    updates), not just the rejected ones — the telemetry a deployment would
    alert on before an attacker crosses the threshold.
    """

    accepted: List[ClientUpdate] = field(default_factory=list)
    rejected: Dict[int, str] = field(default_factory=dict)
    scores: Dict[int, float] = field(default_factory=dict)
    delta_norms: Dict[int, float] = field(default_factory=dict)

    @property
    def num_screened(self) -> int:
        return len(self.accepted) + len(self.rejected)


def screen_updates(
    updates: Sequence[ClientUpdate],
    reference: StateDict,
    config: Optional[ScreeningConfig] = None,
) -> ScreeningReport:
    """Validate a round's updates against the broadcast ``reference`` state.

    Returns a :class:`ScreeningReport`; never raises on malicious content —
    deciding whether the surviving set meets quorum is the server's job.
    """
    config = config or ScreeningConfig()
    report = ScreeningReport()
    flat_reference = flatten_state(reference).astype(np.float64, copy=False)

    deltas: Dict[int, np.ndarray] = {}
    finite_ids: List[int] = []
    for update in updates:
        flat = flatten_state(update.state).astype(np.float64, copy=False)
        if flat.shape != flat_reference.shape:
            report.rejected[update.client_id] = "shape_mismatch"
            report.scores[update.client_id] = float("inf")
            continue
        if not np.all(np.isfinite(flat)):
            report.rejected[update.client_id] = "non_finite"
            report.scores[update.client_id] = float("inf")
            continue
        delta = flat - flat_reference
        deltas[update.client_id] = delta
        report.delta_norms[update.client_id] = float(np.linalg.norm(delta))
        finite_ids.append(update.client_id)

    norms = np.array([report.delta_norms[cid] for cid in finite_ids])
    statistical = len(finite_ids) >= config.min_updates
    median_norm = float(np.median(norms)) if statistical else 0.0

    # Distance-based anomaly scores against the coordinate-wise median
    # delta.  Computed for every finite update (telemetry) even when the
    # rejection rule is disabled.
    scores = {cid: 0.0 for cid in finite_ids}
    cosines = {cid: 1.0 for cid in finite_ids}
    if statistical:
        matrix = np.stack([deltas[cid] for cid in finite_ids])
        center = np.median(matrix, axis=0)
        center_norm = float(np.linalg.norm(center))
        residuals = np.linalg.norm(matrix - center[None, :], axis=1)
        scale = max(float(np.median(residuals)), _EPS)
        for cid, residual, delta in zip(finite_ids, residuals, matrix):
            scores[cid] = float(residual / scale)
            denominator = float(np.linalg.norm(delta)) * center_norm
            cosines[cid] = (
                float(delta @ center / denominator) if denominator > _EPS else 1.0
            )
    report.scores.update(scores)

    by_id = {update.client_id: update for update in updates}
    for cid in finite_ids:
        norm = report.delta_norms[cid]
        if config.max_delta_norm is not None and norm > config.max_delta_norm:
            report.rejected[cid] = "norm_bound"
        elif (
            statistical
            and config.norm_multiplier > 0
            and norm > config.norm_multiplier * max(median_norm, _EPS)
        ):
            report.rejected[cid] = "norm_outlier"
        elif (
            statistical
            and config.outlier_threshold > 0
            and scores[cid] > config.outlier_threshold
        ):
            report.rejected[cid] = "distance_outlier"
        elif (
            statistical
            and config.min_cosine is not None
            and cosines[cid] < config.min_cosine
        ):
            report.rejected[cid] = "direction"
        else:
            report.accepted.append(by_id[cid])

    if report.rejected:
        _log.warning(
            "screening quarantined %d/%d updates (%s)",
            len(report.rejected),
            len(updates),
            ", ".join(
                f"client {cid}: {reason}" for cid, reason in sorted(report.rejected.items())
            ),
        )
    return report


class _WindowStatistics(NamedTuple):
    """What :class:`StreamingScreener` screens an arrival against.

    ``center`` (the coordinate-wise median delta), ``center_norm`` and
    ``scale`` (the median distance to the center) are ``None``/0 while the
    window holds fewer than ``min_updates`` deltas; ``median_norm`` is
    always set.
    """

    median_norm: float
    center: Optional[np.ndarray] = None
    center_norm: float = 0.0
    scale: float = 0.0

    @classmethod
    def of(cls, deltas: Sequence[np.ndarray], min_updates: int) -> _WindowStatistics:
        count = len(deltas)
        if count < min_updates:
            norms = [float(np.linalg.norm(delta)) for delta in deltas]
            return cls(float(np.median(norms)))
        matrix = np.stack(deltas)
        # ``np.median(matrix, axis=0)`` partitions every column on its own;
        # one sort of the contiguous transpose yields the same order
        # statistics several times faster.  The middle pair's mean is the
        # same sum and division ``np.median`` takes, so the center is
        # bitwise its center, up to the sign of a zero coordinate (ties of
        # +0.0 and -0.0 may sort either way), which no norm, score or
        # decision sees.
        columns = np.ascontiguousarray(matrix.T)
        columns.sort(axis=1)
        middle = count // 2
        if count % 2:
            center = columns[:, middle].copy()
        else:
            center = (columns[:, middle - 1] + columns[:, middle]) / 2
        residuals = np.linalg.norm(matrix - center[None, :], axis=1)
        return cls(
            median_norm=float(np.median(np.linalg.norm(matrix, axis=1))),
            center=center,
            center_norm=float(np.linalg.norm(center)),
            scale=max(float(np.median(residuals)), _EPS),
        )


class StreamingScreener:
    """Admission-time screening for the asynchronous round engine.

    :func:`screen_updates` compares each update against the *synchronous
    cohort* it arrived with — a population the async engine never has, since
    updates stream in one at a time.  This screener replaces the cohort with
    a sliding window of the last ``window`` *accepted* deltas and applies the
    same statistical rules against the window's coordinate-wise median:
    relative norm bound, distance-based outlier score, and direction cosine.
    Finiteness and the absolute norm bound need no population and always
    apply.

    Only accepted deltas enter the window, so a rejected Byzantine update
    cannot drag the reference median toward itself on later arrivals.  Cold
    start is hardened rather than open: finiteness and the absolute norm
    bound always apply, and once *any* delta has been accepted the relative
    norm rule (``norm_multiplier`` x the window's median norm) applies even
    below ``config.min_updates`` — so a round-0 norm-bomb arriving second is
    quarantined instead of landing in the global model.  Only the
    distance/cosine statistics wait for a full ``min_updates`` window (a
    near-empty window's median direction is too noisy to reject against).
    The very first arrival has no population at all; bounding it needs the
    absolute ``max_delta_norm`` rule.

    Deltas here are taken against the *client's own broadcast version* (the
    global state it trained from), not the flush-time global — an honestly
    stale update should look like an honest update, not like an outlier.

    The window is part of the stream's replayable state:
    :meth:`export_state` / :meth:`import_state` round-trip it through
    checkpoints so a resumed async run reproduces identical admission
    decisions.

    The window's statistics (median norm, coordinate-wise median center,
    its norm and the residual scale) change only when a delta joins the
    window or :meth:`import_state` replaces it, so they are computed once
    per window and cached: a rejected arrival, and every arrival until the
    next acceptance, is screened against the cached values.
    """

    def __init__(
        self, config: Optional[ScreeningConfig] = None, window: int = 16
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.config = config or ScreeningConfig()
        self.window = int(window)
        self._deltas: Deque[np.ndarray] = deque(maxlen=self.window)
        self._stats: Optional[_WindowStatistics] = None

    def __len__(self) -> int:
        return len(self._deltas)

    def _statistics(self) -> Optional[_WindowStatistics]:
        """The current window's statistics (``None`` while it is empty)."""
        if self._stats is None and self._deltas:
            self._stats = _WindowStatistics.of(self._deltas, self.config.min_updates)
        return self._stats

    def screen(self, client_id: int, delta: StateDict) -> Tuple[Optional[str], float]:
        """Screen one arriving delta; returns ``(reject_reason, score)``.

        ``reject_reason`` is ``None`` on acceptance (the delta then joins
        the window) or one of :data:`REJECT_REASONS`.  ``score`` is the
        anomaly score against the current window (``0.0`` during cold
        start, ``inf`` for non-finite deltas) — telemetry either way.
        """
        config = self.config
        flat = flatten_state(delta).astype(np.float64, copy=False)
        if not np.all(np.isfinite(flat)):
            return "non_finite", float("inf")
        norm = float(np.linalg.norm(flat))
        if config.max_delta_norm is not None and norm > config.max_delta_norm:
            return "norm_bound", 0.0
        score = 0.0
        reason: Optional[str] = None
        stats = self._statistics()
        # Below ``min_updates`` the window is too small for the
        # distance/cosine statistics (``center`` is ``None``), but the
        # relative norm bound only needs a median norm — it applies so a
        # cold-start norm-bomb cannot ride in unscreened.  Honest warmup
        # arrivals have window-comparable norms and pass untouched.
        if stats is not None:
            center = stats.center
            if center is not None:
                score = float(np.linalg.norm(flat - center) / stats.scale)
                denominator = norm * stats.center_norm
                cosine = float(flat @ center / denominator) if denominator > _EPS else 1.0
            if config.norm_multiplier > 0 and norm > config.norm_multiplier * max(
                stats.median_norm, _EPS
            ):
                reason = "norm_outlier"
            elif center is not None:
                if config.outlier_threshold > 0 and score > config.outlier_threshold:
                    reason = "distance_outlier"
                elif config.min_cosine is not None and cosine < config.min_cosine:
                    reason = "direction"
        if reason is not None:
            _log.warning(
                "streaming screener quarantined client %d: %s (score %.2f)",
                client_id,
                reason,
                score,
            )
            return reason, score
        self._deltas.append(np.array(flat, copy=True))
        self._stats = None
        return None, score

    def export_state(self) -> List[np.ndarray]:
        """The window contents, oldest first (checkpoint payload)."""
        return [np.array(delta, copy=True) for delta in self._deltas]

    def import_state(self, deltas: Sequence[np.ndarray]) -> None:
        """Restore a window exported by :meth:`export_state`."""
        self._deltas = deque(
            (np.asarray(delta, dtype=np.float64) for delta in deltas),
            maxlen=self.window,
        )
        self._stats = None

