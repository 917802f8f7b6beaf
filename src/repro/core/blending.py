"""The CIP blending function (paper Eq. 2).

.. math::

    \\mathscr{B}(x, t) = ((1-\\alpha)x + \\alpha t,\\; (1+\\alpha)x - \\alpha t)

The blended pair is clipped to the original data range.  The first channel
carries the perturbation-shifted distribution; the second over-weights the
original sample, which is what lets the dual-channel model keep utility
(Section III-A).

Two implementations are provided: a differentiable one on
:class:`~repro.nn.tensor.Tensor` (Step I optimizes through the blend w.r.t.
``t``), and a plain-array one for attack-side code that never needs
gradients.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor

ClipRange = Optional[Tuple[float, float]]


def _broadcast_t(t_shape: Tuple[int, ...], x_shape: Tuple[int, ...]) -> None:
    if t_shape != x_shape[1:]:
        raise ValueError(
            f"perturbation shape {t_shape} must match sample shape {x_shape[1:]}"
        )


def blend(
    x: Union[Tensor, np.ndarray],
    t: Optional[Union[Tensor, np.ndarray]],
    alpha: float,
    clip_range: ClipRange = (0.0, 1.0),
) -> Tuple[Tensor, Tensor]:
    """Differentiable blending: returns the channel pair of Eq. (2).

    ``x`` is a batch (N, ...); ``t`` is a single perturbation of the sample
    shape, broadcast over the batch.  ``t=None`` blends with a zero
    perturbation — the channel pair an adversary without knowledge of ``t``
    would form, and the encoding of "original data" for the dual-channel
    model in the Step-II loss.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if t is not None:
        t = t if isinstance(t, Tensor) else Tensor(t)
        _broadcast_t(t.shape, x.shape)
    return _blend_tensors(x, t, alpha, clip_range)


def blend_stacked(
    x: Union[Tensor, np.ndarray],
    t: Optional[Tensor],
    alpha: float,
    clip_range: ClipRange = (0.0, 1.0),
) -> Tuple[Tensor, Tensor]:
    """:func:`blend` for K clients at once.

    ``x`` stacks the clients' batches as ``(K, N, ...)`` and ``t`` their
    perturbations as ``(K, 1, ...)``.  The ops are :func:`blend`'s, so
    slice ``k`` of each channel, and of ``t``'s gradient, is bitwise
    client ``k``'s.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if t is not None and (t.shape[:2] != (x.shape[0], 1) or t.shape[2:] != x.shape[2:]):
        raise ValueError(
            f"stacked perturbation shape {t.shape} must be (K, 1, ...) for batch "
            f"shape {x.shape}"
        )
    return _blend_tensors(x, t, alpha, clip_range)


def _blend_tensors(
    x: Tensor, t: Optional[Tensor], alpha: float, clip_range: ClipRange
) -> Tuple[Tensor, Tensor]:
    if t is None:
        channel_a = x * (1.0 - alpha)
        channel_b = x * (1.0 + alpha)
    else:
        channel_a = x * (1.0 - alpha) + t * alpha
        channel_b = x * (1.0 + alpha) - t * alpha
    if clip_range is not None:
        low, high = clip_range
        channel_a = channel_a.clip(low, high)
        channel_b = channel_b.clip(low, high)
    return channel_a, channel_b


def blend_arrays(
    x: np.ndarray,
    t: Optional[np.ndarray],
    alpha: float,
    clip_range: ClipRange = (0.0, 1.0),
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-differentiable blending on raw arrays (attack-side helper).

    The input's floating dtype is preserved (integer inputs are promoted to
    ``float64``): attack pipelines call this per batch on the hot path, and
    forcing a ``float64`` copy would silently double the memory traffic of a
    ``float32`` pipeline.  ``t`` is cast to match ``x``.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    if t is None:
        channel_a = (1.0 - alpha) * x
        channel_b = (1.0 + alpha) * x
    else:
        t = np.asarray(t, dtype=x.dtype)
        _broadcast_t(t.shape, x.shape)
        channel_a = (1.0 - alpha) * x + alpha * t
        channel_b = (1.0 + alpha) * x - alpha * t
    if clip_range is not None:
        low, high = clip_range
        channel_a = np.clip(channel_a, low, high)
        channel_b = np.clip(channel_b, low, high)
    return channel_a, channel_b


def invert_blend(
    channel_a: np.ndarray,
    channel_b: np.ndarray,
    alpha: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover (x, t) from an *unclipped* blended pair.

    The linear system of Eq. (2) is invertible:
    ``x = (a + b) / 2`` and ``t = ((1+alpha) a - (1-alpha) b) / (2 alpha)``.
    Used by tests to verify the blend is information-preserving before
    clipping (the property behind CIP's utility argument), and by the toy
    motivation example.
    """
    if alpha == 0:
        raise ValueError("blend is not invertible for alpha == 0")
    x = (channel_a + channel_b) / 2.0
    t = ((1.0 + alpha) * channel_a - (1.0 - alpha) * channel_b) / (2.0 * alpha)
    return x, t
