"""Loss functions.

Cross-entropy is the loss used throughout the paper — both in the standard FL
training and in both CIP objectives (Eq. 3 and Eq. 4).  ``cross_entropy``
fuses log-softmax and NLL and exposes a per-sample variant because MI attacks
(Ob-Label, Ob-MALT, inverse-MI) all threshold *per-sample* losses.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.nn.backend import get_dtype_policy
from repro.nn.functional import log_softmax, one_hot
from repro.nn.tensor import Tensor


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    reduction: str = "mean",
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Softmax cross-entropy from raw logits.

    Parameters
    ----------
    logits:
        (N, C) unnormalized scores.
    labels:
        (N,) integer class labels.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"`` (per-sample losses).
    weights:
        Optional (N,) per-sample weights applied before reduction.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects (N, C) logits")
    if labels.shape[0] != logits.shape[0]:
        raise ValueError("labels and logits batch sizes differ")
    log_probs = log_softmax(logits, axis=-1)
    hot = one_hot(labels, logits.shape[1], dtype=log_probs.data.dtype)
    per_sample = -(log_probs * hot).sum(axis=1)
    if weights is not None:
        per_sample = per_sample * np.asarray(weights, dtype=per_sample.data.dtype)
    return _reduce(per_sample, reduction)


def stacked_cross_entropy(
    logits: Tensor, labels: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Per-client cross-entropy over client-stacked ``(K, N, C)`` logits.

    :func:`cross_entropy` op for op along the client axis, reducing over
    each client's samples: ``"mean"`` gives ``(K,)`` losses (with the
    float32 policy's float64 upcast), ``"none"`` the ``(K, N)`` per-sample
    losses.  Slice ``k`` is bitwise client ``k``'s :func:`cross_entropy`
    of ``(logits[k], labels[k])``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 3 or labels.shape != logits.shape[:2]:
        raise ValueError("stacked_cross_entropy expects (K, N, C) logits and (K, N) labels")
    log_probs = log_softmax(logits, axis=-1)
    # Zeros with 1.0 at each label position: the values of stacked
    # ``one_hot`` results, without the per-client calls.
    cohort, batch_len = labels.shape
    hot = np.zeros(logits.shape, dtype=log_probs.data.dtype)
    hot[np.arange(cohort)[:, None], np.arange(batch_len)[None, :], labels] = 1.0
    per_sample = -(log_probs * hot).sum(axis=2)
    return _reduce(per_sample, reduction, axis=1)


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood from log-probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    hot = one_hot(labels, log_probs.shape[1], dtype=log_probs.data.dtype)
    per_sample = -(log_probs * hot).sum(axis=1)
    return _reduce(per_sample, reduction)


def mse_loss(
    predictions: Tensor, targets: Union[Tensor, np.ndarray], reduction: str = "mean"
) -> Tensor:
    """Mean squared error (used by the toy linear-regression motivation)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    diff = predictions - targets
    per_element = diff * diff
    return _reduce(per_element, reduction)


def l1_norm(tensor: Tensor) -> Tensor:
    """L1 magnitude ``|t|_1`` — the perturbation regularizer of Eq. (3)."""
    return tensor.abs().sum()


def _reduce(values: Tensor, reduction: str, axis: Optional[int] = None) -> Tensor:
    if reduction == "none":
        return values
    policy = get_dtype_policy()
    if policy.upcast_loss and values.data.dtype != policy.loss_dtype:
        # Float32 compute path: accumulate the scalar loss in float64 so the
        # reduction over a batch does not lose low-order bits.  The cast op's
        # backward returns the gradient to float32 before it reaches the graph.
        values = values.astype(policy.loss_dtype)
    if reduction == "mean":
        return values.mean(axis=axis)
    if reduction == "sum":
        return values.sum(axis=axis)
    raise ValueError(f"unknown reduction {reduction!r}")


def per_sample_cross_entropy(logits_data: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Non-differentiable per-sample cross-entropy on raw arrays.

    Used inside attacks (which never need gradients of the loss wrt inputs)
    to avoid building autograd graphs on large attack datasets.
    """
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    return -log_probs[np.arange(labels.shape[0]), labels]
