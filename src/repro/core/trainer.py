"""CIP training: the Step-II objective (Eq. 4) and the alternating loop.

Step II learns the model parameters to minimize

.. math::

    \\mathcal{L}_m = \\frac{1}{n}\\sum_{z_t \\in D_t} l(\\theta, z_t)
                     - \\frac{\\lambda_m}{n} \\sum_{z \\in D} l(\\theta, z)

— i.e. fit the blended data while *pushing up* the loss on original
(unperturbed) data, so original members' outputs resemble non-members'.
"Original data" is presented to the dual-channel model as the zero-
perturbation blend (the pair an adversary without ``t`` would form).

:class:`CIPTrainer` runs the paper's alternating optimization: for every
mini-batch, Step I updates ``t`` (model frozen), then Step II updates the
model (``t`` frozen).  The two-step scheme is credited with halving the
epochs to converge (RQ5).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.blending import blend, blend_stacked
from repro.core.config import CIPConfig
from repro.core.perturbation import Perturbation
from repro.data.dataset import DataLoader, Dataset
from repro.fl.training import EvalResult
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy, stacked_cross_entropy
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import SeedLike, derive_rng

AugmentFn = Callable[[np.ndarray], np.ndarray]


def cip_model_loss(
    model: Module,
    perturbation: Perturbation,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> Tensor:
    """The Step-II objective (Eq. 4) on one mini-batch."""
    config = perturbation.config
    # Term 1: fit the blended data.  t participates as a constant here
    # (Step II only moves theta), so blend with a detached copy.
    blended = blend(inputs, perturbation.t.detach(), config.alpha, config.clip_range)
    loss_blended = cross_entropy(model(blended), labels)
    if config.lambda_m == 0.0:
        return loss_blended
    # Term 2: push up the loss on original (zero-perturbation) data.
    original = blend(inputs, None, config.alpha, config.clip_range)
    per_sample = cross_entropy(model(original), labels, reduction="none")
    if config.original_loss_cap is not None:
        # Saturate the ascent *per sample* once a sample's original-data
        # loss reaches a non-member-typical level ("avoid abnormally high
        # loss", Section III-B2): each member is pushed up to the plateau
        # where its output "assembles other non-members", and no further.
        per_sample = per_sample.clip(float("-inf"), config.original_loss_cap)
    return loss_blended - config.lambda_m * per_sample.mean()


def stacked_cip_model_loss(
    forward: Callable[[Tuple[Tensor, Tensor]], Tensor],
    t: Tensor,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: CIPConfig,
) -> Tensor:
    """:func:`cip_model_loss` for K clients at once: ``(K,)`` objectives.

    ``t`` stacks the clients' perturbations as ``(K, 1, ...)``,
    ``inputs``/``labels`` their ``(K, N, ...)`` batches, and ``forward``
    is the stacked model.  The ops are :func:`cip_model_loss`'s, so slice
    ``k`` of the objectives, and of the gradients their sum backpropagates
    into the stacked parameters, is bitwise client ``k``'s.
    """
    blended = blend_stacked(inputs, t.detach(), config.alpha, config.clip_range)
    loss_blended = stacked_cross_entropy(forward(blended), labels)
    if config.lambda_m == 0.0:
        return loss_blended
    original = blend_stacked(inputs, None, config.alpha, config.clip_range)
    per_sample = stacked_cross_entropy(forward(original), labels, reduction="none")
    if config.original_loss_cap is not None:
        per_sample = per_sample.clip(float("-inf"), config.original_loss_cap)
    return loss_blended - config.lambda_m * per_sample.mean(axis=1)


class CIPTrainer:
    """Alternating Step-I / Step-II training of a dual-channel model."""

    def __init__(
        self,
        model: Module,
        perturbation: Perturbation,
        optimizer: Optimizer,
        config: Optional[CIPConfig] = None,
        augment: Optional[AugmentFn] = None,
    ) -> None:
        self.model = model
        self.perturbation = perturbation
        self.optimizer = optimizer
        self.config = config or perturbation.config
        self.augment = augment

    def train_epoch(
        self, dataset: Dataset, batch_size: int = 32, seed: SeedLike = None
    ) -> float:
        """One epoch of alternating optimization; returns mean Step-II loss."""
        self.model.train()
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
        total = 0.0
        count = 0
        for inputs, labels in loader:
            if self.augment is not None:
                inputs = self.augment(inputs)
            # Step I: shape t against the current model.
            self.perturbation.optimize(self.model, inputs, labels)
            # Step II: fit the model against the current t.
            self.optimizer.zero_grad()
            loss = cip_model_loss(self.model, self.perturbation, inputs, labels)
            loss.backward()
            self.optimizer.step()
            total += loss.item() * len(labels)
            count += len(labels)
        return total / max(count, 1)

    def train(
        self,
        dataset: Dataset,
        epochs: int,
        batch_size: int = 32,
        seed: SeedLike = None,
    ) -> List[float]:
        """Train ``epochs`` epochs; returns each epoch's mean Step-II loss."""
        return [
            self.train_epoch(dataset, batch_size=batch_size, seed=derive_rng(seed, epoch))
            for epoch in range(epochs)
        ]

    # -- client-side inference --------------------------------------------
    def evaluate(self, dataset: Dataset, batch_size: int = 64) -> EvalResult:
        """Accuracy with inputs blended with the client's own ``t``.

        This is the accuracy CIP reports: at inference time each client adds
        its perturbation to every query (Section III-A).
        """
        return evaluate_with_perturbation(
            self.model, self.perturbation.value, dataset, self.config, batch_size
        )


def evaluate_with_perturbation(
    model: Module,
    t_value: Optional[np.ndarray],
    dataset: Dataset,
    config: CIPConfig,
    batch_size: int = 64,
) -> EvalResult:
    """Evaluate a dual-channel model with inputs blended using ``t_value``.

    ``t_value=None`` evaluates with the zero-perturbation blend — what an
    outsider (or an adaptive attacker without ``t``) measures.
    """
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    total_loss = 0.0
    correct = 0
    count = 0
    with no_grad():
        for inputs, labels in loader:
            blended = blend(inputs, t_value, config.alpha, config.clip_range)
            logits = model(blended)
            loss = cross_entropy(logits, labels)
            total_loss += loss.item() * len(labels)
            correct += int((logits.argmax(axis=1) == labels).sum())
            count += len(labels)
    if count == 0:
        return EvalResult(loss=0.0, accuracy=0.0, num_samples=0)
    return EvalResult(loss=total_loss / count, accuracy=correct / count, num_samples=count)


def predict_logits_with_perturbation(
    model: Module,
    t_value: Optional[np.ndarray],
    inputs: np.ndarray,
    config: CIPConfig,
    batch_size: int = 128,
) -> np.ndarray:
    """Batched logits of a dual-channel model under a chosen perturbation."""
    model.eval()
    outputs: List[np.ndarray] = []
    with no_grad():
        for start in range(0, len(inputs), batch_size):
            chunk = inputs[start : start + batch_size]
            blended = blend(chunk, t_value, config.alpha, config.clip_range)
            outputs.append(model(blended).data)
    if not outputs:
        return np.zeros((0,))
    return np.concatenate(outputs, axis=0)
