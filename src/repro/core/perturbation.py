"""The personalized perturbation ``t`` and its Step-I optimizer (Eq. 3).

Each client owns one :class:`Perturbation` of its sample shape, initialized
from a random seed ("some random input", Section III-B1) and optimized by
SGD to minimize

.. math::

    \\mathcal{L}_t = \\frac{1}{n}\\sum_{z_t \\in D_t} l(\\theta, z_t)
                     + \\lambda_t |t|_1

with the model parameters held fixed.  ``t`` is a secret: it never leaves
the client, is never aggregated, and the serialization helpers exist only so
a client can persist its own state.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.blending import blend, blend_stacked
from repro.core.config import CIPConfig
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy, l1_norm, stacked_cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_generator


class Perturbation:
    """A client's secret additive perturbation ``t``."""

    def __init__(
        self,
        shape: Tuple[int, ...],
        config: CIPConfig,
        seed: SeedLike = None,
        initial: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config
        if initial is not None:
            initial = np.asarray(initial, dtype=np.float64)
            if initial.shape != tuple(shape):
                raise ValueError("initial perturbation has the wrong shape")
            data = initial.copy()
        else:
            rng = as_generator(seed)
            low, high = config.clip_range if config.clip_range else (0.0, 1.0)
            data = rng.uniform(low, high, size=shape) * config.seed_scale
        self.t = Tensor(data, requires_grad=True)
        self._optimizer = SGD([self.t], lr=config.perturbation_lr)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.t.shape

    @property
    def value(self) -> np.ndarray:
        """Current perturbation values (a copy; the live tensor stays private)."""
        return self.t.data.copy()

    def blend_batch(self, inputs: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Blend a batch with the live (differentiable) perturbation."""
        return blend(inputs, self.t, self.config.alpha, self.config.clip_range)

    def step(self, model: Module, inputs: np.ndarray, labels: np.ndarray) -> float:
        """One Step-I update of ``t`` on a mini-batch; returns the objective.

        The model is put in eval mode and its parameter gradients are wiped
        afterwards: Step I must only move ``t``.
        """
        model.eval()  # freeze BatchNorm statistics while shaping t
        self._optimizer.zero_grad()
        blended = self.blend_batch(inputs)
        logits = model(blended)
        objective = cross_entropy(logits, labels) + self.config.lambda_t * l1_norm(self.t)
        objective.backward()
        self._optimizer.step()
        model.zero_grad()  # discard parameter grads produced by this pass
        model.train()
        return objective.item()

    def optimize(
        self,
        model: Module,
        inputs: np.ndarray,
        labels: np.ndarray,
        steps: Optional[int] = None,
    ) -> float:
        """Run ``steps`` Step-I updates (default: config.perturbation_steps)."""
        steps = self.config.perturbation_steps if steps is None else steps
        objective = float("nan")
        for _ in range(steps):
            objective = self.step(model, inputs, labels)
        return objective

    def set_lr(self, lr: float) -> None:
        self._optimizer.set_lr(lr)


def stacked_perturbation_step(
    forward: Callable[[Tuple[Tensor, Tensor]], Tensor],
    t: Tensor,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: CIPConfig,
    lr: float,
) -> np.ndarray:
    """:meth:`Perturbation.step` for K clients at once; returns the objectives.

    ``t`` stacks the clients' perturbations as a ``(K, 1, ...)`` leaf,
    ``inputs``/``labels`` their ``(K, N, ...)`` batches, and ``forward``
    maps a stacked blended pair to ``(K, N, C)`` logits with the model
    parameters held constant: the per-client step computes their
    gradients only to discard them.  ``t`` is updated in place by plain
    SGD, and slice ``k`` of it and of the ``(K,)`` objectives is bitwise
    what client ``k``'s step produces.  The graph is dropped on return.
    """
    t.zero_grad()
    blended = blend_stacked(inputs, t, config.alpha, config.clip_range)
    logits = forward(blended)
    l1 = t.abs().sum(axis=tuple(range(1, t.ndim)))
    objective = stacked_cross_entropy(logits, labels) + config.lambda_t * l1
    objective.sum().backward()
    t.data -= lr * t.grad
    return objective.data


def optimize_perturbation_for_model(
    model: Module,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: CIPConfig,
    steps: int,
    seed: SeedLike = None,
    initial: Optional[np.ndarray] = None,
) -> Perturbation:
    """Fit a fresh perturbation to a *fixed* model.

    This is the primitive the adaptive attacks reuse: Optimization-1 probes
    the target model and optimizes its own ``t'`` exactly this way, and
    Knowledge-1/2 fit shadow perturbations from partial knowledge.
    """
    perturbation = Perturbation(
        tuple(inputs.shape[1:]), config, seed=seed, initial=initial
    )
    batch = min(len(inputs), 64)
    rng = as_generator(seed)
    for _ in range(steps):
        pick = rng.choice(len(inputs), size=batch, replace=False)
        perturbation.step(model, inputs[pick], labels[pick])
    return perturbation
