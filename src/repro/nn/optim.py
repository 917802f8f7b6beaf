"""Gradient-descent optimizers.

``SGD`` (with optional momentum and weight decay) is the paper's optimizer
for both local models and the perturbation ``t``; ``Adam`` backs the DP-Adam
baseline defense.  Optimizers operate on explicit parameter lists so the same
machinery drives model weights and the CIP perturbation tensor alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer over a list of tensors that require grad."""

    def __init__(self, params: Sequence[Tensor], lr: float) -> None:
        params = list(params)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        for param in params:
            if not param.requires_grad:
                raise ValueError("all optimized tensors must require grad")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params: List[Tensor] = params
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    # -- state (de)serialization ---------------------------------------
    # Per-parameter slots (momentum, Adam moments) are keyed by the
    # parameter's *position* in ``params``, never by ``id(param)``: ids are
    # process-local, positions survive pickling.  So an optimizer pickled
    # with its client (the process engine ships whole clients to its
    # workers) keeps its slots, and a state dict restores bit for bit onto
    # an equivalent parameter list.
    def state_dict(self) -> Dict[str, object]:
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.set_lr(float(state["lr"]))

    @staticmethod
    def _copy_slots(slots: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Independent copies of ``slots``, in parameter order."""
        return {index: slots[index].copy() for index in sorted(slots)}

    def _load_slots(self, indexed: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Validated copies of position-keyed slots from a state dict."""
        out: Dict[int, np.ndarray] = {}
        for index, value in indexed.items():
            index = int(index)
            if not 0 <= index < len(self.params):
                raise ValueError(f"optimizer state refers to unknown parameter {index}")
            out[index] = np.array(value, copy=True)
        return out


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity - self.lr * grad
                self._velocity[index] = velocity
                param.data = param.data + velocity
            else:
                param.data = param.data - self.lr * grad

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["velocity"] = self._copy_slots(self._velocity)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._velocity = self._load_slots(state.get("velocity", {}))


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(index)
            v = self._v.get(index)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad**2
            self._m[index] = m
            self._v[index] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["m"] = self._copy_slots(self._m)
        state["v"] = self._copy_slots(self._v)
        state["step_count"] = self._step_count
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._m = self._load_slots(state.get("m", {}))
        self._v = self._load_slots(state.get("v", {}))
        self._step_count = int(state.get("step_count", 0))
