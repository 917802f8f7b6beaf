"""CIP — the paper's contribution: client-level input perturbation.

Public surface:

* :class:`CIPConfig` — hyperparameters (alpha, lambda_t, lambda_m, ...).
* :func:`blend` / :func:`blend_arrays` — the blending function of Eq. (2).
* :class:`Perturbation` — a client's secret ``t`` plus its Step-I optimizer.
* :class:`CIPTrainer` — alternating Step-I/Step-II training (Eqs. 3-4).
* :class:`CIPClient` — the defense wired into the FedAvg protocol.
* :mod:`repro.core.theory` — Theorem-1 quantities, checkable numerically.
"""

from repro.core.blending import blend, blend_arrays, invert_blend
from repro.core.config import (
    ByzantineConfig,
    CheckpointConfig,
    CIPConfig,
    ExecutionConfig,
    FaultConfig,
    ScreeningConfig,
)
from repro.core.perturbation import Perturbation, optimize_perturbation_for_model
from repro.core.trainer import (
    CIPTrainer,
    cip_model_loss,
    evaluate_with_perturbation,
    predict_logits_with_perturbation,
)
from repro.core.cip_client import CIPClient
from repro.core.theory import (
    Theorem1Check,
    adversarial_advantage,
    check_theorem1,
    membership_posterior,
    theorem1_epsilon,
)

__all__ = [
    "CIPConfig",
    "ExecutionConfig",
    "FaultConfig",
    "CheckpointConfig",
    "ByzantineConfig",
    "ScreeningConfig",
    "blend",
    "blend_arrays",
    "invert_blend",
    "Perturbation",
    "optimize_perturbation_for_model",
    "CIPTrainer",
    "cip_model_loss",
    "evaluate_with_perturbation",
    "predict_logits_with_perturbation",
    "CIPClient",
    "adversarial_advantage",
    "membership_posterior",
    "theorem1_epsilon",
    "check_theorem1",
    "Theorem1Check",
]
