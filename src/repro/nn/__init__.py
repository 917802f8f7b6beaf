"""A from-scratch NumPy deep-learning substrate.

The paper's implementation targets TensorFlow; no GPU deep-learning framework
is available in this environment, so :mod:`repro.nn` provides the pieces the
reproduction needs: a reverse-mode autograd :class:`Tensor`, layers, losses,
optimizers, and mini versions of the paper's backbone architectures.  See
``DESIGN.md`` section 2 for the substitution rationale.
"""

from repro.nn.backend import (
    DtypePolicy,
    available_dtype_policies,
    get_dtype_policy,
    set_compute_dtype,
    use_compute_dtype,
)
from repro.nn.tensor import Tensor, no_grad, concatenate, stack, where
from repro.nn import functional
from repro.nn import diagnostics
from repro.nn.diagnostics import debug_mode, gradcheck, profile_ops
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import (
    cross_entropy,
    l1_norm,
    mse_loss,
    nll_loss,
    per_sample_cross_entropy,
)
from repro.nn.optim import SGD, Adam, Optimizer, StepDecaySchedule
from repro.nn.serialization import (
    clone_state_dict,
    load_state_dict,
    save_state_dict,
    state_dicts_allclose,
)

__all__ = [
    "DtypePolicy",
    "available_dtype_policies",
    "get_dtype_policy",
    "set_compute_dtype",
    "use_compute_dtype",
    "Tensor",
    "no_grad",
    "concatenate",
    "stack",
    "where",
    "functional",
    "diagnostics",
    "debug_mode",
    "gradcheck",
    "profile_ops",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Identity",
    "Sequential",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "l1_norm",
    "per_sample_cross_entropy",
    "Optimizer",
    "SGD",
    "Adam",
    "StepDecaySchedule",
    "save_state_dict",
    "load_state_dict",
    "clone_state_dict",
    "state_dicts_allclose",
]
