"""Neural-network modules.

The :class:`Module` base class provides PyTorch-style parameter registration:
assigning a :class:`Parameter` or a sub-``Module`` as an attribute registers
it, so ``parameters()``, ``state_dict()`` and ``load_state_dict()`` work for
arbitrarily nested models.  Names in the state dict are dotted paths, stable
across processes, which the FL aggregation layer relies on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init as initializers
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_generator


class Parameter(Tensor):
    """A tensor that is registered as a learnable model parameter.

    Parameters are allocated in float64.
    """

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)


class LoadResult(NamedTuple):
    """Keys :meth:`Module.load_state_dict` could not match (strict=False)."""

    missing_keys: List[str]
    unexpected_keys: List[str]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute-based registration ---------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        # Re-assignment must also *de*register, or state_dict() keeps
        # exporting an attribute the module stopped using (and FedAvg
        # aggregates the dead weight).
        params = self.__dict__.get("_parameters")
        if params is not None:
            if isinstance(value, Parameter):
                self._modules.pop(name, None)
                self._buffers.pop(name, None)
                params[name] = value
            elif isinstance(value, Module):
                params.pop(name, None)
                self._buffers.pop(name, None)
                self._modules[name] = value
            else:
                params.pop(name, None)
                self._modules.pop(name, None)
                if name in self._buffers:
                    if isinstance(value, np.ndarray):
                        # Assigning an array to a registered buffer keeps
                        # it a buffer (mirrors register_buffer semantics).
                        self._set_buffer(name, value)
                        return
                    del self._buffers[name]
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # -- traversal ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield f"{prefix}{name}", self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of learnable scalars (used by the RQ5 overhead bench)."""
        return sum(p.size for p in self.parameters())

    # -- train / eval ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = buffer.copy()
        return state

    def load_state_dict(
        self, state: Dict[str, np.ndarray], strict: bool = True
    ) -> LoadResult:
        """Copy ``state`` into the module's parameters and buffers.

        With ``strict=True`` (the default) every parameter *and buffer* of
        the module must be present in ``state`` and every key of ``state``
        must belong to the module, otherwise ``KeyError`` is raised — a
        checkpoint restore can neither keep stale BatchNorm running stats
        nor silently "load" a typo'd key.  All keys and shapes are
        validated before anything is mutated, so a failed load leaves the
        module untouched.  Returns the missing/unexpected keys for
        ``strict=False`` callers (partial restores).
        """
        own_params = dict(self.named_parameters())
        own_buffers = {name: owner for name, owner in self._named_buffer_owners()}
        missing = [
            name
            for name in list(own_params) + list(own_buffers)
            if name not in state
        ]
        unexpected = [
            name for name in state if name not in own_params and name not in own_buffers
        ]
        for name, param in own_params.items():
            if name in state and np.asarray(state[name]).shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{np.asarray(state[name]).shape} vs {param.shape}"
                )
        for name, (module, local) in own_buffers.items():
            if name in state:
                shape = np.asarray(state[name]).shape
                if shape != module._buffers[local].shape:
                    raise ValueError(
                        f"shape mismatch for buffer {name}: "
                        f"{shape} vs {module._buffers[local].shape}"
                    )
        if strict and (missing or unexpected):
            problems = []
            if missing:
                problems.append(f"missing keys: {missing}")
            if unexpected:
                problems.append(f"unexpected keys: {unexpected}")
            raise KeyError(f"load_state_dict (strict): {'; '.join(problems)}")
        for name, param in own_params.items():
            if name in state:
                param.data = np.asarray(state[name], dtype=param.data.dtype).copy()
        for name, (module, local) in own_buffers.items():
            if name in state:
                module._set_buffer(local, np.asarray(state[name]))
        return LoadResult(missing_keys=missing, unexpected_keys=unexpected)

    def _named_buffer_owners(
        self, prefix: str = ""
    ) -> Iterator[Tuple[str, Tuple["Module", str]]]:
        for name in self._buffers:
            yield f"{prefix}{name}", (self, name)
        for name, module in self._modules.items():
            yield from module._named_buffer_owners(prefix=f"{prefix}{name}.")

    # -- forward ------------------------------------------------------------
    def forward(self, *args: Tensor, **kwargs: object) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args: Tensor, **kwargs: object) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully-connected layer: ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = as_generator(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.kaiming_uniform((in_features, out_features), rng)
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(initializers.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution layer (square kernels, NCHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = as_generator(seed)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            initializers.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            )
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(initializers.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of NCHW inputs."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(initializers.ones((num_features,)))
        self.bias = Parameter(initializers.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects NCHW input")
        axes = (0, 2, 3)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = ((x - mean) * (x - mean)).mean(axis=axes, keepdims=True)
            self._set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1),
            )
            self._set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1),
            )
            normalized = (x - mean) / (var + self.eps).sqrt()
        else:
            mean_arr = self.running_mean.reshape(1, -1, 1, 1)
            var_arr = self.running_var.reshape(1, -1, 1, 1)
            normalized = (x - mean_arr) * (1.0 / np.sqrt(var_arr + self.eps))
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        return normalized * scale + shift


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Global average pooling (the GAP block of the paper's Figure 3)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._sequence: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._sequence.append(module)

    def append(self, module: Module) -> None:
        index = len(self._sequence)
        setattr(self, f"layer{index}", module)
        self._sequence.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._sequence)

    def __len__(self) -> int:
        return len(self._sequence)

    def __getitem__(self, index: int) -> Module:
        return self._sequence[index]

    def forward(self, x: Tensor) -> Tensor:
        for module in self._sequence:
            x = module(x)
        return x
