"""Differentiable neural-network operations built on :class:`~repro.nn.tensor.Tensor`.

Convolution and pooling are implemented with im2col/col2im so the heavy
lifting happens inside a single BLAS matmul per layer — the only way a NumPy
conv net stays usable on CPU.  All layouts are NCHW.

The array machinery (im2col/col2im, window extraction, the conv GEMMs)
lives in :mod:`repro.nn.backend`; this module owns only the autograd wiring
around it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import backend as K
from repro.nn.tensor import Tensor, _unbroadcast, is_grad_enabled

#: Op entry points instrumented by :mod:`repro.nn.diagnostics` when op
#: profiling is enabled.  Composite ops (conv2d runs pad/matmul/reshape
#: internally) report *exclusive* time, so their internals are not listed.
PROFILED_OPS = (
    "conv2d",
    "conv2d_grouped",
    "fused_linear_relu",
    "max_pool2d",
    "avg_pool2d",
    "log_softmax",
    "softmax",
    "dropout",
)


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution. ``x``: (N,C,H,W); ``weight``: (O,C,K,K); ``bias``: (O,)."""
    out_channels, in_channels, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )
    w_mat = weight.data.reshape(out_channels, -1)  # (O, C*K*K)
    out_data, cols = K.conv2d_forward(
        x.data, w_mat, None if bias is None else bias.data, kernel, stride, padding
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_x, grad_w, grad_b = K.conv2d_backward(
            grad,
            cols,
            w_mat,
            x.shape,
            kernel,
            stride,
            padding,
            need_x=x.requires_grad,
            need_weight=weight.requires_grad,
            need_bias=bias is not None and bias.requires_grad,
        )
        if grad_w is not None:
            weight._accumulate(grad_w.reshape(weight.shape))
        if grad_b is not None:
            bias._accumulate(grad_b)
        if grad_x is not None:
            x._accumulate(grad_x)

    return x._make(out_data, parents, backward, "conv2d")


def fused_linear_relu(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused ``relu(x @ weight + bias)`` in one kernel.

    Accepts the standard ``(N, F) @ (F, O)`` layout and the client-stacked
    ``(K, N, F) @ (K, F, O)`` layout used by the batched executor (``bias``
    then shaped ``(K, 1, O)``).  The float sequence — matmul, broadcast
    add, ``pre * (pre > 0)`` — and the backward's un-broadcast reductions
    match the unfused ``x @ w + b`` / ``relu`` graph bitwise.
    """
    out_data = K.linear_relu_forward(
        x.data, weight.data, None if bias is None else bias.data
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_x, grad_w, grad_pre = K.linear_relu_backward(
            grad,
            out_data,
            x.data,
            weight.data,
            need_x=x.requires_grad,
            need_weight=weight.requires_grad,
        )
        if grad_w is not None:
            weight._accumulate(_unbroadcast(grad_w, weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad_pre, bias.shape))
        if grad_x is not None:
            x._accumulate(_unbroadcast(grad_x, x.shape))

    return x._make(out_data, parents, backward, "fused_linear_relu")


def conv2d_grouped(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    relu: bool = False,
) -> Tensor:
    """Per-group convolution over a client-major folded batch.

    ``x``: ``(G*N, C, H, W)`` — group ``g``'s samples occupy rows
    ``g*N:(g+1)*N``; ``weight``: ``(G, O, C, K, K)``; ``bias``: ``(G, O)``.
    Each group is convolved with its own kernels via one grouped im2col and
    one batched GEMM, producing output bitwise identical to G independent
    :func:`conv2d` calls.  ``relu=True`` fuses the activation.
    """
    groups, out_channels, in_channels, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if x.shape[0] % groups != 0:
        raise ValueError(
            f"folded batch of {x.shape[0]} does not divide into {groups} groups"
        )
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )
    w_mat3 = weight.data.reshape(groups, out_channels, -1)  # (G, O, C*K*K)
    out_data, cols3 = K.grouped_conv2d_forward(
        x.data,
        w_mat3,
        None if bias is None else bias.data,
        kernel,
        stride,
        padding,
        relu=relu,
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_x, grad_w, grad_b = K.grouped_conv2d_backward(
            grad,
            out_data if relu else None,
            cols3,
            w_mat3,
            x.shape,
            kernel,
            stride,
            padding,
            need_x=x.requires_grad,
            need_weight=weight.requires_grad,
            need_bias=bias is not None and bias.requires_grad,
            relu=relu,
        )
        if grad_w is not None:
            weight._accumulate(grad_w.reshape(weight.shape))
        if grad_b is not None:
            bias._accumulate(grad_b)
        if grad_x is not None:
            x._accumulate(grad_x)

    return x._make(out_data, parents, backward, "conv2d_grouped")


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows (no padding)."""
    stride = stride or kernel
    batch, channels, height, width = x.shape
    out_h = K.conv_output_size(height, kernel, stride, 0)
    out_w = K.conv_output_size(width, kernel, stride, 0)
    view = K.window_view(x.data, kernel, stride, out_h, out_w)
    windows = view.reshape(batch, channels, out_h, out_w, kernel * kernel)
    arg = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        # Allocate in the input's dtype so a float32 compute path is not
        # silently upcast to float64 by its pooling gradients.
        grad_windows = np.zeros(
            (batch, channels, out_h, out_w, kernel * kernel), dtype=x.data.dtype
        )
        np.put_along_axis(grad_windows, arg[..., None], grad[..., None], axis=-1)
        grad_windows = grad_windows.reshape(batch, channels, out_h, out_w, kernel, kernel)
        full = np.zeros(x.shape, dtype=x.data.dtype)
        for kh in range(kernel):
            for kw in range(kernel):
                full[:, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride] += grad_windows[
                    :, :, :, :, kh, kw
                ]
        x._accumulate(full)

    return x._make(out_data, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows (no padding)."""
    stride = stride or kernel
    batch, channels, height, width = x.shape
    out_h = K.conv_output_size(height, kernel, stride, 0)
    out_w = K.conv_output_size(width, kernel, stride, 0)
    view = K.window_view(x.data, kernel, stride, out_h, out_w)
    out_data = view.mean(axis=(4, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros(x.shape, dtype=x.data.dtype)
        scaled = grad * scale
        for kh in range(kernel):
            for kw in range(kernel):
                full[:, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride] += scaled
        x._accumulate(full)

    return x._make(out_data, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling: (N,C,H,W) -> (N,C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Softmax / log-softmax / one-hot
# ----------------------------------------------------------------------
def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax with a fused backward pass."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax_data = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    return logits._make(out_data, (logits,), backward, "log_softmax")


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax with a fused backward pass."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        logits._accumulate(out_data * (grad - inner))

    return logits._make(out_data, (logits,), backward, "softmax")


def one_hot(
    labels: np.ndarray, num_classes: int, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Plain (non-differentiable) one-hot encoding of an int label vector.

    ``dtype`` defaults to float64 for backwards compatibility; callers on a
    float32 compute path should pass the dtype of the tensor the encoding
    will be combined with, so the target does not upcast the whole loss.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros(
        (labels.shape[0], num_classes),
        dtype=np.float64 if dtype is None else dtype,
    )
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales at train time so inference is identity."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = 1.0 - rate
    # Mask in the input's dtype: a float64 mask would upcast float32 data.
    mask = ((rng.random(x.shape) < keep) / keep).astype(x.data.dtype, copy=False)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return x._make(x.data * mask, (x,), backward, "dropout")


# Wrap the profiled entry points once, at module-definition time, so every
# importer — including `from repro.nn.functional import log_softmax`-style
# by-value imports (losses, defenses) — gets the instrumented callable.
# The wrapper is a no-op passthrough while op profiling is disabled.
from repro.nn import diagnostics as _diagnostics  # noqa: E402  (needs the ops above)

for _name in PROFILED_OPS:
    globals()[_name] = _diagnostics.timed_op(_name, globals()[_name])
del _name
