"""NumPy kernels for :mod:`repro.nn`.

The array work behind the autograd ops that is more than one NumPy call
lives here as plain functions: im2col / col2im unfolding, the sliding-window
view pooling reads, and the forward/backward kernels of conv2d, the grouped
(client-batched) conv2d and the fused linear+relu.  Everything else the op
modules compute is a direct NumPy call at the op.  ``np.matmul``,
``np.einsum`` and ``as_strided`` appear only in this module (the dispatch
lint in ``tests/nn/test_backend.py`` keeps it that way).

This module deliberately imports nothing from the rest of ``repro`` so the
op modules can depend on it without cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution/pooling along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def window_view(
    images: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``(N, C, OH, OW, KH, KW)`` sliding-window view of NCHW images.

    No padding; works on non-contiguous inputs because it uses the array's
    own strides.
    """
    strides = images.strides
    return np.lib.stride_tricks.as_strided(
        images,
        shape=(images.shape[0], images.shape[1], out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


def _scatter_cols(
    padded: np.ndarray,
    cols: np.ndarray,
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> None:
    """Accumulate a column matrix into a (padded) NCHW image in place."""
    batch, channels = padded.shape[0], padded.shape[1]
    cols6 = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    for kh in range(kernel):
        h_end = kh + stride * out_h
        for kw in range(kernel):
            w_end = kw + stride * out_w
            padded[:, :, kh:h_end:stride, kw:w_end:stride] += cols6[:, :, :, :, kh, kw]


# ----------------------------------------------------------------------
# Conv machinery
# ----------------------------------------------------------------------
def im2col(
    images: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NCHW images into ``(N*OH*OW, C*KH*KW)``; returns (cols, (OH, OW))."""
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if padding > 0:
        images = np.pad(
            images, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    view = window_view(images, kernel, stride, out_h, out_w)
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a column matrix back into NCHW images (adjoint of im2col)."""
    batch, channels, height, width = image_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=cols.dtype,
    )
    _scatter_cols(padded, cols, kernel, stride, out_h, out_w)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_forward(
    x: np.ndarray,
    w_mat: np.ndarray,
    bias: Optional[np.ndarray],
    kernel: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """NCHW conv via im2col + one GEMM; returns ``(out, cols)``.

    ``cols`` is the backward cache :func:`conv2d_backward` consumes.
    """
    batch = x.shape[0]
    out_channels = w_mat.shape[0]
    cols, (out_h, out_w) = im2col(x, kernel, stride, padding)
    out_mat = cols @ w_mat.T
    if bias is not None:
        out_mat = out_mat + bias
    out = out_mat.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    return out, cols


def conv2d_backward(
    grad: np.ndarray,
    cols: np.ndarray,
    w_mat: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    need_x: bool,
    need_weight: bool,
    need_bias: bool,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Gradients of :func:`conv2d_forward`: ``(grad_x, grad_w_mat, grad_bias)``."""
    out_channels = grad.shape[1]
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_w = grad_mat.T @ cols if need_weight else None
    grad_b = grad_mat.sum(axis=0) if need_bias else None
    grad_x = None
    if need_x:
        grad_cols = grad_mat @ w_mat
        grad_x = col2im(grad_cols, x_shape, kernel, stride, padding)
    return grad_x, grad_w, grad_b


# ----------------------------------------------------------------------
# Grouped (client-batched) conv machinery
# ----------------------------------------------------------------------
def grouped_im2col(
    images: np.ndarray, groups: int, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold a ``(G*N, C, H, W)`` batch into ``(G, N*OH*OW, C*KH*KW)``.

    The folded batch is client-major, so slice ``g`` of the result is
    exactly the 2-D column matrix :func:`im2col` would produce for client
    ``g``'s own ``(N, C, H, W)`` batch.
    """
    batch, channels, _, _ = images.shape
    cols, (out_h, out_w) = im2col(images, kernel, stride, padding)
    per = batch // groups
    return (
        cols.reshape(groups, per * out_h * out_w, channels * kernel * kernel),
        (out_h, out_w),
    )


def grouped_col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`grouped_im2col`; returns ``(G*N, C, H, W)`` images."""
    return col2im(cols.reshape(-1, cols.shape[-1]), image_shape, kernel, stride, padding)


def grouped_conv2d_forward(
    x: np.ndarray,
    w_mat3: np.ndarray,
    bias2: Optional[np.ndarray],
    kernel: int,
    stride: int,
    padding: int,
    relu: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group conv over a client-major ``(G*N, C, H, W)`` batch.

    ``w_mat3`` is ``(G, O, C*KH*KW)`` (one flattened weight matrix per
    group) and ``bias2`` is ``(G, O)`` or ``None``.  Returns ``(out, cols3)``
    where ``out`` is ``(G*N, O, OH, OW)`` and ``cols3`` is the grouped
    backward cache.  NumPy's batched ``matmul`` runs each slice through the
    same GEMM kernel as a 2-D call, and the bias/reshape sequence is
    :func:`conv2d_forward`'s, so each group's output is bitwise identical to
    a standalone conv.  With ``relu=True`` the fused ``out * (out > 0)``
    activation is applied (bitwise equal to a separate relu op).
    """
    batch = x.shape[0]
    out_channels = w_mat3.shape[1]
    cols3, (out_h, out_w) = grouped_im2col(x, w_mat3.shape[0], kernel, stride, padding)
    out_mat = np.matmul(cols3, np.swapaxes(w_mat3, -1, -2))
    if bias2 is not None:
        out_mat = out_mat + bias2[:, None, :]
    out = out_mat.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if relu:
        out = out * (out > 0)
    return out, cols3


def grouped_conv2d_backward(
    grad: np.ndarray,
    out: Optional[np.ndarray],
    cols3: np.ndarray,
    w_mat3: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    need_x: bool,
    need_weight: bool,
    need_bias: bool,
    relu: bool = False,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Gradients of :func:`grouped_conv2d_forward`.

    Returns ``(grad_x, grad_w_mat3, grad_bias2)`` with the grouped shapes
    ``(G*N, C, H, W)``, ``(G, O, C*KH*KW)`` and ``(G, O)``.  When
    ``relu=True``, ``out`` (the fused forward output) supplies the
    activation mask.
    """
    groups = w_mat3.shape[0]
    batch, out_channels, out_h, out_w = grad.shape
    per = batch // groups
    if relu:
        grad = grad * (out > 0)
    grad_mat3 = grad.transpose(0, 2, 3, 1).reshape(
        groups, per * out_h * out_w, out_channels
    )
    grad_w = np.matmul(np.swapaxes(grad_mat3, -1, -2), cols3) if need_weight else None
    grad_b = grad_mat3.sum(axis=1) if need_bias else None
    grad_x = None
    if need_x:
        grad_cols = np.matmul(grad_mat3, w_mat3)
        grad_x = grouped_col2im(grad_cols, x_shape, kernel, stride, padding)
    return grad_x, grad_w, grad_b


# ----------------------------------------------------------------------
# Fused linear + relu
# ----------------------------------------------------------------------
def linear_relu_forward(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray]
) -> np.ndarray:
    """Fused ``relu(x @ w + bias)``; supports stacked 3-D operands.

    ``x`` may be ``(N, F)`` with ``w`` ``(F, O)`` or client-stacked
    ``(K, N, F)`` with ``w`` ``(K, F, O)`` / ``bias`` broadcastable
    (e.g. ``(K, 1, O)``).  Runs matmul, broadcast add and
    ``pre * (pre > 0)`` in the exact order the unfused Tensor ops do.
    """
    pre = x @ w
    if bias is not None:
        pre = pre + bias
    return pre * (pre > 0)


def linear_relu_backward(
    grad: np.ndarray,
    out: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    need_x: bool,
    need_weight: bool,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    """Gradients of :func:`linear_relu_forward`.

    Returns ``(grad_x, grad_w, grad_pre)`` where ``grad_pre`` is the
    masked upstream gradient (the bias gradient before un-broadcasting;
    the autograd wrapper reduces it to the bias shape).
    """
    grad_pre = grad * (out > 0)
    grad_x = grad_pre @ np.swapaxes(w, -1, -2) if need_x else None
    grad_w = np.swapaxes(x, -1, -2) @ grad_pre if need_weight else None
    return grad_x, grad_w, grad_pre
