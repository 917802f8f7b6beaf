"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the :mod:`repro.nn` deep-learning substrate.
It implements a :class:`Tensor` wrapping an ``ndarray`` together with a tape
of backward closures, in the style of (but much smaller than) PyTorch's
autograd.  The design goals, in order:

1. **Correct gradients** — every op's backward pass is covered by numerical
   gradient-check tests in ``tests/nn/test_autograd.py``.
2. **Broadcasting-safe** — gradients flowing into a broadcast operand are
   reduced back to the operand's shape via :func:`_unbroadcast`.
3. **No hidden global state** — graphs are built per-forward-pass; calling
   :meth:`Tensor.backward` walks a topological sort of the local graph.

Only float64/float32 data participates in differentiation; integer tensors
may be used for indexing/labels but never require grad.

Dtype coercion follows the active :class:`~repro.nn.backend.DtypePolicy`;
the default float64 policy reproduces the historical behaviour bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.nn.backend import get_dtype_policy

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (for inference/attacks)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array data; coerced per the active dtype policy (by default:
        to ``float64`` when ``requires_grad`` is set on non-floating data).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        # Leaf construction follows the active dtype policy; op outputs
        # (constructed with _parents) keep whatever dtype the op produced.
        arr = get_dtype_policy().coerce_leaf(arr, requires_grad, not _parents)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad and _grad_enabled)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        # The autograd graph (backward closures, parent links) is process-
        # local and generally unpicklable; a tensor always crosses process
        # boundaries as a leaf.  The FL parallel executor relies on this to
        # ship whole models to worker processes.
        return (self.data, self.grad, self.requires_grad)

    def __setstate__(self, state) -> None:
        data, grad, requires_grad = state
        self.data = data
        self.grad = grad
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()
        self._op = ""

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents, _op=op)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            grad_dtype = get_dtype_policy().grad_dtype(self.data.dtype)
            self.grad = np.array(grad, dtype=grad_dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode AD from this tensor.

        ``grad`` defaults to ones (so ``loss.backward()`` on a scalar works).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        seed_dtype = get_dtype_policy().grad_dtype(self.data.dtype)
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            seed = np.ones_like(self.data, dtype=seed_dtype)
        else:
            seed = np.asarray(grad, dtype=seed_dtype)
            if seed.shape != self.shape:
                seed = np.broadcast_to(seed, self.shape).astype(seed_dtype)

        order: List[Tensor] = []
        visited: Set[int] = set()

        def visit(node: Tensor) -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents_iter = stack[-1]
                advanced = False
                for parent in parents_iter:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)

        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1 and other.data.ndim == 1:
                    other._accumulate(self.data * grad)
                elif self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return self._make(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward, "relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through only inside the range."""
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(np.clip(self.data, low, high), (self,), backward, "clip")

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast; the gradient is cast back on the way down.

        The float32 dtype policy uses this to accumulate loss reductions in
        float64 while activations and gradients stay float32 (the backward
        re-casts the incoming float64 gradient to the source dtype).
        """
        dtype = np.dtype(dtype)
        if self.data.dtype == dtype:
            return self
        source_dtype = self.data.dtype

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).astype(source_dtype, copy=False))

        return self._make(self.data.astype(dtype), (self,), backward, "cast")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_expand_reduced(grad, self.shape, axis, keepdims))

        return self._make(out_data, (self,), backward, "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        scale = self.size / max(out_data.size, 1)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_expand_reduced(grad, self.shape, axis, keepdims) / scale)

        return self._make(out_data, (self,), backward, "mean")

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = _expand_reduced(grad, self.shape, axis, keepdims)
            max_expanded = _expand_reduced(
                np.asarray(out_data), self.shape, axis, keepdims
            )
            mask = self.data == max_expanded
            # Split gradient equally among ties, matching numerical checks.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(expanded * mask / counts)

        return self._make(out_data, (self,), backward, "max")

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable via mean/sub/mul."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        result = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return result

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)  # validates axes before we mod them
        # argsort only inverts a permutation expressed with non-negative
        # axes; normalize first so e.g. (-1, 0, 1) inverts to (1, 2, 0).
        normalized = tuple(int(a) % self.ndim for a in axes)
        inverse = tuple(int(i) for i in np.argsort(normalized))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        dtype = self.dtype if np.issubdtype(self.dtype, np.floating) else np.float64

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self.shape, dtype=dtype)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "getitem")

    def pad(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        pad_width = tuple(tuple(p) for p in pad_width)
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(lo, dim + lo) for (lo, _hi), dim in zip(pad_width, self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return self._make(out_data, (self,), backward, "pad")

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _raw(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _raw(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _raw(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _raw(other)

    def argmax(self, axis: Optional[int] = None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def _raw(value: ArrayLike) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shaped like a broadcast result) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _expand_reduced(
    grad: np.ndarray,
    original_shape: Tuple[int, ...],
    axis: Optional[Union[int, Tuple[int, ...]]],
    keepdims: bool,
) -> np.ndarray:
    """Broadcast the gradient of a reduction back to the input's shape."""
    if axis is None:
        return np.broadcast_to(grad, original_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(original_shape) for a in axes)
    if not keepdims:
        shape = list(grad.shape)
        for a in sorted(axes):
            shape.insert(a, 1)
        grad = grad.reshape(shape)
    return np.broadcast_to(grad, original_shape)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(tensors[0], out_data, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(tensors[0], out_data, tuple(tensors), backward, "stack")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise select; ``condition`` is a plain bool array."""
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return Tensor._make(a, out_data, (a, b), backward, "where")
