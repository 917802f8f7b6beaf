"""Correctness tooling for the autograd substrate.

Everything in the reproduction rests on ``repro.nn`` computing *exact*
gradients (DESIGN.md section 2): CIP's Step I/II, the gradient-based MI
attacks, and the Theorem-1 empirical check all silently degrade if a
backward pass is wrong.  This module enforces that claim three ways:

1. :func:`gradcheck` — a reusable finite-difference gradient checker (the
   engine behind ``tests/nn/test_gradcheck_sweep.py``, which fuzzes every
   differentiable op across negative axes, broadcasting, keepdims, ties,
   and dtypes).  On mismatch it raises :class:`GradcheckError` naming the
   op and the first offending element.

2. **Debug mode** — opt-in invariant guards in the style of PyTorch's
   ``detect_anomaly``.  While enabled (via :func:`enable_debug`, the
   :class:`debug_mode` context manager, or the ``REPRO_NN_DEBUG``
   environment variable) every op output and every accumulated gradient is
   checked: a gradient's shape must equal its tensor's shape, its dtype
   must be floating, and NaN/Inf values raise immediately — with the op
   name and a short provenance chain in the error.  The guards are
   installed by *swapping in* instrumented ``Tensor._make`` /
   ``Tensor._accumulate`` methods, so the guarded-off path runs the
   original, untouched code: zero overhead when disabled.

3. **Op profiling** — per-op call/time/bytes counters behind the same
   hooks (:func:`enable_op_profiling` / :class:`profile_ops`).  Forward
   ops are timed exclusively (nested ops subtract from their parent), and
   backward closures are timed per op, so a federated round can be
   profiled op-by-op.  Surfaced through ``ExecutionConfig`` and the
   experiments CLI (``--profile-ops``); per-round deltas land in
   ``RoundMetrics.op_stats``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.backend import use_compute_dtype
from repro.nn.tensor import Tensor

#: An op-stat key no op uses.  ``perfbench/tracing.py`` skips it when it
#: sums op times, so the name stays until that filter goes.
WORKSPACE_STAT_KEY = "workspace"

#: Setting this environment variable (to anything but ``0``/``false``/empty)
#: turns the invariant guards on at import time — workers of the process
#: backend inherit it, so one variable covers a whole federated run.
DEBUG_ENV_VAR = "REPRO_NN_DEBUG"


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class DiagnosticsError(RuntimeError):
    """Base class for all diagnostics failures."""


class GradcheckError(DiagnosticsError):
    """Analytic and numerical gradients disagree (or the graph is broken)."""


class InvariantError(DiagnosticsError):
    """A structural autograd invariant was violated (grad shape/dtype)."""


class AnomalyError(DiagnosticsError):
    """A forward output or gradient contains NaN/Inf values."""


def provenance(tensor: Tensor, depth: int = 6) -> str:
    """A short ``op <- parent-op <- ...`` chain for error messages.

    Follows the first parent only — enough to locate the offending
    subgraph without serializing the whole tape.
    """
    chain: List[str] = []
    node: Optional[Tensor] = tensor
    while node is not None and len(chain) < depth:
        chain.append(node._op if node._op else "leaf")
        node = node._parents[0] if node._parents else None
    if node is not None:
        chain.append("...")
    return " <- ".join(chain)


# ----------------------------------------------------------------------
# Instrumented Tensor methods (installed only while debug/profiling is on)
# ----------------------------------------------------------------------
_ORIG_MAKE = Tensor._make
_ORIG_ACCUMULATE = Tensor._accumulate

_DEBUG_ENABLED = False
#: Backward-pass op context: the instrumented backward closures push their
#: op name so ``_accumulate`` guards can report *which op* produced a bad
#: gradient (``_accumulate`` itself has no op argument).
_OP_STACK: List[str] = []


def _describe_parents(parents: Sequence[Tensor]) -> str:
    return ", ".join(
        f"{p._op or 'leaf'}{p.shape}:{p.dtype}" for p in parents
    ) or "(no parents)"


def _instrumented_make(
    self: Tensor,
    data: np.ndarray,
    parents: Tuple[Tensor, ...],
    backward: Callable[[np.ndarray], None],
    op: str,
) -> Tensor:
    if _DEBUG_ENABLED:
        arr = np.asarray(data)
        if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
            raise AnomalyError(
                f"op '{op}' produced non-finite values in its forward output "
                f"(shape {arr.shape}); inputs: {_describe_parents(parents)}"
            )

    inner = backward

    def instrumented_backward(grad: np.ndarray) -> None:
        if _DEBUG_ENABLED:
            garr = np.asarray(grad)
            if np.issubdtype(garr.dtype, np.floating) and not np.all(
                np.isfinite(garr)
            ):
                raise AnomalyError(
                    f"non-finite gradient entering the backward of op '{op}' "
                    f"(shape {garr.shape})"
                )
        profiler = _PROFILER
        start = perf_counter() if profiler is not None else 0.0
        _OP_STACK.append(op)
        try:
            inner(grad)
        finally:
            _OP_STACK.pop()
            if profiler is not None:
                profiler._record_backward(op, perf_counter() - start)

    return _ORIG_MAKE(self, data, parents, instrumented_backward, op)


def _instrumented_accumulate(self: Tensor, grad: np.ndarray) -> None:
    if _DEBUG_ENABLED:
        garr = np.asarray(grad)
        op = _OP_STACK[-1] if _OP_STACK else "backward-seed"
        if garr.shape != self.shape:
            raise InvariantError(
                f"op '{op}' accumulated a gradient of shape {garr.shape} into "
                f"a tensor of shape {self.shape}; tensor provenance: "
                f"{provenance(self)}"
            )
        if not np.issubdtype(garr.dtype, np.floating):
            raise InvariantError(
                f"op '{op}' accumulated a gradient of non-floating dtype "
                f"{garr.dtype} into a tensor of dtype {self.dtype}; tensor "
                f"provenance: {provenance(self)}"
            )
        if not np.all(np.isfinite(garr)):
            raise AnomalyError(
                f"op '{op}' accumulated non-finite gradient values into a "
                f"tensor of shape {self.shape}; tensor provenance: "
                f"{provenance(self)}"
            )
    _ORIG_ACCUMULATE(self, grad)


def _sync_instrumentation() -> None:
    """Swap the instrumented methods in/out based on what is active.

    When neither debug mode nor the profiler is on, ``Tensor`` runs the
    *original* method objects — the off path is bitwise the seed code.
    """
    active = _DEBUG_ENABLED or _PROFILER is not None
    if active:
        Tensor._make = _instrumented_make
        Tensor._accumulate = _instrumented_accumulate
    else:
        Tensor._make = _ORIG_MAKE
        Tensor._accumulate = _ORIG_ACCUMULATE


# ----------------------------------------------------------------------
# Debug mode
# ----------------------------------------------------------------------
def enable_debug() -> None:
    """Turn the invariant guards on (idempotent)."""
    global _DEBUG_ENABLED
    _DEBUG_ENABLED = True
    _sync_instrumentation()


def disable_debug() -> None:
    """Turn the invariant guards off and restore the unguarded methods."""
    global _DEBUG_ENABLED
    _DEBUG_ENABLED = False
    _sync_instrumentation()


def debug_enabled() -> bool:
    return _DEBUG_ENABLED


def env_debug_requested(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``REPRO_NN_DEBUG`` asks for debug mode."""
    value = (environ if environ is not None else os.environ).get(DEBUG_ENV_VAR, "")
    return value.strip().lower() not in ("", "0", "false", "off", "no")


class debug_mode:
    """Context manager enabling the invariant guards for a block.

    Restores the previous state on exit, so nesting and interleaving with
    :func:`enable_debug` behave as expected.
    """

    def __enter__(self) -> "debug_mode":
        self._prev = _DEBUG_ENABLED
        enable_debug()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._prev:
            disable_debug()


# ----------------------------------------------------------------------
# Op profiling
# ----------------------------------------------------------------------
@dataclass
class OpStat:
    """Counters for one op kind.

    ``forward_seconds`` is *exclusive* time: composite ops (e.g. ``var``,
    which runs mean/sub/mul) do not double-count their children.
    ``backward_seconds`` is the total time spent in the op's backward
    closures.  ``bytes_out`` sums the op's forward output sizes.
    """

    calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    bytes_out: int = 0

    def merged(self, other: "OpStat") -> "OpStat":
        return OpStat(
            calls=self.calls + other.calls,
            forward_seconds=self.forward_seconds + other.forward_seconds,
            backward_calls=self.backward_calls + other.backward_calls,
            backward_seconds=self.backward_seconds + other.backward_seconds,
            bytes_out=self.bytes_out + other.bytes_out,
        )

    def minus(self, other: "OpStat") -> "OpStat":
        return OpStat(
            calls=self.calls - other.calls,
            forward_seconds=self.forward_seconds - other.forward_seconds,
            backward_calls=self.backward_calls - other.backward_calls,
            backward_seconds=self.backward_seconds - other.backward_seconds,
            bytes_out=self.bytes_out - other.bytes_out,
        )

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


#: Tensor methods wrapped by the profiler, mapped to their op names (the
#: same names ``Tensor._op`` uses, so forward and backward stats line up).
_TENSOR_METHODS = {
    "__add__": "add",
    "__radd__": "add",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__pow__": "pow",
    "__matmul__": "matmul",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "abs": "abs",
    "clip": "clip",
    "sum": "sum",
    "mean": "mean",
    "max": "max",
    "reshape": "reshape",
    "transpose": "transpose",
    "__getitem__": "getitem",
    "pad": "pad",
}

#: Free functions wrapped by the profiler (module attribute -> op name).
_TENSOR_FUNCTIONS = {"concatenate": "concat", "stack": "stack", "where": "where"}


class OpProfiler:
    """Per-op call/time/bytes accounting for the autograd substrate."""

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        # Child-time accumulators for exclusive forward timing.
        self._frames: List[float] = []

    def _call(self, name: str, func, args, kwargs):
        self._frames.append(0.0)
        start = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child_time = self._frames.pop()
            if self._frames:
                self._frames[-1] += elapsed
            stat = self.stats.setdefault(name, OpStat())
            stat.calls += 1
            stat.forward_seconds += max(elapsed - child_time, 0.0)
        if isinstance(result, Tensor):
            stat.bytes_out += result.data.nbytes
        return result

    def _record_backward(self, op: str, seconds: float) -> None:
        stat = self.stats.setdefault(op, OpStat())
        stat.backward_calls += 1
        stat.backward_seconds += seconds

    def snapshot(self) -> Dict[str, OpStat]:
        return {name: OpStat(**vars(stat)) for name, stat in self.stats.items()}

    def reset(self) -> None:
        self.stats.clear()


_PROFILER: Optional[OpProfiler] = None
#: ``(owner, attribute, original)`` records for profiler un-patching.
_PATCHED: List[Tuple[object, str, object]] = []


def timed_op(name: str, func):
    """Wrap an op callable with profiler accounting.

    A no-op passthrough while profiling is off (one global read per call),
    so ``repro.nn.functional`` can wrap its coarse entry points permanently
    at module-definition time — covering by-value importers that a dynamic
    module-attribute patch would miss.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        profiler = _PROFILER
        if profiler is None:
            return func(*args, **kwargs)
        return profiler._call(name, func, args, kwargs)

    wrapper.__wrapped_op__ = name
    return wrapper


def _install_profiler_wrappers() -> None:
    # repro.nn.functional's PROFILED_OPS are not patched here: they carry a
    # permanent timed_op wrapper (see the bottom of that module).
    import repro.nn as nn_pkg
    import repro.nn.tensor as tensor_mod

    targets: List[Tuple[object, str, str]] = [
        (Tensor, method, op) for method, op in _TENSOR_METHODS.items()
    ]
    for func, op in _TENSOR_FUNCTIONS.items():
        targets.append((tensor_mod, func, op))
        # repro.nn re-exports these names; patch that namespace too so
        # `from repro.nn import concatenate`-style callers are covered.
        if hasattr(nn_pkg, func):
            targets.append((nn_pkg, func, op))
    for owner, attr, op in targets:
        original = getattr(owner, attr)
        _PATCHED.append((owner, attr, original))
        setattr(owner, attr, timed_op(op, original))


def _remove_profiler_wrappers() -> None:
    while _PATCHED:
        owner, attr, original = _PATCHED.pop()
        setattr(owner, attr, original)


def enable_op_profiling() -> OpProfiler:
    """Start (or return the already-running) op profiler."""
    global _PROFILER
    if _PROFILER is None:
        _PROFILER = OpProfiler()
        _install_profiler_wrappers()
        _sync_instrumentation()
    return _PROFILER


def disable_op_profiling() -> None:
    """Stop profiling and restore the unwrapped op methods."""
    global _PROFILER
    if _PROFILER is not None:
        _PROFILER = None
        _remove_profiler_wrappers()
        _sync_instrumentation()


def profiling_enabled() -> bool:
    return _PROFILER is not None


def get_op_stats() -> Dict[str, OpStat]:
    """A snapshot of the running profiler's counters (empty when off)."""
    return _PROFILER.snapshot() if _PROFILER is not None else {}


def reset_op_stats() -> None:
    if _PROFILER is not None:
        _PROFILER.reset()


def op_stats_delta(
    before: Dict[str, OpStat], after: Optional[Dict[str, OpStat]] = None
) -> Dict[str, OpStat]:
    """Counters accrued since ``before`` (``after`` defaults to now)."""
    current = get_op_stats() if after is None else after
    delta: Dict[str, OpStat] = {}
    empty = OpStat()
    for name, stat in current.items():
        diff = stat.minus(before.get(name, empty))
        if diff.calls or diff.backward_calls:
            delta[name] = diff
    return delta


def merge_op_stats(*dicts: Dict[str, OpStat]) -> Dict[str, OpStat]:
    """Sum several op-stat dicts (e.g. per-round deltas) into one."""
    merged: Dict[str, OpStat] = {}
    for stats in dicts:
        for name, stat in stats.items():
            merged[name] = merged[name].merged(stat) if name in merged else OpStat(
                **vars(stat)
            )
    return merged


class profile_ops:
    """Context manager collecting op stats for a block.

    Yields the profiler; on exit the block's *delta* is kept in
    ``self.stats`` and profiling is restored to its previous state.
    """

    def __enter__(self) -> "profile_ops":
        self._was_on = profiling_enabled()
        profiler = enable_op_profiling()
        self._before = profiler.snapshot()
        self.stats: Dict[str, OpStat] = {}
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stats = op_stats_delta(self._before)
        if not self._was_on:
            disable_op_profiling()


def format_op_table(stats: Optional[Dict[str, OpStat]] = None) -> str:
    """Render op stats as an aligned text table, slowest first."""
    stats = get_op_stats() if stats is None else stats
    if not stats:
        return "(no ops profiled)"
    header = (
        f"{'op':<14} {'calls':>8} {'fwd ms':>10} "
        f"{'bwd calls':>10} {'bwd ms':>10} {'MB out':>10}"
    )
    lines = [header, "-" * len(header)]
    total = OpStat()
    for name, stat in sorted(
        stats.items(), key=lambda item: item[1].total_seconds, reverse=True
    ):
        lines.append(_format_op_row(name, stat))
        total = total.merged(stat)
    lines.append("-" * len(header))
    lines.append(_format_op_row("total", total))
    return "\n".join(lines)


def _format_op_row(name: str, stat: OpStat) -> str:
    return (
        f"{name:<14} {stat.calls:>8d} {stat.forward_seconds * 1e3:>10.2f} "
        f"{stat.backward_calls:>10d} {stat.backward_seconds * 1e3:>10.2f} "
        f"{stat.bytes_out / 1e6:>10.2f}"
    )


# ----------------------------------------------------------------------
# gradcheck
# ----------------------------------------------------------------------
TensorsLike = Union[Tensor, Sequence[Tensor]]


def _default_tolerances(checked: Sequence[Tensor]) -> Tuple[float, float]:
    if any(t.dtype == np.float32 for t in checked):
        return 1e-3, 1e-2  # atol, rtol — float32 analytic error dominates
    return 1e-5, 1e-4


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: TensorsLike,
    *,
    eps: float = 1e-6,
    atol: Optional[float] = None,
    rtol: Optional[float] = None,
    seed: int = 0,
    op_name: Optional[str] = None,
) -> bool:
    """Verify ``fn``'s analytic gradients against central finite differences.

    ``fn`` maps one or more :class:`Tensor` inputs to a single Tensor
    output (any shape); gradients are checked for every input with
    ``requires_grad``.  Non-scalar outputs are reduced with a fixed random
    projection so every output element influences the check.  ``fn`` must
    be deterministic — a stochastic op should construct its RNG inside
    ``fn`` from a fixed seed.

    The numerical gradient is always computed on float64 copies of the
    inputs (central differences in float32 drown in rounding error); the
    analytic gradient runs in the inputs' real dtypes, and default
    tolerances widen automatically when any checked input is float32.

    The numerical pass forces the float64 dtype policy, so a float32
    compute policy cannot round away the finite-difference probe.

    Raises :class:`GradcheckError` (naming ``op_name``) on the first
    violated invariant: a missing gradient, a gradient whose shape differs
    from its tensor's shape, or an analytic/numerical mismatch.  Returns
    ``True`` when everything agrees.
    """
    tensors = [inputs] if isinstance(inputs, Tensor) else list(inputs)
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    checked = [(i, t) for i, t in enumerate(tensors) if t.requires_grad]
    if not checked:
        raise ValueError("gradcheck needs at least one input with requires_grad")
    label = op_name or getattr(fn, "__name__", "<fn>")
    if atol is None or rtol is None:
        default_atol, default_rtol = _default_tolerances([t for _, t in checked])
        atol = default_atol if atol is None else atol
        rtol = default_rtol if rtol is None else rtol

    for _, tensor in checked:
        tensor.zero_grad()
    out = fn(*tensors)
    if not isinstance(out, Tensor):
        raise GradcheckError(f"{label}: fn must return a Tensor, got {type(out)!r}")
    projection = np.random.default_rng(seed).normal(size=out.shape)
    scalar = (out * Tensor(projection)).sum()
    scalar.backward()

    analytic: Dict[int, np.ndarray] = {}
    for index, tensor in checked:
        if tensor.grad is None:
            raise GradcheckError(
                f"{label}: input {index} received no gradient — the op's "
                "backward never reached it"
            )
        if tensor.grad.shape != tensor.shape:
            raise GradcheckError(
                f"{label}: input {index} accumulated a gradient of shape "
                f"{tensor.grad.shape} but the tensor has shape {tensor.shape} "
                "— the backward pass mis-maps gradient elements"
            )
        analytic[index] = np.array(tensor.grad, dtype=np.float64, copy=True)

    base = [np.array(t.data, dtype=np.float64, copy=True) for t in tensors]

    def evaluate(datas: List[np.ndarray]) -> float:
        # Pin the float64 policy for the numerical pass: under a float32
        # compute policy the Tensor(d) leaves would be cast down and the
        # eps-sized probes would drown in rounding error.  A no-op under
        # the default policy, so the reference path is untouched.
        with use_compute_dtype("float64"):
            result = fn(*[Tensor(d) for d in datas])
        return float((np.asarray(result.data, dtype=np.float64) * projection).sum())

    for index, tensor in checked:
        numeric = np.zeros_like(base[index])
        flat = base[index].reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + eps
            plus = evaluate(base)
            flat[j] = original - eps
            minus = evaluate(base)
            flat[j] = original
            numeric_flat[j] = (plus - minus) / (2.0 * eps)
        mismatch = ~np.isclose(analytic[index], numeric, atol=atol, rtol=rtol)
        if mismatch.any():
            bad = tuple(int(k) for k in np.argwhere(mismatch)[0])
            max_err = float(np.abs(analytic[index] - numeric).max())
            raise GradcheckError(
                f"{label}: analytic and numerical gradients of input {index} "
                f"disagree at {bad}: analytic={analytic[index][bad]:.6g}, "
                f"numeric={numeric[bad]:.6g} (max abs error {max_err:.3g}, "
                f"atol={atol:g}, rtol={rtol:g})"
            )
    return True


# Honour REPRO_NN_DEBUG at import time so the guards cover whole runs
# (including process-backend workers, which inherit the environment)
# without any code change.
if env_debug_requested():
    enable_debug()
