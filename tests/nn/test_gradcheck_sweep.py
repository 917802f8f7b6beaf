"""Finite-difference fuzz sweep over every differentiable op.

Each case pairs an op closure with input specs and runs it through
:func:`repro.nn.diagnostics.gradcheck` across negative axes, broadcasting
shapes, keepdims variants, and float32/float64 — the fuzz matrix that would
have caught the historical ``transpose(-1, 0, 1)`` backward bug (and does
catch it when run against the pre-fix tree).

Inputs are built from seeded permutations (unique values) so order-sensitive
ops (max, max-pooling) are checked away from ties, where central differences
and the analytic tie-splitting convention legitimately disagree; tie
behaviour itself is covered analytically in ``test_autograd.py``.  Shapes
stay tiny: finite differencing is O(n) forward passes per element.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import tensor as T
from repro.nn.backend import available_dtype_policies, use_compute_dtype
from repro.nn.diagnostics import (
    debug_mode,
    get_op_stats,
    gradcheck,
    op_stats_delta,
    profile_ops,
)
from repro.nn.tensor import Tensor


#: The two routes every op is checked along.  ``numpy`` runs the ops as
#: training does.  ``accelerated`` runs them with the op profiler and the
#: invariant guards on, which wrap every op call, every backward closure
#: and every gradient accumulation.  (That leg's id predates the fold of
#: the accelerated backend into the NumPy kernels; it is kept so the
#: sweep's test ids stay stable.)
ROUTES = ("numpy", "accelerated")


@pytest.fixture(
    params=[
        (route, dtype) for route in ROUTES for dtype in available_dtype_policies()
    ],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def route_policy(request):
    """Activate every route × dtype-policy combination for the sweep.

    Under the float32 policy the leaves built by ``_check`` are cast to
    float32 at construction, so the analytic pass genuinely runs in
    float32 (gradcheck pins its numerical pass to float64 and widens the
    tolerances automatically).  On the instrumented route the guards also
    fail the case if any backward accumulates a gradient that is not the
    shape of its tensor, not floating, or not finite.
    """
    route, dtype = request.param
    with use_compute_dtype(dtype):
        if route == "numpy":
            yield route
            return
        with debug_mode(), profile_ops():
            yield route


def _stable_seed(name):
    """Deterministic per-case seed (builtin hash() is salted per process)."""
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(name)) % 1000


def _unique_input(shape, seed, scale=1.0, offset=0.0, dtype=np.float64):
    """All-distinct values, seeded; keeps max/pool gradients tie-free.

    The fractional 0.7 shift keeps every value off the non-differentiable
    kinks the sweep touches (relu/abs at 0, clip at +-0.3) for any offset
    that is a multiple of 0.1.
    """
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    values = (rng.permutation(size) + 0.7) / size  # (0, 1), all distinct
    return (values.reshape(shape) * scale + offset).astype(dtype)


def _check(fn, shapes, seed=0, positive=False, dtype=np.float64, op_name=None):
    offset = 1.0 if positive else -0.5
    inputs = [
        Tensor(_unique_input(shape, seed + i, offset=offset, dtype=dtype), requires_grad=True)
        for i, shape in enumerate(shapes)
    ]
    assert gradcheck(fn, inputs, seed=seed, op_name=op_name)


# Each entry: (name, fn, input shapes, needs-positive-inputs)
ELEMENTWISE_CASES = [
    ("add", lambda a, b: a + b, [(3, 4), (3, 4)], False),
    ("add-broadcast-row", lambda a, b: a + b, [(3, 4), (1, 4)], False),
    ("add-broadcast-scalar", lambda a, b: a + b, [(3, 4), ()], False),
    ("radd-scalar", lambda a: 2.5 + a, [(3, 4)], False),
    ("sub", lambda a, b: a - b, [(2, 3), (2, 3)], False),
    ("rsub", lambda a: 1.0 - a, [(2, 3)], False),
    ("neg", lambda a: -a, [(3, 2)], False),
    ("mul", lambda a, b: a * b, [(3, 4), (3, 4)], False),
    ("mul-broadcast-col", lambda a, b: a * b, [(3, 4), (3, 1)], False),
    ("div", lambda a, b: a / b, [(3, 3), (3, 3)], True),
    ("rdiv", lambda a: 1.0 / a, [(3, 3)], True),
    ("pow2", lambda a: a**2, [(3, 4)], False),
    ("pow3", lambda a: a**3, [(2, 3)], False),
    ("exp", lambda a: a.exp(), [(3, 3)], False),
    ("log", lambda a: a.log(), [(3, 3)], True),
    ("sqrt", lambda a: a.sqrt(), [(3, 3)], True),
    ("tanh", lambda a: a.tanh(), [(3, 3)], False),
    ("sigmoid", lambda a: a.sigmoid(), [(3, 3)], False),
    ("relu", lambda a: a.relu(), [(3, 4)], False),
    ("abs", lambda a: a.abs(), [(3, 4)], False),
    ("clip", lambda a: a.clip(-0.3, 0.3), [(3, 4)], False),
]

MATMUL_CASES = [
    ("matmul-2d", lambda a, b: a @ b, [(3, 4), (4, 2)], False),
    ("matmul-vec-mat", lambda a, b: a @ b, [(4,), (4, 3)], False),
    ("matmul-mat-vec", lambda a, b: a @ b, [(3, 4), (4,)], False),
    ("matmul-vec-vec", lambda a, b: a @ b, [(5,), (5,)], False),
    ("matmul-batched", lambda a, b: a @ b, [(2, 3, 4), (2, 4, 2)], False),
]

REDUCTION_CASES = [
    ("sum-all", lambda a: a.sum(), [(3, 4)], False),
    ("sum-axis0", lambda a: a.sum(axis=0), [(3, 4)], False),
    ("sum-axis-neg", lambda a: a.sum(axis=-1), [(3, 4)], False),
    ("sum-keepdims", lambda a: a.sum(axis=1, keepdims=True), [(3, 4)], False),
    ("sum-multi-axis", lambda a: a.sum(axis=(0, 2)), [(2, 3, 4)], False),
    ("mean-all", lambda a: a.mean(), [(3, 4)], False),
    ("mean-axis-neg", lambda a: a.mean(axis=-2), [(2, 3, 4)], False),
    ("mean-keepdims", lambda a: a.mean(axis=0, keepdims=True), [(3, 4)], False),
    ("max-all", lambda a: a.max(), [(3, 4)], False),
    ("max-axis0", lambda a: a.max(axis=0), [(3, 4)], False),
    ("max-axis-neg", lambda a: a.max(axis=-1), [(3, 4)], False),
    ("max-keepdims", lambda a: a.max(axis=-1, keepdims=True), [(3, 4)], False),
    ("var-all", lambda a: a.var(), [(3, 4)], False),
    ("var-axis-neg", lambda a: a.var(axis=-1), [(3, 4)], False),
]

SHAPE_CASES = [
    ("reshape", lambda a: a.reshape(2, 6), [(3, 4)], False),
    ("reshape-flatten", lambda a: a.reshape(-1), [(2, 3, 2)], False),
    ("transpose-default", lambda a: a.T, [(3, 4)], False),
    ("transpose-perm", lambda a: a.transpose(1, 0, 2), [(2, 3, 4)], False),
    ("transpose-neg-axes", lambda a: a.transpose(-1, 0, 1), [(2, 3, 4)], False),
    ("transpose-all-neg", lambda a: a.transpose(-2, -3, -1), [(2, 3, 4)], False),
    ("transpose-neg-square", lambda a: a.transpose(-1, 0, 1), [(3, 3, 3)], False),
    ("getitem-slice", lambda a: a[1:, :2], [(3, 4)], False),
    ("getitem-fancy", lambda a: a[np.array([0, 0, 2])], [(3, 4)], False),
    ("getitem-int", lambda a: a[1], [(3, 4)], False),
    ("pad", lambda a: a.pad([(1, 1), (2, 0)]), [(3, 4)], False),
    ("concat", lambda a, b: T.concatenate([a, b], axis=0), [(2, 3), (1, 3)], False),
    ("concat-neg-axis", lambda a, b: T.concatenate([a, b], axis=-1), [(2, 2), (2, 3)], False),
    ("stack", lambda a, b: T.stack([a, b], axis=0), [(2, 3), (2, 3)], False),
    ("stack-neg-axis", lambda a, b: T.stack([a, b], axis=-1), [(2, 3), (2, 3)], False),
    (
        "where",
        lambda a, b: T.where(np.arange(6).reshape(2, 3) % 2 == 0, a, b),
        [(2, 3), (2, 3)],
        False,
    ),
]

FUNCTIONAL_CASES = [
    (
        "conv2d",
        lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
        [(2, 2, 4, 4), (3, 2, 3, 3), (3,)],
        False,
    ),
    (
        "conv2d-stride2-nobias",
        lambda x, w: F.conv2d(x, w, None, stride=2, padding=0),
        [(1, 2, 5, 5), (2, 2, 3, 3)],
        False,
    ),
    ("max_pool2d", lambda x: F.max_pool2d(x, 2, 2), [(1, 2, 4, 4)], False),
    ("avg_pool2d", lambda x: F.avg_pool2d(x, 2, 2), [(1, 2, 4, 4)], False),
    ("global_avg_pool2d", lambda x: F.global_avg_pool2d(x), [(2, 3, 4, 4)], False),
    ("softmax", lambda x: F.softmax(x), [(3, 5)], False),
    ("log_softmax", lambda x: F.log_softmax(x), [(3, 5)], False),
    # Fused / grouped kernels backing the batched executor.  The inputs are
    # tie-free and off-kink by construction (see _unique_input), so the
    # ReLU mask is stable under the finite-difference probes.
    (
        "fused_linear_relu",
        lambda x, w, b: F.fused_linear_relu(x, w, b),
        [(3, 4), (4, 2), (2,)],
        False,
    ),
    (
        "fused_linear_relu-stacked",
        lambda x, w, b: F.fused_linear_relu(x, w, b),
        [(2, 3, 4), (2, 4, 2), (2, 1, 2)],
        False,
    ),
    (
        "conv2d_grouped",
        lambda x, w, b: F.conv2d_grouped(x, w, b, stride=1, padding=1),
        [(4, 2, 4, 4), (2, 3, 2, 3, 3), (2, 3)],
        False,
    ),
    (
        "conv2d_grouped-relu-stride2",
        lambda x, w: F.conv2d_grouped(x, w, None, stride=2, padding=0, relu=True),
        [(4, 2, 5, 5), (2, 2, 2, 3, 3)],
        False,
    ),
]

ALL_CASES = (
    ELEMENTWISE_CASES + MATMUL_CASES + REDUCTION_CASES + SHAPE_CASES + FUNCTIONAL_CASES
)


@pytest.mark.parametrize(
    "name,fn,shapes,positive", ALL_CASES, ids=[case[0] for case in ALL_CASES]
)
def test_gradcheck_sweep(route_policy, name, fn, shapes, positive):
    before = get_op_stats()
    _check(fn, shapes, seed=_stable_seed(name), positive=positive, op_name=name)
    if route_policy == "accelerated":
        # The profiler's backward wrapper ran, so the route was live.
        assert any(stat.backward_calls for stat in op_stats_delta(before).values())


# A float32 subset: checks both correctness and that the PR-1-fixed
# backwards keep float32 gradients usable (the numeric side runs in
# float64; tolerances widen automatically).
FLOAT32_CASES = [
    ("mul-f32", lambda a, b: a * b, [(3, 4), (3, 4)], False),
    ("matmul-f32", lambda a, b: a @ b, [(3, 4), (4, 2)], False),
    ("transpose-neg-axes-f32", lambda a: a.transpose(-1, 0, 1), [(2, 3, 4)], False),
    ("getitem-fancy-f32", lambda a: a[np.array([0, 0, 2])], [(3, 4)], False),
    ("max_pool2d-f32", lambda x: F.max_pool2d(x, 2, 2), [(1, 2, 4, 4)], False),
    ("avg_pool2d-f32", lambda x: F.avg_pool2d(x, 2, 2), [(1, 2, 4, 4)], False),
    ("log_softmax-f32", lambda x: F.log_softmax(x), [(3, 5)], False),
    (
        "fused_linear_relu-f32",
        lambda x, w, b: F.fused_linear_relu(x, w, b),
        [(3, 4), (4, 2), (2,)],
        False,
    ),
    (
        "conv2d_grouped-relu-f32",
        lambda x, w, b: F.conv2d_grouped(x, w, b, stride=1, padding=1, relu=True),
        [(4, 2, 4, 4), (2, 3, 2, 3, 3), (2, 3)],
        False,
    ),
]


@pytest.mark.parametrize(
    "name,fn,shapes,positive", FLOAT32_CASES, ids=[case[0] for case in FLOAT32_CASES]
)
def test_gradcheck_sweep_float32(name, fn, shapes, positive):
    _check(
        fn,
        shapes,
        seed=_stable_seed(name),
        positive=positive,
        dtype=np.float32,
        op_name=name,
    )


@pytest.mark.parametrize("name,fn,shapes,positive", FLOAT32_CASES[:4],
                         ids=[case[0] for case in FLOAT32_CASES[:4]])
def test_float32_dtype_preserved_through_backward(name, fn, shapes, positive):
    """Forward outputs stay float32; gradients arrive with the right shape."""
    inputs = [
        Tensor(_unique_input(shape, seed=3, offset=-0.5, dtype=np.float32), requires_grad=True)
        for shape in shapes
    ]
    out = fn(*inputs)
    assert out.dtype == np.float32
    out.sum().backward()
    for tensor in inputs:
        assert tensor.grad is not None and tensor.grad.shape == tensor.shape


def test_dropout_gradcheck_with_fixed_mask():
    """Dropout is stochastic; pin the RNG inside fn so gradcheck sees a
    deterministic function of the input."""

    def fn(x):
        return F.dropout(x, 0.5, np.random.default_rng(42), training=True)

    x = Tensor(_unique_input((4, 4), seed=9, offset=-0.5), requires_grad=True)
    assert gradcheck(fn, [x], op_name="dropout")
