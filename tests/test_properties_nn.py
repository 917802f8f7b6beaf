"""Property-based tests on the neural-network substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.backend import col2im, im2col
from repro.nn.tensor import Tensor


small_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=3),
    channels=st.integers(min_value=1, max_value=3),
    size=st.integers(min_value=4, max_value=8),
    kernel=st.integers(min_value=1, max_value=3),
    stride=st.integers(min_value=1, max_value=2),
    padding=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_im2col_col2im_adjoint_over_shapes(
    batch, channels, size, kernel, stride, padding, seed
):
    """<im2col(x), y> == <x, col2im(y)> for arbitrary geometry."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, channels, size, size))
    cols, _ = im2col(x, kernel=kernel, stride=stride, padding=padding)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel, stride, padding)))
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


@settings(max_examples=20, deadline=None)
@given(
    x=arrays(np.float64, (2, 2, 4, 4), elements=small_floats),
    shift=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_softmax_shift_invariance(x, shift):
    """softmax(z + c) == softmax(z)."""
    logits = x.reshape(4, 16)
    a = F.softmax(Tensor(logits)).data
    b = F.softmax(Tensor(logits + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(x=arrays(np.float64, (3, 1, 4, 4), elements=small_floats))
def test_max_pool_dominates_avg_pool(x):
    """max over a window >= mean over the same window."""
    max_out = F.max_pool2d(Tensor(x), kernel=2).data
    avg_out = F.avg_pool2d(Tensor(x), kernel=2).data
    assert (max_out >= avg_out - 1e-12).all()


@settings(max_examples=20, deadline=None)
@given(
    x=arrays(np.float64, (2, 3, 4, 4), elements=small_floats),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_conv_linearity_in_input(x, seed):
    """conv(a x) == a conv(x) (no bias): convolution is linear."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    out1 = F.conv2d(Tensor(2.5 * x), w, padding=1).data
    out2 = 2.5 * F.conv2d(Tensor(x), w, padding=1).data
    np.testing.assert_allclose(out1, out2, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    x=arrays(np.float64, (2, 3, 4, 4), elements=small_floats),
    y=arrays(np.float64, (2, 3, 4, 4), elements=small_floats),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_conv_additivity(x, y, seed):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    combined = F.conv2d(Tensor(x + y), w, padding=1).data
    separate = F.conv2d(Tensor(x), w, padding=1).data + F.conv2d(Tensor(y), w, padding=1).data
    np.testing.assert_allclose(combined, separate, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(x=arrays(np.float64, (6, 5), elements=small_floats))
def test_log_softmax_upper_bound(x):
    """log-softmax values are <= 0 and the true softmax sums to 1."""
    out = F.log_softmax(Tensor(x)).data
    assert (out <= 1e-12).all()
    np.testing.assert_allclose(np.exp(out).sum(axis=1), np.ones(6), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(x=arrays(np.float64, (4, 3, 6, 6), elements=small_floats))
def test_global_avg_pool_matches_mean(x):
    out = F.global_avg_pool2d(Tensor(x)).data
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    data=arrays(np.float64, (8, 6), elements=small_floats),
    seed=st.integers(min_value=0, max_value=100),
)
def test_gradient_check_random_composite(data, seed):
    """Autograd matches numeric gradients on a random composite function."""
    from tests.conftest import numerical_gradient

    rng = np.random.default_rng(seed)
    w = rng.normal(size=(6, 4))

    def compute(values: np.ndarray) -> float:
        t = Tensor(values)
        return float(((t @ Tensor(w)).tanh().relu() ** 2).mean().data)

    tensor = Tensor(data.copy(), requires_grad=True)
    out = ((tensor @ Tensor(w)).tanh().relu() ** 2).mean()
    out.backward()
    numeric = numerical_gradient(compute, data.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=1e-5)
