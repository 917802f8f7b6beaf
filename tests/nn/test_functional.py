"""Correctness of conv/pool/softmax against naive references + gradients."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.backend import col2im, im2col
from repro.nn.tensor import Tensor
from tests.conftest import check_gradient, numerical_gradient


def naive_conv2d(x, w, b, stride, padding):
    n, c, h, width = x.shape
    o, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] - k) // stride + 1
    ow = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for i in range(n):
        for f in range(o):
            for y in range(oh):
                for z in range(ow):
                    patch = x[i, :, y * stride : y * stride + k, z * stride : z * stride + k]
                    out[i, f, y, z] = np.sum(patch * w[f]) + (b[f] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_gradient_wrt_input(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        check_gradient(
            lambda x: (F.conv2d(x, w, stride=1, padding=1) ** 2).sum(), (1, 1, 5, 5)
        )

    def test_gradient_wrt_weight(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        check_gradient(lambda w: (F.conv2d(x, w, stride=2) ** 2).sum(), (3, 2, 3, 3))

    def test_gradient_wrt_bias(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)))
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        check_gradient(lambda b: (F.conv2d(x, w, b) ** 2).sum(), (2,))

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_rectangular_kernel_rejected(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, Tensor(np.zeros((1, 1, 3, 2))))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        tensor = Tensor(x, requires_grad=True)
        F.max_pool2d(tensor, kernel=2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1.0
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1.0
        np.testing.assert_allclose(tensor.grad, expected)

    def test_avg_pool_values_and_gradient(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])
        check_gradient(lambda t: (F.avg_pool2d(t, kernel=2) ** 2).sum(), (1, 2, 4, 4))

    def test_max_pool_stride(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 1, 6, 6))
        out = F.max_pool2d(Tensor(x), kernel=3, stride=3)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_global_avg_pool(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 7)) * 10
        out = F.softmax(Tensor(logits))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 6))
        log_sm = F.log_softmax(Tensor(logits)).data
        sm = F.softmax(Tensor(logits)).data
        np.testing.assert_allclose(np.exp(log_sm), sm, atol=1e-12)

    def test_softmax_numerically_stable(self):
        logits = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        out = F.softmax(logits)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, :2], [0.5, 0.5])

    def test_softmax_gradient(self):
        check_gradient(lambda x: (F.softmax(x, axis=-1) ** 2).sum(), (3, 5))

    def test_log_softmax_gradient(self):
        check_gradient(lambda x: (F.log_softmax(x, axis=-1) * 0.3).sum(), (3, 5))


class TestOneHotDropout:
    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_dropout_identity_at_eval(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_at_train(self):
        rng = np.random.default_rng(9)
        x = Tensor(np.ones(10000))
        out = F.dropout(x, 0.5, rng, training=True)
        # Inverted dropout keeps the expectation.
        assert abs(out.data.mean() - 1.0) < 0.05
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0 * np.ones_like(kept))

    def test_dropout_invalid_rate(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)


class TestIm2Col:
    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = im2col(x, kernel=3, stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        back = col2im(y, x.shape, kernel=3, stride=2, padding=1)
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-9
