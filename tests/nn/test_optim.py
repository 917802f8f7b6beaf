"""Optimizer behaviour: SGD, momentum, Adam."""

import pickle

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def quadratic_param(start=5.0):
    return Tensor(np.array([start]), requires_grad=True)


def quadratic_step(param, optimizer):
    optimizer.zero_grad()
    loss = (param * param).sum()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestSGD:
    def test_plain_sgd_single_step(self):
        p = quadratic_param(4.0)
        opt = SGD([p], lr=0.1)
        quadratic_step(p, opt)
        np.testing.assert_allclose(p.data, [4.0 - 0.1 * 8.0])

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 1e-4

    def test_momentum_accelerates(self):
        p_plain, p_momentum = quadratic_param(), quadratic_param()
        opt_plain = SGD([p_plain], lr=0.01)
        opt_momentum = SGD([p_momentum], lr=0.01, momentum=0.9)
        for _ in range(30):
            quadratic_step(p_plain, opt_plain)
            quadratic_step(p_momentum, opt_momentum)
        assert abs(p_momentum.data[0]) < abs(p_plain.data[0])

    def test_weight_decay_shrinks_params(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        p.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(p.data, [0.9])

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: no change, no crash
        np.testing.assert_allclose(p.data, [1.0])

    def test_validation(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([Tensor(np.zeros(1))], lr=0.1)  # requires_grad=False


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 1e-3

    def test_first_step_is_lr_sized(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1)
        quadratic_step(p, opt)
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_weight_decay(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0


class TestPickling:
    @pytest.mark.parametrize(
        "make",
        [
            lambda params: SGD(params, lr=0.1, momentum=0.9),
            lambda params: Adam(params, lr=0.05),
        ],
        ids=["sgd-momentum", "adam"],
    )
    def test_copy_steps_like_the_original(self, make):
        # The process engine pickles whole clients, optimizers included:
        # the copy must keep its momentum / moments, although its
        # parameters are new objects.
        rng = np.random.default_rng(0)
        params = [
            Tensor(rng.normal(size=(3, 2)), requires_grad=True),
            Tensor(rng.normal(size=4), requires_grad=True),
        ]
        optimizer = make(params)
        for param in params:
            param.grad = rng.normal(size=param.shape)
        optimizer.step()
        copy = pickle.loads(pickle.dumps(optimizer))
        for param, twin in zip(optimizer.params, copy.params):
            grad = rng.normal(size=param.shape)
            param.grad = grad
            twin.grad = grad.copy()
        optimizer.step()
        copy.step()
        for param, twin in zip(optimizer.params, copy.params):
            assert np.array_equal(param.data, twin.data)
