"""Module system, layers, and BatchNorm semantics."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor


class TestModuleRegistration:
    def test_parameters_collected_recursively(self):
        model = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 2, seed=1))
        names = [name for name, _ in model.named_parameters()]
        assert names == [
            "layer0.weight",
            "layer0.bias",
            "layer2.weight",
            "layer2.bias",
        ]

    def test_num_parameters(self):
        layer = Linear(4, 8, seed=0)
        assert layer.num_parameters() == 4 * 8 + 8

    def test_state_dict_round_trip(self):
        model_a = Sequential(Linear(4, 4, seed=0), Linear(4, 2, seed=1))
        model_b = Sequential(Linear(4, 4, seed=2), Linear(4, 2, seed=3))
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert not np.allclose(model_a(Tensor(x)).data, model_b(Tensor(x)).data)
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_allclose(model_a(Tensor(x)).data, model_b(Tensor(x)).data)

    def test_load_state_dict_shape_mismatch(self):
        layer = Linear(4, 4, seed=0)
        bad = {name: np.zeros((2, 2)) for name in layer.state_dict()}
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)

    def test_load_state_dict_missing_key(self):
        layer = Linear(4, 4, seed=0)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_state_dict_copies_data(self):
        layer = Linear(2, 2, seed=0)
        state = layer.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(layer.weight.data, 99.0)

    def test_load_state_dict_missing_buffer(self):
        # Regression: missing buffers were silently ignored, so a restore
        # could keep stale BatchNorm running statistics.
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        del state["running_mean"]
        with pytest.raises(KeyError, match="running_mean"):
            bn.load_state_dict(state)

    def test_load_state_dict_unexpected_key(self):
        # Regression: a typo'd key used to "load" successfully.
        layer = Linear(2, 2, seed=0)
        state = layer.state_dict()
        state["weigth"] = state["weight"].copy()
        with pytest.raises(KeyError, match="weigth"):
            layer.load_state_dict(state)

    def test_load_state_dict_non_strict_reports_keys(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        del state["running_var"]
        state["extra"] = np.zeros(3)
        result = bn.load_state_dict(state, strict=False)
        assert result.missing_keys == ["running_var"]
        assert result.unexpected_keys == ["extra"]

    def test_load_state_dict_buffer_shape_mismatch(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        state["running_mean"] = np.zeros(5)
        with pytest.raises(ValueError, match="running_mean"):
            bn.load_state_dict(state)

    def test_load_state_dict_failure_leaves_module_untouched(self):
        layer = Linear(2, 2, seed=0)
        before = layer.state_dict()
        state = layer.state_dict()
        state["weight"] = np.full((2, 2), 7.0)
        del state["bias"]
        with pytest.raises(KeyError):
            layer.load_state_dict(state)
        after = layer.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_setattr_deregisters_stale_parameter(self):
        # Regression: re-assigning a registered Parameter to None left a
        # stale _parameters entry, so state_dict() exported a "bias" the
        # forward pass no longer used.
        layer = Linear(2, 2, bias=True, seed=0)
        layer.bias = None
        assert "bias" not in dict(layer.named_parameters())
        assert "bias" not in layer.state_dict()

    def test_setattr_replaces_module_with_parameter(self):
        module = Module()
        module.head = Linear(2, 2, seed=0)
        module.head = Parameter(np.zeros((2, 2)))
        assert "head" not in module._modules
        assert "head" in module._parameters

    def test_setattr_array_assignment_updates_buffer(self):
        bn = BatchNorm2d(3)
        bn.running_mean = np.full(3, 2.5)
        assert "running_mean" in bn._buffers
        np.testing.assert_allclose(bn.state_dict()["running_mean"], 2.5)

    def test_setattr_non_array_removes_buffer(self):
        bn = BatchNorm2d(3)
        bn.running_mean = None
        assert "running_mean" not in bn._buffers
        assert "running_mean" not in bn.state_dict()

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, seed=0), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        layer = Linear(3, 1, seed=0)
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLinear:
    def test_forward_math(self):
        layer = Linear(3, 2, seed=0)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[4.5, 4.5]])

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, seed=0)
        assert layer.bias is None
        assert layer.num_parameters() == 6


class TestBatchNorm2d:
    def test_normalizes_in_train_mode(self):
        bn = BatchNorm2d(3)
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x))
        means = out.data.mean(axis=(0, 2, 3))
        stds = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(means, np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(stds, np.ones(3), atol=1e-3)

    def test_running_stats_update(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = np.ones((4, 2, 3, 3)) * 4.0
        bn(Tensor(x))
        np.testing.assert_allclose(bn.running_mean, [2.0, 2.0])  # 0.5*0 + 0.5*4

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1, momentum=1.0)
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 1.0, size=(64, 1, 2, 2))
        bn(Tensor(x))  # one train pass seeds running stats fully (momentum=1)
        bn.eval()
        y = rng.normal(2.0, 1.0, size=(16, 1, 2, 2))
        out = bn(Tensor(y))
        expected = (y - bn.running_mean.reshape(1, 1, 1, 1)) / np.sqrt(
            bn.running_var.reshape(1, 1, 1, 1) + bn.eps
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_rejects_wrong_rank(self):
        bn = BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((2, 3))))

    def test_gradient_flows(self):
        bn = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 2, 3, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None


class TestContainers:
    def test_sequential_iteration_and_indexing(self):
        layers = [Linear(2, 2, seed=0), ReLU(), Identity()]
        model = Sequential(*layers)
        assert len(model) == 3
        assert model[1] is layers[1]
        assert list(model) == layers

    def test_sequential_append(self):
        model = Sequential(Linear(2, 3, seed=0))
        model.append(Linear(3, 1, seed=1))
        assert len(model) == 2
        assert len(model.parameters()) == 4

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_maxpool_module(self):
        out = MaxPool2d(2)(Tensor(np.zeros((1, 1, 4, 4))))
        assert out.shape == (1, 1, 2, 2)

    def test_parameter_is_trainable_tensor(self):
        p = Parameter(np.zeros((2, 2)))
        assert p.requires_grad
        assert p.dtype == np.float64
