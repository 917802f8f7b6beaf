"""The NumPy kernel module: dtype policy, leak regressions, dispatch lint.

Three guarantees are pinned here:

1. Policy semantics — activation is scoped (``use_compute_dtype``
   restores), unknown names fail fast, and the two shipped policies coerce
   leaves exactly as documented.
2. The float64-upcast leaks fixed in earlier refactors stay fixed:
   ``one_hot`` honours an explicit dtype, losses follow their logits'
   dtype, and under the float32 policy only the reduced loss is float64.
3. The dispatch hygiene lint: no ``np.matmul``/``np.einsum``/
   ``as_strided`` outside ``backend.py``.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import layers as L
from repro.nn.backend import (
    active_compute_dtype,
    available_dtype_policies,
    get_dtype_policy,
    get_policy,
    set_compute_dtype,
    use_compute_dtype,
)
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# Policy registry / activation semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_policies(self):
        assert set(available_dtype_policies()) == {"float64", "float32"}

    def test_default_configuration(self):
        assert active_compute_dtype() == "float64"
        assert get_dtype_policy() is get_policy("float64")

    def test_unknown_names_fail_fast(self):
        with pytest.raises(ValueError, match="unknown"):
            set_compute_dtype("float16")
        with pytest.raises(ValueError, match="unknown"):
            get_policy("float16")
        assert active_compute_dtype() == "float64"

    def test_use_compute_dtype_scopes_and_restores(self):
        ambient = active_compute_dtype()
        with use_compute_dtype("float32") as policy:
            assert policy is get_dtype_policy()
            assert active_compute_dtype() == "float32"
        assert active_compute_dtype() == ambient

    def test_use_compute_dtype_restores_on_exception(self):
        ambient = active_compute_dtype()
        with pytest.raises(RuntimeError):
            with use_compute_dtype("float32"):
                raise RuntimeError("boom")
        assert active_compute_dtype() == ambient


class TestDtypePolicy:
    def test_float64_policy_matches_seed_coercion(self):
        policy = get_policy("float64")
        # Differentiable int data is promoted (the seed rule) ...
        assert policy.coerce_leaf(
            np.arange(4), requires_grad=True, is_leaf=True
        ).dtype == np.float64
        # ... but float32 leaves keep their dtype.
        leaf = np.ones(3, dtype=np.float32)
        assert policy.coerce_leaf(leaf, True, True).dtype == np.float32
        assert policy.grad_dtype(np.dtype(np.float32)) == np.float64
        assert policy.loss_dtype == np.float64

    def test_float32_policy_casts_leaves_and_keeps_grads(self):
        policy = get_policy("float32")
        assert policy.coerce_leaf(np.ones(3), True, True).dtype == np.float32
        assert policy.grad_dtype(np.dtype(np.float32)) == np.float32
        # Loss accumulation stays float64 under every policy.
        assert policy.loss_dtype == np.float64

    def test_float32_policy_applies_to_tensor_leaves(self):
        with use_compute_dtype("float32"):
            leaf = Tensor(np.ones((2, 2)), requires_grad=True)
            assert leaf.dtype == np.float32
            out = leaf * 2.0
            assert out.dtype == np.float32
            out.sum().backward()
            assert leaf.grad.dtype == np.float32

    def test_float32_policy_does_not_cast_op_outputs(self):
        # The astype op deliberately produces a float64 output under the
        # float32 policy (loss accumulation); policy coercion must not
        # squash non-leaf tensors back down.
        with use_compute_dtype("float32"):
            leaf = Tensor(np.ones(3), requires_grad=True)
            wide = leaf.astype(np.float64)
            assert wide.dtype == np.float64
            wide.sum().backward()
            assert leaf.grad.dtype == np.float32

    def test_parameters_follow_policy(self):
        assert L.Parameter(np.zeros(3)).dtype == np.float64
        with use_compute_dtype("float32"):
            assert L.Parameter(np.zeros(3)).dtype == np.float32


# ----------------------------------------------------------------------
# float64-upcast leak regressions
# ----------------------------------------------------------------------
class TestDtypeLeaks:
    def test_one_hot_default_stays_float64(self):
        assert F.one_hot(np.array([0, 2]), 3).dtype == np.float64

    def test_one_hot_honours_dtype(self):
        hot = F.one_hot(np.array([0, 2]), 3, dtype=np.float32)
        assert hot.dtype == np.float32
        np.testing.assert_array_equal(hot.sum(axis=1), [1.0, 1.0])

    def test_cross_entropy_per_sample_follows_logits_dtype(self):
        logits = Tensor(
            np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32),
            requires_grad=True,
        )
        labels = np.array([0, 1, 2, 1, 0])
        per_sample = cross_entropy(logits, labels, reduction="none")
        assert per_sample.dtype == np.float32

    def test_cross_entropy_weighted_no_upcast(self):
        logits = Tensor(
            np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32),
            requires_grad=True,
        )
        weighted = cross_entropy(
            logits, np.array([0, 1, 2, 0]), reduction="none",
            weights=np.ones(4),
        )
        assert weighted.dtype == np.float32

    def test_nll_loss_follows_log_probs_dtype(self):
        log_probs = F.log_softmax(
            Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        )
        assert nll_loss(log_probs, np.array([0, 1, 2]), reduction="none").dtype == np.float32

    def test_float32_policy_loss_accumulates_in_float64(self):
        with use_compute_dtype("float32"):
            logits = Tensor(
                np.random.default_rng(1).normal(size=(6, 3)), requires_grad=True
            )
            assert logits.dtype == np.float32
            loss = cross_entropy(logits, np.array([0, 1, 2, 0, 1, 2]))
            # The reduced loss is float64 (accurate accumulation) but the
            # gradient flowing back to the graph is float32 again.
            assert loss.dtype == np.float64
            loss.backward()
            assert logits.grad.dtype == np.float32

    def test_float32_policy_end_to_end_training_step(self):
        with use_compute_dtype("float32"):
            from repro.nn.models import build_model
            from repro.nn.optim import SGD

            model = build_model(
                "vgg", 3, in_channels=1, stage_channels=(4,), convs_per_stage=1, seed=0
            )
            for param in model.parameters():
                assert param.dtype == np.float32
            for _, buffer in model.named_buffers():
                assert buffer.dtype == np.float32
            x = Tensor(np.random.default_rng(2).normal(size=(4, 1, 8, 8)))
            labels = np.array([0, 1, 2, 0])
            optimizer = SGD(model.parameters(), lr=0.05)
            loss = cross_entropy(model(x), labels)
            loss.backward()
            optimizer.step()
            for param in model.parameters():
                assert param.dtype == np.float32, "optimizer step upcast a parameter"

    def test_state_dict_round_trip_preserves_policy_dtype(self):
        with use_compute_dtype("float32"):
            layer = L.Linear(4, 3, seed=0)
            state = layer.state_dict()
            layer.load_state_dict(state)
            assert layer.weight.dtype == np.float32


# ----------------------------------------------------------------------
# Dispatch hygiene lint
# ----------------------------------------------------------------------
_FORBIDDEN = (
    re.compile(r"\bnp\.matmul\b"),
    re.compile(r"\bnp\.einsum\b"),
    re.compile(r"\bas_strided\b"),
)
_DISPATCHED_MODULES = ("tensor.py", "functional.py", "layers.py", "losses.py")


@pytest.mark.parametrize("module", _DISPATCHED_MODULES)
def test_no_direct_kernel_calls_outside_backend(module):
    """Array kernels live in backend.py; the op modules call them there."""
    import repro.nn

    path = os.path.join(os.path.dirname(repro.nn.__file__), module)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    offenders = [
        f"{module}:{lineno}: {line.strip()}"
        for lineno, line in enumerate(source.splitlines(), 1)
        for pattern in _FORBIDDEN
        if pattern.search(line)
    ]
    assert not offenders, (
        "kernel calls outside the kernel module:\n"
        + "\n".join(offenders)
    )
