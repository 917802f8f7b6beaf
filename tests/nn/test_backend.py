"""The dtype rules of :mod:`repro.nn`, leak regressions, dispatch lint.

Three guarantees are pinned here:

1. The dtype rules: a differentiable leaf built from non-floating data is
   float64, floating leaves keep their dtype, gradients are float64, and
   parameters are float64.
2. The float64-upcast leaks fixed in earlier refactors stay fixed:
   ``one_hot`` honours an explicit dtype and losses follow their logits'
   dtype.
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
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.tensor import Tensor


class TestDtypePolicy:
    """The float64 rules, the one precision the substrate runs in."""

    def test_float64_policy_matches_seed_coercion(self):
        # Differentiable int data is promoted (the seed rule) ...
        assert Tensor(np.arange(4), requires_grad=True).dtype == np.float64
        # ... but float32 leaves keep their dtype, and their gradient is
        # float64.
        leaf = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert leaf.dtype == np.float32
        (leaf * 2.0).sum().backward()
        assert leaf.grad.dtype == np.float64

    def test_parameters_follow_policy(self):
        assert L.Parameter(np.zeros(3, dtype=np.float32)).dtype == np.float64
        module = L.Module()
        module.register_buffer("stat", np.zeros(3, dtype=np.float32))
        assert module.stat.dtype == np.float64


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
