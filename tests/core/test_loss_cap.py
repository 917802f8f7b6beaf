"""The capped Eq.-4 variant (CIPConfig.original_loss_cap)."""

import numpy as np
import pytest

from repro.core.config import CIPConfig
from repro.core.perturbation import Perturbation
from repro.core.trainer import cip_model_loss
from repro.data.dataset import Dataset
from repro.nn.models import build_model


def setup(cap=None, lambda_m=0.5, seed=0):
    config = CIPConfig(alpha=0.5, lambda_m=lambda_m, original_loss_cap=cap)
    model = build_model(
        "mlp", 4, in_features=12, hidden=(16,), dual_channel=True, seed=seed
    )
    perturbation = Perturbation((12,), config, seed=seed)
    rng = np.random.default_rng(seed)
    inputs = rng.random((10, 12))
    labels = rng.integers(0, 4, 10)
    return config, model, perturbation, inputs, labels


class TestLossCap:
    def test_uncapped_is_literal_eq4(self):
        _, model, perturbation, inputs, labels = setup(cap=None)
        from repro.core.blending import blend
        from repro.nn.losses import cross_entropy

        loss = cip_model_loss(model, perturbation, inputs, labels)
        config = perturbation.config
        blended = blend(inputs, perturbation.t.detach(), config.alpha, config.clip_range)
        term1 = cross_entropy(model(blended), labels).item()
        original = blend(inputs, None, config.alpha, config.clip_range)
        term2 = cross_entropy(model(original), labels).item()
        assert loss.item() == pytest.approx(term1 - config.lambda_m * term2, abs=1e-9)

    def test_cap_bounds_the_subtracted_term(self):
        """With a cap of c, loss >= blended_loss - lambda_m * c."""
        cap = 0.5
        _, model, perturbation, inputs, labels = setup(cap=cap)
        from repro.core.blending import blend
        from repro.nn.losses import cross_entropy

        config = perturbation.config
        blended = blend(inputs, perturbation.t.detach(), config.alpha, config.clip_range)
        term1 = cross_entropy(model(blended), labels).item()
        loss = cip_model_loss(model, perturbation, inputs, labels).item()
        assert loss >= term1 - config.lambda_m * cap - 1e-9

    def test_capped_equals_uncapped_below_cap(self):
        """A huge cap never binds: both variants agree."""
        _, model, perturbation, inputs, labels = setup(cap=None)
        loss_plain = cip_model_loss(model, perturbation, inputs, labels).item()
        config_capped, model2, perturbation2, _, _ = setup(cap=1e9)
        # same model/perturbation weights (same seed) -> same value
        loss_capped = cip_model_loss(model2, perturbation2, inputs, labels).item()
        assert loss_plain == pytest.approx(loss_capped, abs=1e-9)

    def test_no_ascent_gradient_beyond_cap(self):
        """Samples whose original-data loss exceeds the cap contribute no
        maximization gradient (the clip zeroes it)."""
        cap = 1e-6  # everything is above this cap
        _, model, perturbation, inputs, labels = setup(cap=cap, lambda_m=5.0)
        loss_capped = cip_model_loss(model, perturbation, inputs, labels)
        loss_capped.backward()
        grads_capped = [
            p.grad.copy() for p in model.parameters() if p.grad is not None
        ]
        model.zero_grad()
        # compare with lambda_m = 0 (no maximization at all)
        config0, model0, perturbation0, _, _ = setup(cap=None, lambda_m=0.0)
        loss0 = cip_model_loss(model0, perturbation0, inputs, labels)
        loss0.backward()
        grads0 = [p.grad for p in model0.parameters() if p.grad is not None]
        for g_capped, g_zero in zip(grads_capped, grads0):
            np.testing.assert_allclose(g_capped, g_zero, atol=1e-10)

    def test_training_stable_with_large_lambda_and_cap(self):
        """The cap prevents the runaway divergence plain Eq. 4 allows."""
        from repro.core.trainer import CIPTrainer
        from repro.nn.optim import SGD

        config = CIPConfig(alpha=0.5, lambda_m=1.0, original_loss_cap=2.0)
        model = build_model(
            "mlp", 4, in_features=12, hidden=(16,), dual_channel=True, seed=1
        )
        perturbation = Perturbation((12,), config, seed=1)
        rng = np.random.default_rng(2)
        data = Dataset(rng.random((40, 12)), rng.integers(0, 4, 40), 4)
        trainer = CIPTrainer(
            model, perturbation, SGD(model.parameters(), lr=0.05, momentum=0.9), config=config
        )
        losses = trainer.train(data, epochs=10, batch_size=16, seed=0)
        assert all(np.isfinite(l) for l in losses)
        for param in model.parameters():
            assert np.isfinite(param.data).all()
