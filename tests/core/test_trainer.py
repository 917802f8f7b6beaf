"""Step II and the alternating CIP training loop (Eq. 4)."""

import numpy as np
import pytest

from repro.core.config import CIPConfig
from repro.core.perturbation import Perturbation
from repro.core.trainer import (
    CIPTrainer,
    cip_model_loss,
    evaluate_with_perturbation,
    predict_logits_with_perturbation,
)
from repro.data.dataset import Dataset
from repro.nn.models import build_model
from repro.nn.optim import SGD


def dual_factory(seed=0):
    return build_model("mlp", 4, in_features=64, hidden=(32,), dual_channel=True, seed=seed)


@pytest.fixture
def flat_images(tiny_image_dataset):
    flat = tiny_image_dataset.inputs.reshape(len(tiny_image_dataset), -1)
    return Dataset(flat, tiny_image_dataset.labels, tiny_image_dataset.num_classes)


class TestCIPModelLoss:
    def test_lambda_zero_is_plain_blended_loss(self, flat_images):
        model = dual_factory()
        config = CIPConfig(alpha=0.5, lambda_m=0.0)
        p = Perturbation((64,), config, seed=0)
        loss = cip_model_loss(model, p, flat_images.inputs[:8], flat_images.labels[:8])
        assert np.isfinite(loss.item())

    def test_lambda_m_subtracts_original_loss(self, flat_images):
        model = dual_factory()
        inputs, labels = flat_images.inputs[:8], flat_images.labels[:8]
        config0 = CIPConfig(alpha=0.5, lambda_m=0.0)
        config1 = CIPConfig(alpha=0.5, lambda_m=0.5)
        p0 = Perturbation((64,), config0, seed=0)
        p1 = Perturbation((64,), config1, seed=0, initial=p0.value)
        model.eval()  # freeze BN-free MLP anyway; keep forward deterministic
        loss0 = cip_model_loss(model, p0, inputs, labels).item()
        loss1 = cip_model_loss(model, p1, inputs, labels).item()
        assert loss1 < loss0  # subtracting a positive CE term

    def test_gradient_reaches_model_not_t(self, flat_images):
        model = dual_factory()
        config = CIPConfig(alpha=0.5, lambda_m=1e-3)
        p = Perturbation((64,), config, seed=0)
        loss = cip_model_loss(model, p, flat_images.inputs[:8], flat_images.labels[:8])
        loss.backward()
        assert any(param.grad is not None for param in model.parameters())
        assert p.t.grad is None  # Step II must not move t


class TestCIPTrainer:
    def make_trainer(self, config=None, seed=0):
        config = config or CIPConfig(alpha=0.5, perturbation_lr=0.05)
        model = dual_factory(seed)
        p = Perturbation((64,), config, seed=seed)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        return CIPTrainer(model, p, opt, config=config)

    def test_training_reduces_loss(self, flat_images):
        trainer = self.make_trainer()
        losses = trainer.train(flat_images, epochs=8, batch_size=16, seed=0)
        assert len(losses) == 8
        assert losses[-1] < losses[0]

    def test_training_reaches_high_train_accuracy(self, flat_images):
        trainer = self.make_trainer()
        trainer.train(flat_images, epochs=15, batch_size=16, seed=0)
        result = trainer.evaluate(flat_images)
        assert result.accuracy > 0.8

    def test_evaluate_with_own_t_beats_zero_blend_after_training(self, flat_images):
        """The trained model is keyed to its t: accuracy collapses without it."""
        trainer = self.make_trainer()
        trainer.train(flat_images, epochs=15, batch_size=16, seed=0)
        with_t = trainer.evaluate(flat_images).accuracy
        without_t = evaluate_with_perturbation(
            trainer.model, None, flat_images, trainer.config
        ).accuracy
        assert with_t >= without_t


class TestEvaluationHelpers:
    def test_predict_logits_shapes(self, flat_images):
        trainer = TestCIPTrainer().make_trainer()
        logits = predict_logits_with_perturbation(
            trainer.model, trainer.perturbation.value, flat_images.inputs, trainer.config
        )
        assert logits.shape == (len(flat_images), 4)

    def test_empty_input(self, flat_images):
        trainer = TestCIPTrainer().make_trainer()
        out = predict_logits_with_perturbation(
            trainer.model, None, flat_images.inputs[:0], trainer.config
        )
        assert out.size == 0

    def test_evaluate_empty_dataset(self, flat_images):
        trainer = TestCIPTrainer().make_trainer()
        empty = Dataset(flat_images.inputs[:0], flat_images.labels[:0], 4)
        result = evaluate_with_perturbation(trainer.model, None, empty, trainer.config)
        assert result.num_samples == 0
