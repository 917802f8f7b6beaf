"""Figure 1 and Theorem 1: motivation and theory checks.

Figure 1 contrasts the member/non-member loss distributions on the original
model (clearly separated) against the CIP-shifted model (overlapping, as an
adversary without ``t`` sees it).  The result rows carry the distribution
summary statistics; the bench also renders the ASCII densities.

The Theorem-1 experiment measures the epsilon ratio on a trained CIP model:
losses under the true ``t`` vs a guessed ``t'`` on the same member samples.
"""

from __future__ import annotations

import numpy as np

from repro.core.theory import check_theorem1
from repro.core.trainer import predict_logits_with_perturbation
from repro.experiments.common import attack_pools, get_bundle, train_cip, train_legacy
from repro.experiments.profiles import Profile
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.fl.training import predict_logits
from repro.metrics.distribution import overlap_coefficient, separability_gap
from repro.nn.losses import per_sample_cross_entropy
from repro.utils.rng import derive_rng

FIG1_ALPHA = 0.5


def member_nonmember_losses(profile: Profile, defended: bool):
    """Per-sample losses for members and non-members, with/without CIP."""
    if defended:
        artifact = train_cip("cifar100", FIG1_ALPHA, profile)
        bundle = artifact.bundle
        # The adversary's view: zero-perturbation blend.
        member_logits = predict_logits_with_perturbation(
            artifact.model, None, bundle.train.inputs, artifact.config
        )
        nonmember_logits = predict_logits_with_perturbation(
            artifact.model, None, bundle.test.inputs, artifact.config
        )
    else:
        artifact = train_legacy("cifar100", profile)
        bundle = artifact.bundle
        member_logits = predict_logits(artifact.model, bundle.train.inputs)
        nonmember_logits = predict_logits(artifact.model, bundle.test.inputs)
    member_losses = per_sample_cross_entropy(member_logits, bundle.train.labels)
    nonmember_losses = per_sample_cross_entropy(nonmember_logits, bundle.test.labels)
    return member_losses, nonmember_losses


@register("fig1", "Member vs non-member loss distributions", "Figure 1")
def fig1(profile: Profile) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig1",
        title="Loss-distribution shift by CIP (synthetic CIFAR-100)",
        columns=[
            "model",
            "member_mean_loss",
            "nonmember_mean_loss",
            "separability_gap",
            "overlap_coefficient",
        ],
    )
    for defended, label in ((False, "original"), (True, "cip_shifted")):
        member_losses, nonmember_losses = member_nonmember_losses(profile, defended)
        result.add_row(
            model=label,
            member_mean_loss=float(member_losses.mean()),
            nonmember_mean_loss=float(nonmember_losses.mean()),
            separability_gap=separability_gap(member_losses, nonmember_losses),
            overlap_coefficient=overlap_coefficient(member_losses, nonmember_losses),
        )
    result.add_note(
        "paper Figure 1: separable densities on the original model, overlapping after CIP"
    )
    return result


@register("theorem1", "Adaptive adversarial advantage bound", "Theorem 1")
def theorem1(profile: Profile) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="theorem1",
        title="Theorem 1: eps = exp(-(l(z_t') - l(z_t))/T) <= 1 on a trained model",
        columns=[
            "guess",
            "mean_loss_true_t",
            "mean_loss_guessed_t",
            "mean_epsilon",
            "fraction_bounded",
            "assumption_holds",
        ],
    )
    artifact = train_cip("cifar100", 0.5, profile)
    bundle = artifact.bundle
    members = bundle.train.take(min(len(bundle.train), 2 * profile.attack_pool))
    true_t = artifact.perturbation.value

    loss_true = per_sample_cross_entropy(
        predict_logits_with_perturbation(
            artifact.model, true_t, members.inputs, artifact.config
        ),
        members.labels,
    )
    rng = derive_rng(0, "theorem1")
    guesses = {
        "zero": None,
        "random": rng.uniform(0.0, 1.0, size=true_t.shape),
        "noisy_true": np.clip(true_t + rng.normal(0, 0.25, size=true_t.shape), 0, 1),
    }
    for label, guess in guesses.items():
        loss_guess = per_sample_cross_entropy(
            predict_logits_with_perturbation(
                artifact.model, guess, members.inputs, artifact.config
            ),
            members.labels,
        )
        check = check_theorem1(loss_true, loss_guess, temperature=1.0)
        result.add_row(
            guess=label,
            mean_loss_true_t=check.mean_loss_true_t,
            mean_loss_guessed_t=check.mean_loss_guessed_t,
            mean_epsilon=check.mean_epsilon,
            fraction_bounded=check.fraction_bounded,
            assumption_holds=check.assumption_holds,
        )
    result.add_note("epsilon <= 1 whenever the guessed-t loss exceeds the true-t loss")
    return result
