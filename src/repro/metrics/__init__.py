"""Evaluation metrics: attack classification, EMD, SSIM, loss distributions."""

from repro.metrics.classification import (
    BinaryMetrics,
    best_threshold_accuracy,
    binary_metrics,
    roc_auc,
)
from repro.metrics.emd import emd_1d, pairwise_mean_emd
from repro.metrics.ssim import blend_seeds_to_target_ssim, ssim
from repro.metrics.distribution import (
    LossHistogram,
    loss_histogram,
    overlap_coefficient,
    separability_gap,
)

__all__ = [
    "BinaryMetrics",
    "binary_metrics",
    "roc_auc",
    "best_threshold_accuracy",
    "emd_1d",
    "pairwise_mean_emd",
    "ssim",
    "blend_seeds_to_target_ssim",
    "LossHistogram",
    "loss_histogram",
    "overlap_coefficient",
    "separability_gap",
]
