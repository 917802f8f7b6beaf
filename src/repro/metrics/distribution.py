"""Loss-distribution diagnostics (paper Figure 1).

Figure 1 plots the probability density of per-sample losses for members vs
non-members before and after CIP.  These helpers compute the histogram
series and a scalar *overlap coefficient* (shared area of the two
densities): near 0 means trivially separable (attackable), near 1 means the
distributions coincide (defended).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LossHistogram:
    """A pair of member/non-member loss densities over shared bins."""

    bin_edges: np.ndarray
    member_density: np.ndarray
    nonmember_density: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0


def loss_histogram(
    member_losses: np.ndarray,
    nonmember_losses: np.ndarray,
    bins: int = 30,
) -> LossHistogram:
    """Shared-bin densities of the two loss populations."""
    member_losses = np.asarray(member_losses, dtype=np.float64)
    nonmember_losses = np.asarray(nonmember_losses, dtype=np.float64)
    combined = np.concatenate([member_losses, nonmember_losses])
    lo, hi = combined.min(), combined.max()
    if hi <= lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    member_density, _ = np.histogram(member_losses, bins=edges, density=True)
    nonmember_density, _ = np.histogram(nonmember_losses, bins=edges, density=True)
    return LossHistogram(edges, member_density, nonmember_density)


def overlap_coefficient(
    member_losses: np.ndarray, nonmember_losses: np.ndarray, bins: int = 30
) -> float:
    """Shared area of the member/non-member loss densities, in [0, 1]."""
    hist = loss_histogram(member_losses, nonmember_losses, bins=bins)
    widths = np.diff(hist.bin_edges)
    return float(
        np.sum(np.minimum(hist.member_density, hist.nonmember_density) * widths)
    )


def separability_gap(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """Mean non-member loss minus mean member loss (the raw MI signal)."""
    return float(np.mean(nonmember_losses) - np.mean(member_losses))
