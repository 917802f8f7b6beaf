"""Model zoo.

Backbones produce feature tensors; classifier heads wrap them into the
single-channel (legacy / no-defense) or dual-channel (CIP, paper Figure 3)
architectures.  The :func:`build_model` factory maps the paper's
(architecture, dataset) pairs to concrete models.
"""

from repro.nn.models.mlp import MLPBackbone, MLP
from repro.nn.models.vgg import MiniVGGBackbone
from repro.nn.models.resnet import MiniResNetBackbone
from repro.nn.models.densenet import MiniDenseNetBackbone
from repro.nn.models.heads import (
    SingleChannelClassifier,
    DualChannelClassifier,
)
from repro.nn.models.factory import build_backbone, build_model, BACKBONES

__all__ = [
    "MLPBackbone",
    "MLP",
    "MiniVGGBackbone",
    "MiniResNetBackbone",
    "MiniDenseNetBackbone",
    "SingleChannelClassifier",
    "DualChannelClassifier",
    "build_backbone",
    "build_model",
    "BACKBONES",
]
