"""Factory for the paper's (architecture, dataset) model configurations.

The evaluation uses three conv backbones (ResNet, DenseNet, VGG — Table I)
plus an MLP for Purchase-50 (Table II).  :func:`build_model` wires a backbone
into either the legacy single-channel classifier or the CIP dual-channel
classifier, with all randomness derived from one seed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.nn.layers import Module
from repro.nn.models.densenet import MiniDenseNetBackbone
from repro.nn.models.heads import DualChannelClassifier, SingleChannelClassifier
from repro.nn.models.mlp import MLPBackbone
from repro.nn.models.resnet import MiniResNetBackbone
from repro.nn.models.vgg import MiniVGGBackbone
from repro.utils.rng import SeedLike, derive_rng

BackboneBuilder = Callable[..., Module]

BACKBONES: Dict[str, BackboneBuilder] = {
    "resnet": MiniResNetBackbone,
    "densenet": MiniDenseNetBackbone,
    "vgg": MiniVGGBackbone,
    "mlp": MLPBackbone,
}


def build_backbone(
    name: str,
    in_channels: int = 3,
    in_features: Optional[int] = None,
    seed: SeedLike = None,
    **kwargs: object,
) -> Module:
    """Instantiate a backbone by name.

    ``in_features`` is required for the MLP backbone (vector inputs);
    ``in_channels`` applies to the conv backbones (image inputs).
    """
    key = name.lower()
    if key not in BACKBONES:
        raise ValueError(f"unknown backbone {name!r}; choose from {sorted(BACKBONES)}")
    if key == "mlp":
        if in_features is None:
            raise ValueError("mlp backbone requires in_features")
        return MLPBackbone(in_features, seed=seed, **kwargs)  # type: ignore[arg-type]
    return BACKBONES[key](in_channels=in_channels, seed=seed, **kwargs)  # type: ignore[call-arg]


def build_model(
    architecture: str,
    num_classes: int,
    dual_channel: bool = False,
    in_channels: int = 3,
    in_features: Optional[int] = None,
    seed: SeedLike = None,
    **backbone_kwargs: object,
) -> Union[SingleChannelClassifier, DualChannelClassifier]:
    """Build a classifier for one of the paper's configurations.

    Parameters
    ----------
    architecture:
        ``"resnet"``, ``"densenet"``, ``"vgg"`` or ``"mlp"``.
    dual_channel:
        ``True`` builds the CIP architecture (paper Fig. 3); ``False`` the
        legacy single-channel model used for the no-defense baseline.
    """
    backbone = build_backbone(
        architecture,
        in_channels=in_channels,
        in_features=in_features,
        seed=derive_rng(seed, "backbone"),
        **backbone_kwargs,
    )
    head_seed = derive_rng(seed, "classifier")
    if dual_channel:
        return DualChannelClassifier(backbone, num_classes, seed=head_seed)
    return SingleChannelClassifier(backbone, num_classes, seed=head_seed)
