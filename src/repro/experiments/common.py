"""Shared experiment building blocks: cached trained artifacts.

Many of the paper's tables reuse the same trained models (e.g. the CIP model
for CIFAR-100 at alpha=0.7 appears in Figure 8, Table IV, Table VI and
Table X).  :func:`train_legacy` and :func:`train_cip` memoize trained
artifacts per process so a full benchmark run trains each configuration at
most once.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.attacks.base import AttackData, CIPTarget, PlainTarget
from repro.core.config import CIPConfig, ExecutionConfig
from repro.core.perturbation import Perturbation
from repro.core.trainer import CIPTrainer
from repro.data.benchmarks import (
    DatasetBundle,
    default_architecture,
    default_model_kwargs,
    default_training,
    load_dataset,
)
from repro.experiments.profiles import Profile
from repro.fl.executor import RoundExecutor, executor_class
from repro.fl.simulation import FederatedSimulation
from repro.fl.training import train_supervised
from repro.nn.backend import set_compute_dtype
from repro.nn.layers import Module
from repro.nn.models import build_model
from repro.nn.optim import SGD
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng

_log = get_logger("experiments.common")

_BUNDLE_CACHE: Dict[tuple, DatasetBundle] = {}
_LEGACY_CACHE: Dict[tuple, "LegacyArtifact"] = {}
_CIP_CACHE: Dict[tuple, "CIPArtifact"] = {}

_EXECUTION_CONFIG = ExecutionConfig()
#: Numbers the checkpointed federations of the active config in run order.
_FEDERATIONS = itertools.count()


def set_execution_config(config: ExecutionConfig) -> None:
    """Select how every federated experiment runs.

    The experiment CLI builds one :class:`ExecutionConfig` from its flags
    and threads it through here; every simulation built by
    :func:`run_federated` (and :func:`build_executor`) then uses it — its
    engine, fault injection, Byzantine clients, server robustness and
    checkpointing alike.
    """
    global _EXECUTION_CONFIG, _FEDERATIONS
    _EXECUTION_CONFIG = config
    _FEDERATIONS = itertools.count()
    # Enable-only: a default config must not clobber REPRO_NN_DEBUG or an
    # earlier explicit enable.
    if config.nn_debug:
        from repro.nn import diagnostics

        diagnostics.enable_debug()
    if config.profile_ops:
        from repro.nn import diagnostics

        diagnostics.enable_op_profiling()
    # The dtype policy is part of the config, default included: a default
    # config must undo an earlier float32 selection.
    set_compute_dtype(config.compute_dtype)


def get_execution_config() -> ExecutionConfig:
    return _EXECUTION_CONFIG


def build_executor() -> RoundExecutor:
    """A fresh round executor honouring the active :class:`ExecutionConfig`.

    Fresh per simulation because a pooled executor's workers cache the
    client population they were built with.
    """
    return executor_class(_EXECUTION_CONFIG.backend)(_EXECUTION_CONFIG)


def configure_server_robustness(server) -> None:
    """Apply the active config's aggregator/screening/gate knobs to a server.

    Keeps experiment code that builds its own :class:`FLServer` honest about
    the CLI's ``--aggregator``/``--screen-updates`` selection without every
    call site repeating the option plumbing.
    """
    config = _EXECUTION_CONFIG
    if config.aggregator != getattr(server, "aggregator_name", "fedavg") or config.shards > 1:
        server.set_aggregator(config.aggregator, **config.aggregator_options)
    # Where screening runs is decided here only: the async engine screens
    # each arrival at admission (a streaming window inside the executor), so
    # server-side screening would double-screen an already-filtered buffer;
    # the synchronous engines screen at the server.
    if config.backend != "async" and server.screening is None:
        server.screening = config.screening
    if config.gate_aggregate:
        server.gate_aggregate = True
        server.gate_norm_multiplier = config.gate_norm_multiplier


def run_federated(server, clients, rounds: int, **sim_kwargs) -> FederatedSimulation:
    """Run a FedAvg simulation on the configured execution backend.

    Builds the simulation with :func:`build_executor`, applies the active
    aggregator/screening configuration to the server, runs ``rounds``
    rounds, and always releases pooled workers before returning the
    (finished) simulation for inspection.  Under a checkpoint directory
    each federation checkpoints into its own numbered subdirectory, so one
    experiment's federations never prune each other's chains.
    """
    checkpoint = _EXECUTION_CONFIG.checkpoint
    if checkpoint.directory is not None and "checkpoint" not in sim_kwargs:
        subdirectory = f"federation_{next(_FEDERATIONS):03d}"
        sim_kwargs["checkpoint"] = replace(
            checkpoint, directory=os.path.join(checkpoint.directory, subdirectory)
        )
    configure_server_robustness(server)
    simulation = FederatedSimulation(
        server, clients, executor=build_executor(), **sim_kwargs
    )
    try:
        simulation.run(rounds)
    finally:
        simulation.close()
    return simulation


def clear_caches() -> None:
    """Drop all memoized artifacts (tests use this for isolation)."""
    _BUNDLE_CACHE.clear()
    _LEGACY_CACHE.clear()
    _CIP_CACHE.clear()
    try:
        from repro.experiments.exp_attacks import _SHADOW_CACHE

        _SHADOW_CACHE.clear()
    except ImportError:  # pragma: no cover - circular-import guard
        pass


def get_bundle(dataset: str, profile: Profile, seed: int = 0) -> DatasetBundle:
    """Load (and cache) a benchmark dataset at the profile's size."""
    key = (dataset, profile.name, seed)
    if key not in _BUNDLE_CACHE:
        if dataset == "purchase50":
            spc = profile.samples_per_class_tabular
        elif dataset == "chmnist":
            # CH-MNIST has 8 classes vs synthetic CIFAR's 20; triple the
            # per-class count so the total dataset sizes stay comparable.
            spc = 3 * profile.samples_per_class_image
        else:
            spc = profile.samples_per_class_image
        _BUNDLE_CACHE[key] = load_dataset(dataset, seed=seed, samples_per_class=spc)
    return _BUNDLE_CACHE[key]


@dataclass
class LegacyArtifact:
    """A trained no-defense model plus its data."""

    model: Module
    bundle: DatasetBundle
    architecture: str

    def target(self) -> PlainTarget:
        return PlainTarget(self.model, self.bundle.num_classes)


@dataclass
class CIPArtifact:
    """A trained CIP model, its secret perturbation, and its data."""

    model: Module
    perturbation: Perturbation
    config: CIPConfig
    trainer: CIPTrainer
    bundle: DatasetBundle
    architecture: str
    initial_t: np.ndarray  # the seed image t was initialized from (Knowledge-1)
    checkpoints: list = None  # state dicts of the last training epochs (internal attacks)

    def target(self, guess_t: Optional[np.ndarray] = None) -> CIPTarget:
        return CIPTarget(self.model, self.bundle.num_classes, self.config, guess_t=guess_t)


def train_legacy(
    dataset: str,
    profile: Profile,
    seed: int = 0,
    architecture: Optional[str] = None,
) -> LegacyArtifact:
    """Train (and cache) the no-defense single-channel model for a dataset."""
    architecture = architecture or default_architecture(dataset)
    key = (dataset, profile.name, seed, architecture)
    if key in _LEGACY_CACHE:
        return _LEGACY_CACHE[key]
    bundle = get_bundle(dataset, profile, seed)
    recipe = default_training(dataset)
    model = build_model(
        architecture,
        bundle.num_classes,
        seed=derive_rng(seed, "legacy", dataset, architecture),
        **default_model_kwargs(dataset),
    )
    optimizer = SGD(model.parameters(), lr=recipe.lr, momentum=0.9)
    epochs = profile.epochs(recipe.epochs)
    _log.info("training legacy %s/%s for %d epochs", dataset, architecture, epochs)
    augment = bundle.augmentation
    for epoch in range(epochs):
        train_supervised(
            model,
            bundle.train,
            optimizer,
            epochs=1,
            batch_size=recipe.batch_size,
            seed=derive_rng(seed, "legacy-epoch", epoch),
            augment=augment,
        )
    artifact = LegacyArtifact(model=model, bundle=bundle, architecture=architecture)
    _LEGACY_CACHE[key] = artifact
    return artifact


def make_cip_config(
    dataset: str,
    alpha: float,
    lambda_m: Optional[float] = None,
    lambda_t: float = 1e-8,
    perturbation_lr: float = 1e-2,
) -> CIPConfig:
    """Per-dataset CIP hyperparameters (paper Table II pattern).

    Binary tabular data needs a stronger, capped loss-maximization term:
    with 0/1 inputs the clipped second blend channel degenerates to the raw
    sample, so only Eq. (4)'s original-data term prevents memorization of it
    (see DESIGN.md section 2; the cap implements the paper's "avoid
    abnormally high loss" balance).  The paper's absolute lambda values are
    not transferable — its losses are on a different scale — so these are
    calibrated for this codebase.
    """
    key = dataset.lower().replace("-", "_")
    if key == "purchase50":
        resolved_lambda_m = 0.3 if lambda_m is None else lambda_m
        cap: Optional[float] = float(np.log(50))
    else:
        resolved_lambda_m = 1e-6 if lambda_m is None else lambda_m
        cap = None
    return CIPConfig(
        alpha=alpha,
        lambda_m=resolved_lambda_m,
        lambda_t=lambda_t,
        perturbation_lr=perturbation_lr,
        perturbation_steps=1,
        clip_range=(0.0, 1.0),
        original_loss_cap=cap,
    )


def train_cip(
    dataset: str,
    alpha: float,
    profile: Profile,
    seed: int = 0,
    architecture: Optional[str] = None,
    lambda_m: Optional[float] = None,
    lambda_t: float = 1e-8,
) -> CIPArtifact:
    """Train (and cache) a CIP model for (dataset, alpha)."""
    architecture = architecture or default_architecture(dataset)
    key = (dataset, profile.name, seed, architecture, alpha, lambda_m, lambda_t)
    if key in _CIP_CACHE:
        return _CIP_CACHE[key]
    bundle = get_bundle(dataset, profile, seed)
    recipe = default_training(dataset)
    config = make_cip_config(dataset, alpha, lambda_m=lambda_m, lambda_t=lambda_t)
    model = build_model(
        architecture,
        bundle.num_classes,
        dual_channel=True,
        seed=derive_rng(seed, "cip", dataset, architecture),
        **default_model_kwargs(dataset),
    )
    perturbation = Perturbation(
        bundle.train.input_shape, config, seed=derive_rng(seed, "cip-t", dataset)
    )
    initial_t = perturbation.value
    optimizer = SGD(model.parameters(), lr=recipe.lr, momentum=0.9)
    trainer = CIPTrainer(model, perturbation, optimizer, config=config, augment=bundle.augmentation)
    epochs = profile.epochs(recipe.epochs)
    _log.info("training CIP %s/%s alpha=%.1f for %d epochs", dataset, architecture, alpha, epochs)
    # Record the final epochs' states: the observation of a passive internal
    # adversary (it watches the client's model in the last rounds).
    checkpoint_tail = min(3, epochs)
    checkpoints = []
    for epoch in range(epochs):
        trainer.train_epoch(
            bundle.train,
            batch_size=recipe.batch_size,
            seed=derive_rng(seed, "cip-train", dataset, int(alpha * 10), epoch),
        )
        if epoch >= epochs - checkpoint_tail:
            checkpoints.append(model.state_dict())
    artifact = CIPArtifact(
        model=model,
        perturbation=perturbation,
        config=config,
        trainer=trainer,
        bundle=bundle,
        architecture=architecture,
        initial_t=initial_t,
        checkpoints=checkpoints,
    )
    _CIP_CACHE[key] = artifact
    return artifact


def attack_pools(
    bundle: DatasetBundle, profile: Profile, seed: int = 0, pool: Optional[int] = None
) -> AttackData:
    """Member/non-member calibration + evaluation pools for a dataset."""
    pool = pool or profile.attack_pool
    members = bundle.train.shuffled(seed=derive_rng(seed, "pool-m")).take(pool)
    nonmembers = bundle.test.shuffled(seed=derive_rng(seed, "pool-n")).take(pool)
    return AttackData.from_pools(members, nonmembers, seed=derive_rng(seed, "pool-split"))
