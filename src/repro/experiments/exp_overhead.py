"""Table XI: CIP's overhead — parameter count, epochs to converge, and the
round-execution cost of the federated loop (RQ5)."""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.core.perturbation import Perturbation
from repro.core.trainer import CIPTrainer
from repro.data.partition import partition_iid
from repro.data.synthetic import TabularSpec, generate_tabular_dataset
from repro.experiments.common import get_bundle, make_cip_config
from repro.experiments.profiles import Profile
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.fl.training import evaluate_model, train_supervised
from repro.nn.models import build_model
from repro.nn.optim import SGD
from repro.utils.rng import derive_rng

ARCHITECTURES = ("resnet", "densenet", "vgg")
CONVERGENCE_TRAIN_ACC = 0.9
MAX_EPOCHS = 60


def _epochs_to_converge_legacy(bundle, architecture: str, seed: int = 0) -> Optional[int]:
    model = build_model(
        architecture,
        bundle.num_classes,
        in_channels=bundle.train.inputs.shape[1],
        seed=derive_rng(seed, "conv-legacy", architecture),
    )
    optimizer = SGD(model.parameters(), lr=5e-2, momentum=0.9)
    for epoch in range(1, MAX_EPOCHS + 1):
        train_supervised(
            model, bundle.train, optimizer, epochs=1, batch_size=32,
            seed=derive_rng(seed, "cl", epoch),
        )
        if evaluate_model(model, bundle.train).accuracy >= CONVERGENCE_TRAIN_ACC:
            return epoch
    return None


def _epochs_to_converge_cip(bundle, architecture: str, seed: int = 0) -> Optional[int]:
    config = make_cip_config("cifar100", alpha=0.5)
    model = build_model(
        architecture,
        bundle.num_classes,
        dual_channel=True,
        in_channels=bundle.train.inputs.shape[1],
        seed=derive_rng(seed, "conv-cip", architecture),
    )
    perturbation = Perturbation(
        bundle.train.input_shape, config, seed=derive_rng(seed, "conv-t")
    )
    optimizer = SGD(model.parameters(), lr=5e-2, momentum=0.9)
    trainer = CIPTrainer(model, perturbation, optimizer, config=config)
    for epoch in range(1, MAX_EPOCHS + 1):
        trainer.train_epoch(bundle.train, batch_size=32, seed=derive_rng(seed, "cc", epoch))
        if trainer.evaluate(bundle.train).accuracy >= CONVERGENCE_TRAIN_ACC:
            return epoch
    return None


@register("table11", "Overhead: parameters and epochs to converge", "Table XI")
def table11(profile: Profile) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table11",
        title="Model-size and convergence overhead of CIP (dual channel, shared backbone)",
        columns=[
            "model",
            "params_no_defense",
            "params_cip",
            "param_overhead_pct",
            "epochs_no_defense",
            "epochs_cip",
        ],
    )
    bundle = get_bundle("cifar100", profile)
    in_channels = bundle.train.inputs.shape[1]
    for architecture in ARCHITECTURES:
        single = build_model(
            architecture, bundle.num_classes, in_channels=in_channels, seed=0
        )
        dual = build_model(
            architecture, bundle.num_classes, dual_channel=True, in_channels=in_channels, seed=0
        )
        params_single = single.num_parameters()
        params_dual = dual.num_parameters()
        epochs_legacy = _epochs_to_converge_legacy(bundle, architecture)
        epochs_cip = _epochs_to_converge_cip(bundle, architecture)
        result.add_row(
            model=architecture,
            params_no_defense=params_single,
            params_cip=params_dual,
            param_overhead_pct=100.0 * (params_dual - params_single) / params_single,
            epochs_no_defense=epochs_legacy if epochs_legacy is not None else f">{MAX_EPOCHS}",
            epochs_cip=epochs_cip if epochs_cip is not None else f">{MAX_EPOCHS}",
        )
    result.add_note("paper: +0.87% parameters (the widened dense head); half the epochs")
    return result


def _round_timing_federation(num_clients: int, seed: int = 0):
    """A small synthetic federation used purely for timing rounds."""
    spec = TabularSpec(num_classes=8, num_features=64, flip_probability=0.1)
    dataset = generate_tabular_dataset(spec, samples_per_class=32, seed=seed)
    shards = partition_iid(dataset, num_clients, seed=derive_rng(seed, "t11b"))

    def factory():
        return build_model("mlp", spec.num_classes, in_features=spec.num_features,
                           hidden=(64,), seed=derive_rng(seed, "t11b-m"))

    server = FLServer(factory)
    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=5e-2),
                 seed=derive_rng(seed, "t11b-c", i))
        for i in range(num_clients)
    ]
    return server, clients


@register("table11b", "Overhead: round execution timing per backend", "Table XI")
def table11b(profile: Profile) -> ExperimentResult:
    """Per-round wall clock, client compute, and wire traffic per backend.

    Complements the parameter/epoch overhead of Table XI with the execution
    telemetry now recorded in :class:`repro.fl.simulation.FLHistory`: the
    sequential engine's wall clock equals the sum of client compute, while
    the process engine's wall clock approaches ``compute / num_workers`` on
    multi-core hosts.
    """
    result = ExperimentResult(
        experiment_id="table11b",
        title="FedAvg round execution cost: sequential vs process backend",
        columns=[
            "backend",
            "clients",
            "rounds_per_sec",
            "mean_round_sec",
            "client_compute_sec",
            "mb_broadcast",
            "mb_aggregated",
        ],
    )
    rounds = max(2, min(profile.fl_rounds, 6))
    num_clients = max(profile.client_counts)
    workers = min(num_clients, os.cpu_count() or 1)
    for backend in ("sequential", "process"):
        # Only the process engine reads num_workers.
        knobs = {"num_workers": workers} if backend == "process" else {}
        executor = make_executor(backend=backend, **knobs)
        with FederatedSimulation(
            *_round_timing_federation(num_clients), executor=executor
        ) as simulation:
            simulation.run(rounds)
        metrics = simulation.history.round_metrics
        mean_round = simulation.history.mean_round_seconds()
        result.add_row(
            backend=backend,
            clients=num_clients,
            rounds_per_sec=(1.0 / mean_round) if mean_round > 0 else float("inf"),
            mean_round_sec=mean_round,
            client_compute_sec=float(
                np.mean([m.total_compute_seconds for m in metrics])
            ),
            mb_broadcast=sum(m.bytes_broadcast for m in metrics) / 1e6,
            mb_aggregated=sum(m.bytes_aggregated for m in metrics) / 1e6,
        )
    result.add_note(
        f"{workers} worker(s) on {os.cpu_count()} core(s); both backends are "
        "bitwise-identical for seeded runs (see DESIGN.md: executor architecture)"
    )
    return result
