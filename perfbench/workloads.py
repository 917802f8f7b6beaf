"""The benchmark's four federations, built from a workload seed.

Every input (data, partitions, model initialisation, cohort sampling, fault
and attacker schedules) derives from the seed alone, so one seed always
builds the same federation and trains it to the same global-state digest.

* ``cip_silo`` / ``cip_silo_pool`` -- the paper's cross-silo setting
  (Fig. 4 / Table XI): four CIP clients on synthetic CIFAR-100 at the quick
  geometry, non-IID, full participation, dense wire, FedAvg.  The pool
  variant runs the identical inputs on the process engine.
* ``cip_cohort`` -- cross-device CIP: 32-client cohorts drawn from a 2,000
  client virtual population on the batched engine, an LRU state store
  smaller than the cohort, and the top-k codec with error feedback.
* ``async_chaos`` -- plain FedAvg over a 1,000-client in-memory virtual
  population on the async engine under the seeded chaos cocktail, with
  sign-flip attackers, streaming screening, trimmed mean, QSGD and periodic
  checkpoints.

The virtual populations draw every client shard and the test split from one
task seed and differ only in the generator ``split``: per-client task seeds
would give every client its own class prototypes and keep global accuracy at
chance.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.attacks.internal import (
    ActiveServerAttack,
    PassiveServerAttack,
    StateEvaluator,
    cip_zero_blend_forward,
)
from repro.core.cip_client import CIPClient
from repro.core.config import (
    ByzantineConfig,
    CheckpointConfig,
    FaultConfig,
    ScreeningConfig,
)
from repro.data.benchmarks import CIFAR100_SPEC, PURCHASE50_SPEC
from repro.data.partition import partition_by_classes
from repro.data.synthetic import (
    TabularSpec,
    generate_image_dataset,
    generate_tabular_dataset,
)
from repro.experiments.common import make_cip_config
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.faults import RetryBackoff
from repro.fl.registry import ClientRegistry, InMemoryStateStore, LRUStateStore
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

# -- cross-silo CIP (Fig. 4 / Table XI) -------------------------------------
SILO_CLIENTS = 4
SILO_CLASSES_PER_CLIENT = 8
SILO_TRAIN_PER_CLASS = 8  # the quick profile's synthetic CIFAR-100 size
#: A test split larger than the quick profile's, so accuracy moves in
#: steps of 1/400 rather than 1/160.
SILO_TEST_PER_CLASS = 20
SILO_ALPHA = 0.5
#: Batch 8 gives five Step-I/Step-II iterations per round on a 40-sample
#: shard, so the model leaves chance accuracy within the round budget.
SILO_BATCH = 8
SILO_SNAPSHOT_TAIL = 3
SILO_ACTIVE_ROUNDS = 2

# -- cross-device CIP cohort ------------------------------------------------
COHORT_POPULATION = 2_000
COHORT_SIZE = 32
#: Fewer hot states than cohort members: every round spills states to disk,
#: and re-sampled clients rehydrate from there.
COHORT_STORE_CAPACITY = 16
#: Evaluation sizes keep ``eval_s`` at a few seconds: a shorter timing sits
#: inside one phase of the host's speed swings and spreads much wider.
COHORT_TEST_PER_CLASS = 40
COHORT_EVAL_CLIENTS = 96
COHORT_TOPK_FRACTION = 0.05

# -- async chaos ------------------------------------------------------------
ASYNC_POPULATION = 1_000
ASYNC_SPEC = TabularSpec(num_classes=10, num_features=32, flip_probability=0.3)
ASYNC_SHARD_PER_CLASS = 5
ASYNC_TEST_PER_CLASS = 100
ASYNC_COHORT = 48
ASYNC_BUFFER = 16
ASYNC_CONCURRENCY = 32
ASYNC_STALENESS_BUDGET = 4
ASYNC_CHECKPOINT_EVERY = 5
ASYNC_EVAL_CLIENTS = 256
#: Every tenth client id flips the sign of its update.
ASYNC_ATTACKER_STRIDE = 10


def _chaos(seed: int) -> FaultConfig:
    """The seeded chaos cocktail: client faults plus wire and checkpoint rot."""
    return FaultConfig(
        crash_rate=0.05,
        transient_rate=0.05,
        straggler_rate=0.05,
        straggler_delay_seconds=3.0,
        jitter_scale=0.2,
        wire_corrupt_rate=0.10,
        checkpoint_corrupt_rate=0.20,
        seed=seed,
    )


#: One warm-up round before the timed ones: pool spawn, lazy workspaces.
WARMUP_ROUNDS = 1

#: Zero backoff: retries never sleep, so wall time is compute only.
NO_SLEEP = RetryBackoff(base_seconds=0.0, factor=1.0, max_seconds=0.0)


@dataclass
class Federation:
    """A built workload: the simulation plus what evaluation needs."""

    sim: FederatedSimulation
    evaluate: Callable[[], Dict[str, float]]
    #: Cohort size of a virtual population (at most this many live clients).
    cohort: Optional[int] = None

    def close(self) -> None:
        self.sim.close()
        self.sim.registry.close()


@dataclass(frozen=True)
class Workload:
    """A workload's builder and how its seconds map to a round budget."""

    name: str
    build: Callable[[int, int, str], Federation]
    #: Nominal wall seconds of one round on the reference host; the round
    #: budget is ``seconds / nominal_round_s``, fixed before the run starts
    #: so every run at one (seed, seconds) trains the same rounds.
    nominal_round_s: float
    min_rounds: int

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, int(round(seconds / self.nominal_round_s)))


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 over a state dict's names, dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def visible_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- cip_silo / cip_silo_pool -------------------------------------------------
def _build_silo(seed: int, total_rounds: int, workdir: str, backend: str) -> Federation:
    train = generate_image_dataset(CIFAR100_SPEC, SILO_TRAIN_PER_CLASS, seed, "train")
    test = generate_image_dataset(CIFAR100_SPEC, SILO_TEST_PER_CLASS, seed, "test")
    shards = partition_by_classes(
        train, SILO_CLIENTS, SILO_CLASSES_PER_CLIENT, seed=derive_rng(seed, "bench-part")
    )
    cip_config = make_cip_config("cifar100", SILO_ALPHA)

    def model_factory():
        return build_model(
            "resnet",
            CIFAR100_SPEC.num_classes,
            dual_channel=True,
            in_channels=CIFAR100_SPEC.channels,
            seed=derive_rng(seed, "bench-model"),
        )

    clients = [
        CIPClient(
            i,
            shards[i],
            model_factory,
            cip_config=cip_config,
            config=ClientConfig(lr=5e-2, batch_size=SILO_BATCH),
            seed=derive_rng(seed, "bench-client", i),
        )
        for i in range(SILO_CLIENTS)
    ]
    executor = make_executor(
        backend=backend,
        num_workers=visible_cpus() if backend == "process" else None,
    )
    sim = FederatedSimulation(
        FLServer(model_factory),
        clients,
        executor=executor,
        snapshot_rounds=range(total_rounds - SILO_SNAPSHOT_TAIL, total_rounds),
    )

    def evaluate() -> Dict[str, float]:
        accuracies = sim.evaluate_clients(test)
        forward = cip_zero_blend_forward(cip_config)
        evaluator = StateEvaluator(model_factory(), forward=forward)
        victim = shards[0]
        pool = min(len(victim) // 2, len(test) // 2)
        members = victim.shuffled(seed=derive_rng(seed, "bench-am"))
        nonmembers = test.shuffled(seed=derive_rng(seed, "bench-an"))
        known_m, eval_m = members.take(2 * pool).split(0.5, seed=derive_rng(seed, "sm"))
        known_n, eval_n = nonmembers.take(2 * pool).split(0.5, seed=derive_rng(seed, "sn"))
        passive = PassiveServerAttack(evaluator, victim_id=0).run(
            sim.history.snapshots, known_m, known_n, eval_m, eval_n
        )
        active = ActiveServerAttack(
            evaluator, model_factory(), victim_id=0, ascent_lr=5e-2, forward=forward
        ).run(sim, members.take(pool), nonmembers.take(pool), SILO_ACTIVE_ROUNDS)
        return {
            "test_acc": float(np.mean(accuracies)),
            "attack_auc_passive": float(passive.auc),
            "attack_auc_active": float(active.auc),
        }

    return Federation(sim=sim, evaluate=evaluate)


# -- cip_cohort ---------------------------------------------------------------
def _build_cohort(seed: int, total_rounds: int, workdir: str) -> Federation:
    spec = PURCHASE50_SPEC
    task_seed = int(derive_rng(seed, "bench-task").integers(2**31))
    cip_config = make_cip_config("purchase50", SILO_ALPHA)
    test = generate_tabular_dataset(spec, COHORT_TEST_PER_CLASS, task_seed, "test")

    def model_factory():
        return build_model(
            "mlp",
            spec.num_classes,
            dual_channel=True,
            in_features=spec.num_features,
            seed=derive_rng(seed, "bench-model"),
        )

    def client_factory(cid: int) -> CIPClient:
        # One sample per class: every shard holds 50 samples of the shared task.
        shard = generate_tabular_dataset(spec, 1, task_seed, f"client-{cid}")
        return CIPClient(
            cid,
            shard,
            model_factory,
            cip_config=cip_config,
            config=ClientConfig(lr=5e-2, batch_size=16),
            seed=derive_rng(seed, "bench-client", cid),
        )

    store = LRUStateStore(
        capacity=COHORT_STORE_CAPACITY, spill_dir=os.path.join(workdir, "spill")
    )
    registry = ClientRegistry(
        client_factory,
        population=COHORT_POPULATION,
        store=store,
        spec={"workload": "cip_cohort", "seed": seed},
    )
    executor = make_executor(
        backend="batched", codec="topk", topk_fraction=COHORT_TOPK_FRACTION
    )
    sim = FederatedSimulation(
        FLServer(model_factory),
        registry=registry,
        clients_per_round=COHORT_SIZE,
        sampling_seed=derive_rng(seed, "bench-sampling"),
        executor=executor,
    )

    def evaluate() -> Dict[str, float]:
        accuracies = sim.evaluate_clients(
            test, sample=COHORT_EVAL_CLIENTS, sample_seed=seed
        )
        return {"test_acc": float(np.mean(accuracies))}

    return Federation(sim=sim, evaluate=evaluate, cohort=COHORT_SIZE)


# -- async_chaos --------------------------------------------------------------
def _build_async(seed: int, total_rounds: int, workdir: str) -> Federation:
    spec = ASYNC_SPEC
    task_seed = int(derive_rng(seed, "bench-task").integers(2**31))
    test = generate_tabular_dataset(spec, ASYNC_TEST_PER_CLASS, task_seed, "test")

    def model_factory():
        return build_model(
            "mlp",
            spec.num_classes,
            in_features=spec.num_features,
            hidden=(64,),
            seed=derive_rng(seed, "bench-model"),
        )

    def client_factory(cid: int) -> FLClient:
        shard = generate_tabular_dataset(
            spec, ASYNC_SHARD_PER_CLASS, task_seed, f"client-{cid}"
        )
        return FLClient(
            cid,
            shard,
            model_factory,
            ClientConfig(lr=5e-2, batch_size=16),
            seed=derive_rng(seed, "bench-client", cid),
        )

    registry = ClientRegistry(
        client_factory,
        population=ASYNC_POPULATION,
        store=InMemoryStateStore(),
        spec={"workload": "async_chaos", "seed": seed},
    )
    attackers = tuple(range(0, ASYNC_POPULATION, ASYNC_ATTACKER_STRIDE))
    executor = make_executor(
        backend="async",
        fault_config=_chaos(seed),
        max_retries=2,
        backoff=NO_SLEEP,
        client_timeout=2.0,
        min_participation=0.25,
        byzantine_config=ByzantineConfig(attack="sign_flip", clients=attackers, seed=seed),
        buffer_size=ASYNC_BUFFER,
        concurrency=ASYNC_CONCURRENCY,
        staleness_budget=ASYNC_STALENESS_BUDGET,
        # Sign-flipped deltas score a cosine near -1.  A cutoff at 0 also
        # quarantines late-training honest deltas until a step loses its
        # quorum, so the rule sits halfway.
        screening=ScreeningConfig(min_cosine=-0.5),
        codec="qsgd",
        codec_seed=seed,
    )
    server = FLServer(
        model_factory, aggregator="trimmed_mean", aggregator_options={"trim_fraction": 0.1}
    )
    sim = FederatedSimulation(
        server,
        registry=registry,
        clients_per_round=ASYNC_COHORT,
        sampling_seed=derive_rng(seed, "bench-sampling"),
        executor=executor,
        checkpoint=CheckpointConfig(
            directory=os.path.join(workdir, "checkpoints"),
            every=ASYNC_CHECKPOINT_EVERY,
            keep=2,
        ),
    )

    def evaluate() -> Dict[str, float]:
        accuracies = sim.evaluate_clients(
            test, sample=ASYNC_EVAL_CLIENTS, sample_seed=seed
        )
        return {"test_acc": float(np.mean(accuracies))}

    return Federation(sim=sim, evaluate=evaluate)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "cip_silo",
            lambda seed, rounds, workdir: _build_silo(seed, rounds, workdir, "sequential"),
            nominal_round_s=1.6,
            min_rounds=SILO_SNAPSHOT_TAIL + 1,
        ),
        Workload(
            "cip_silo_pool",
            lambda seed, rounds, workdir: _build_silo(seed, rounds, workdir, "process"),
            # The pool runs cip_silo's exact round budget (same digest).
            nominal_round_s=1.6,
            min_rounds=SILO_SNAPSHOT_TAIL + 1,
        ),
        Workload("cip_cohort", _build_cohort, nominal_round_s=0.9, min_rounds=4),
        Workload("async_chaos", _build_async, nominal_round_s=0.14, min_rounds=20),
    )
}
