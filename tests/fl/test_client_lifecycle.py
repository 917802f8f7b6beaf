"""Where a virtual client's state lives while the coordinator runs.

* The async engine checks a client out when it dispatches one of the
  client's tasks and releases it once the task has run: every
  materialization is a dispatched task, at most one client is live, and
  the store holds only clients that were dispatched.  The virtual run still
  matches the live one step for step and resumes bitwise.
* A checkpoint reads the state store in place: saving leaves an LRU
  store's counters, hot-tier order and spill files as they were, and a run
  resumed from that checkpoint is bitwise the uninterrupted one.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.config import (
    ByzantineConfig,
    CheckpointConfig,
    FaultConfig,
    ScreeningConfig,
)
from repro.data.partition import partition_iid
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.registry import ClientRegistry, InMemoryStateStore, LRUStateStore
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

POPULATION = 8


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _client_factory(dataset):
    shards = partition_iid(dataset, POPULATION, seed=0)

    def factory(cid):
        return FLClient(
            cid, shards[cid], _mlp_factory, ClientConfig(lr=0.05),
            seed=derive_rng(7, "lifecycle", cid),
        )

    return factory


def _digest(state):
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


def _steps(history):
    """Per step: the admitted clients and the dropped, quarantined (with
    anomaly scores) and stale ones."""
    return [
        (
            sorted(losses),
            dict(metrics.dropped_clients),
            dict(metrics.rejected_clients),
            {cid: score.hex() for cid, score in metrics.anomaly_scores.items()},
            dict(metrics.stale_clients),
        )
        for losses, metrics in zip(history.train_losses, history.round_metrics)
    ]


class TestAsyncDispatchCheckout:
    """A cohort of 6 behind a concurrency cap of 2, under crashes,
    stragglers, two sign-flip attackers, admission screening and a
    staleness budget."""

    def _sim(self, dataset, virtual, directory=None):
        executor = make_executor(
            backend="async",
            buffer_size=2,
            concurrency=2,
            staleness_budget=0,
            min_participation=0.25,
            fault_config=FaultConfig(
                crash_rate=0.1,
                straggler_rate=0.3,
                straggler_delay_seconds=2.0,
                jitter_scale=0.3,
                seed=5,
            ),
            byzantine_config=ByzantineConfig(
                attack="sign_flip", clients=(1, 4), scale=3.0, seed=9
            ),
            screening=ScreeningConfig(),
            screen_window=8,
        )
        factory = _client_factory(dataset)
        population = (
            {"registry": ClientRegistry(factory, population=POPULATION)}
            if virtual
            else {"clients": [factory(cid) for cid in range(POPULATION)]}
        )
        checkpoint = (
            CheckpointConfig(directory=str(directory), every=4)
            if directory is not None
            else None
        )
        return FederatedSimulation(
            FLServer(_mlp_factory),
            executor=executor,
            clients_per_round=6,
            sampling_seed=3,
            checkpoint=checkpoint,
            **population,
        )

    def test_only_dispatched_clients_are_materialized(self, tiny_vector_dataset):
        with self._sim(tiny_vector_dataset, virtual=True) as sim:
            sim.run(10)
        history = sim.history
        dispatched = sim.executor.export_state()["task_count"]
        registry = sim.registry
        assert registry.materialized_total == sum(dispatched.values())
        assert registry.max_live == 1
        assert registry.store.client_ids() == sorted(dispatched)
        # The run exercised every path that ends a task.
        assert any(m.dropped_clients for m in history.round_metrics)
        assert any(m.rejected_clients for m in history.round_metrics)
        assert any(m.stale_clients for m in history.round_metrics)

        with self._sim(tiny_vector_dataset, virtual=False) as live:
            live.run(10)
        assert _digest(sim.server.global_state()) == _digest(live.server.global_state())
        assert _steps(history) == _steps(live.history)

    def test_resume_from_a_mid_run_checkpoint_is_bitwise(
        self, tiny_vector_dataset, tmp_path
    ):
        with self._sim(tiny_vector_dataset, virtual=True) as reference:
            reference.run(10)
        directory = tmp_path / "ckpt"
        with self._sim(tiny_vector_dataset, virtual=True, directory=directory) as sim:
            sim.run(6)  # dies two steps past the checkpoint of step 4
        with self._sim(tiny_vector_dataset, virtual=True, directory=directory) as sim:
            sim.resume(10)
        assert _digest(sim.server.global_state()) == _digest(
            reference.server.global_state()
        )
        assert _steps(sim.history) == _steps(reference.history)


class TestCheckpointReadsTheStoreInPlace:
    def _sim(self, dataset, store):
        registry = ClientRegistry(
            _client_factory(dataset), population=POPULATION, store=store,
            spec={"suite": "lifecycle"},
        )
        return FederatedSimulation(
            FLServer(_mlp_factory), registry=registry,
            clients_per_round=4, sampling_seed=3,
        )

    @staticmethod
    def _store_view(store):
        spilled = store.spill_manifest()
        files = {}
        for _, path in spilled:
            with open(path, "rb") as handle:
                files[path] = handle.read()
        return store.evictions, store.rehydrations, list(store._hot), spilled, files

    def test_save_leaves_an_lru_store_as_it_was(self, tiny_vector_dataset, tmp_path):
        with self._sim(tiny_vector_dataset, InMemoryStateStore()) as reference:
            reference.run(5)

        store = LRUStateStore(capacity=2, spill_dir=str(tmp_path / "spill"))
        with self._sim(tiny_vector_dataset, store) as sim:
            sim.run(3)
            before = self._store_view(store)
            assert len(before[3]) >= 4  # most dirty states are on disk
            path = sim.save_checkpoint(str(tmp_path / "ckpt"))
            assert self._store_view(store) == before
            sim.run(2)
        expected = _digest(reference.server.global_state())
        assert _digest(sim.server.global_state()) == expected

        fresh = LRUStateStore(capacity=2, spill_dir=str(tmp_path / "spill2"))
        with self._sim(tiny_vector_dataset, fresh) as resumed:
            resumed.restore(path)
            resumed.run(2)
        assert _digest(resumed.server.global_state()) == expected
        assert resumed.history.train_losses == reference.history.train_losses
