"""Client virtualization.

The acceptance contract of the scaling layer (see ``repro.fl.registry``
and DESIGN.md's scaling section):

* a virtualized run is bit-identical to the live-object run on the same
  sampled cohorts, on every execution backend;
* state-store evict/rehydrate is bit-identical — CIP perturbation state,
  SGD momentum, and top-k wire residuals all survive a disk round-trip;
* sparse id spaces (ids nowhere near contiguous) work through rounds,
  history, and evaluation;
* virtualized checkpoint/resume — including spilled states — is
  bit-identical, and live/virtual checkpoints refuse to cross-restore;
* chaos (wire corruption) quarantines identically under virtualization.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.cip_client import CIPClient
from repro.core.config import CheckpointConfig, CIPConfig, FaultConfig
from repro.data.partition import partition_iid
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.registry import (
    ClientRegistry,
    InMemoryStateStore,
    LRUStateStore,
    make_state_store,
    mutable_state_nbytes,
)
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

BACKENDS = ("sequential", "process", "batched", "async")


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _dual_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), dual_channel=True, seed=0)


def _shard_map(dataset, ids):
    shards = partition_iid(dataset, len(ids), seed=0)
    return dict(zip(ids, shards))


def _client_factory(shards, lr=0.05):
    """Factory building client ``cid`` purely from ``(seed, cid)``."""

    def factory(cid):
        return FLClient(
            cid, shards[cid], _mlp_factory, ClientConfig(lr=lr),
            seed=derive_rng(7, "virt", cid),
        )

    return factory


def _digest(state):
    digest = hashlib.sha256()
    for key in sorted(state):
        value = np.ascontiguousarray(state[key])
        digest.update(key.encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


def _assert_mutable_states_equal(a, b):
    _assert_states_equal(a.model_state, b.model_state)
    assert a.round_index == b.round_index
    assert a.optimizer_state["lr"] == b.optimizer_state["lr"]
    velocity_a = a.optimizer_state["velocity"]
    velocity_b = b.optimizer_state["velocity"]
    assert velocity_a.keys() == velocity_b.keys()
    for key in velocity_a:
        assert np.array_equal(velocity_a[key], velocity_b[key]), key
    if a.seed_rng is not None or b.seed_rng is not None:
        assert a.seed_rng.bit_generator.state == b.seed_rng.bit_generator.state
    if a.wire_residual is not None or b.wire_residual is not None:
        _assert_states_equal(a.wire_residual, b.wire_residual)
    assert a.extra.keys() == b.extra.keys()
    for key, value in a.extra.items():
        other = b.extra[key]
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), key
        elif isinstance(value, dict) and "velocity" in value:
            for pkey in value["velocity"]:
                assert np.array_equal(
                    value["velocity"][pkey], other["velocity"][pkey]
                ), (key, pkey)
        else:
            assert value == other, key


class TestRegistrySemantics:
    def _registry(self, dataset, population=4, **kwargs):
        factory = _client_factory(_shard_map(dataset, range(population)))
        return ClientRegistry(factory, population=population, **kwargs)

    def test_double_checkout_raises(self, tiny_vector_dataset):
        registry = self._registry(tiny_vector_dataset)
        client = registry.checkout(0)
        with pytest.raises(RuntimeError):
            registry.checkout(0)
        registry.release(client)
        registry.checkout(0)  # released -> available again

    def test_release_is_idempotent(self, tiny_vector_dataset):
        registry = self._registry(tiny_vector_dataset)
        client = registry.checkout(1)
        registry.release(client)
        registry.release(client)  # no-op, not an error
        assert registry.store.client_ids() == [1]

    def test_materialize_for_read_leaves_store_untouched(self, tiny_vector_dataset):
        registry = self._registry(tiny_vector_dataset)
        client = registry.checkout(2)
        client.local_update()
        registry.release(client)
        before = registry.store.peek(2).clone()
        reader = registry.materialize_for_read(2)
        reader.local_update()  # training the throwaway copy
        _assert_mutable_states_equal(before, registry.store.peek(2))

    def test_cohort_bounds_live_clients(self, tiny_vector_dataset):
        registry = self._registry(tiny_vector_dataset, population=8)
        server = FLServer(_mlp_factory)
        with FederatedSimulation(
            server, registry=registry, clients_per_round=3, sampling_seed=0
        ) as sim:
            sim.run(3)
        assert registry.max_live <= 3
        assert registry.materialized_total == 9

    def test_sparse_ids_run_and_record(self, tiny_vector_dataset):
        ids = [3, 17, 1_000_003]
        factory = _client_factory(_shard_map(tiny_vector_dataset, ids))
        registry = ClientRegistry(factory, client_ids=ids)
        server = FLServer(_mlp_factory)
        with FederatedSimulation(server, registry=registry) as sim:
            sim.run(2)
            accuracies = sim.evaluate_clients(tiny_vector_dataset)
        assert sim.history.participating_clients() == ids
        assert set(sim.history.train_losses[0]) == set(ids)
        series = sim.history.client_loss_series(1_000_003)
        assert series.shape == (2,)
        assert len(accuracies) == 3
        registry.close()

    def test_evaluate_clients_sample_cap(self, tiny_vector_dataset):
        registry = self._registry(tiny_vector_dataset, population=6)
        server = FLServer(_mlp_factory)
        with FederatedSimulation(server, registry=registry) as sim:
            sim.run(1)
            sampled = sim.evaluate_clients(tiny_vector_dataset, sample=2)
            everyone = sim.evaluate_clients(tiny_vector_dataset, sample=100)
            with pytest.raises(ValueError):
                sim.evaluate_clients(tiny_vector_dataset, sample=0)
        assert len(sampled) == 2
        assert len(everyone) == 6


class TestLiveVirtualIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_virtual_matches_live_cohorts(self, tiny_vector_dataset, backend):
        population, cohort, rounds = 6, 3, 2
        shards = _shard_map(tiny_vector_dataset, range(population))
        factory = _client_factory(shards)
        results = []
        for virtual in (False, True):
            kwargs = {"num_workers": 2} if backend == "process" else {}
            executor = make_executor(backend=backend, **kwargs)
            server = FLServer(_mlp_factory)
            if virtual:
                sim_kwargs = {"registry": ClientRegistry(factory, population=population)}
            else:
                sim_kwargs = {"clients": [factory(i) for i in range(population)]}
            with FederatedSimulation(
                server,
                executor=executor,
                clients_per_round=cohort,
                sampling_seed=11,
                **sim_kwargs,
            ) as sim:
                sim.run(rounds)
            results.append((_digest(server.global_state()), sim.history.train_losses))
        (live_digest, live_losses), (virtual_digest, virtual_losses) = results
        assert live_digest == virtual_digest
        assert live_losses == virtual_losses


class TestStateStoreBitIdentity:
    def test_lru_spill_rehydrate_roundtrip(self, tiny_vector_dataset, tmp_path):
        """Momentum, RNG streams, and extras survive eviction bitwise."""
        shards = _shard_map(tiny_vector_dataset, range(3))
        factory = _client_factory(shards)
        reference = {}
        store = LRUStateStore(capacity=1, spill_dir=str(tmp_path))
        for cid in range(3):
            client = factory(cid)
            client.local_update()
            state = client.get_mutable_state().clone()
            reference[cid] = state.clone()
            store.put(cid, state)
        assert store.evictions >= 2  # capacity 1 spilled the earlier clients
        assert len(store.spill_manifest()) >= 2
        for cid in range(3):
            _assert_mutable_states_equal(reference[cid], store.pop(cid))
        assert store.rehydrations >= 2
        store.close()

    def _run_virtual(self, dataset, store, rounds=3, codec="none", clients=None):
        ids = range(6)
        factory = clients or _client_factory(_shard_map(dataset, ids))
        registry = ClientRegistry(factory, population=6, store=store)
        executor = make_executor(backend="sequential", codec=codec)
        server = FLServer(_mlp_factory if clients is None else _dual_factory)
        with FederatedSimulation(
            server, registry=registry, executor=executor,
            clients_per_round=3, sampling_seed=5,
        ) as sim:
            sim.run(rounds)
        snapshot = registry.store.snapshot_all()
        digest = _digest(server.global_state())
        registry.close()
        return digest, snapshot

    def test_lru_run_matches_memory_run(self, tiny_vector_dataset, tmp_path):
        memory_digest, memory_states = self._run_virtual(
            tiny_vector_dataset, InMemoryStateStore()
        )
        lru = LRUStateStore(capacity=1, spill_dir=str(tmp_path))
        lru_digest, lru_states = self._run_virtual(tiny_vector_dataset, lru)
        assert memory_digest == lru_digest
        assert memory_states.keys() == lru_states.keys()
        for cid in memory_states:
            _assert_mutable_states_equal(memory_states[cid], lru_states[cid])

    def test_topk_wire_residual_survives_eviction(self, tiny_vector_dataset, tmp_path):
        memory_digest, memory_states = self._run_virtual(
            tiny_vector_dataset, InMemoryStateStore(), codec="topk"
        )
        lru = LRUStateStore(capacity=1, spill_dir=str(tmp_path))
        lru_digest, lru_states = self._run_virtual(
            tiny_vector_dataset, lru, codec="topk"
        )
        assert memory_digest == lru_digest
        assert any(s.wire_residual is not None for s in memory_states.values())
        for cid in memory_states:
            _assert_mutable_states_equal(memory_states[cid], lru_states[cid])

    def test_cip_perturbation_survives_eviction(self, tiny_vector_dataset, tmp_path):
        shards = _shard_map(tiny_vector_dataset, range(6))
        cip = CIPConfig(alpha=0.5, clip_range=None)

        def factory(cid):
            return CIPClient(
                cid, shards[cid], _dual_factory, cip_config=cip,
                config=ClientConfig(lr=0.05), seed=derive_rng(7, "virt-cip", cid),
            )

        memory_digest, memory_states = self._run_virtual(
            tiny_vector_dataset, InMemoryStateStore(), clients=factory
        )
        lru = LRUStateStore(capacity=1, spill_dir=str(tmp_path))
        lru_digest, lru_states = self._run_virtual(
            tiny_vector_dataset, lru, clients=factory
        )
        assert memory_digest == lru_digest
        for cid, state in memory_states.items():
            assert "perturbation_t" in state.extra
            _assert_mutable_states_equal(state, lru_states[cid])

    def test_state_nbytes_counts_arrays(self, tiny_vector_dataset):
        factory = _client_factory(_shard_map(tiny_vector_dataset, range(1)))
        client = factory(0)
        client.local_update()
        nbytes = mutable_state_nbytes(client.get_mutable_state())
        model_bytes = sum(v.nbytes for v in client.model.state_dict().values())
        assert nbytes >= 2 * model_bytes  # weights + momentum at least


class TestVirtualCheckpoint:
    def _build(self, dataset, directory, store=None):
        factory = _client_factory(_shard_map(dataset, range(6)))
        registry = ClientRegistry(
            factory, population=6,
            store=store if store is not None else InMemoryStateStore(),
            spec={"suite": "virt-ckpt"},
        )
        server = FLServer(_mlp_factory)
        return FederatedSimulation(
            server, registry=registry,
            clients_per_round=3, sampling_seed=3,
            checkpoint=CheckpointConfig(directory=str(directory), every=1, keep=0),
        )

    def test_resume_with_spilled_states_is_bit_identical(self, tiny_vector_dataset, tmp_path):
        uninterrupted_dir = tmp_path / "a"
        with self._build(tiny_vector_dataset, uninterrupted_dir) as sim:
            sim.run(4)
        expected = _digest(sim.server.global_state())

        resumed_dir = tmp_path / "b"
        lru = LRUStateStore(capacity=1, spill_dir=str(tmp_path / "spill"))
        with self._build(tiny_vector_dataset, resumed_dir, store=lru) as sim:
            sim.run(2)
        assert lru.spill_manifest()  # the checkpoint had spilled clients
        fresh_lru = LRUStateStore(capacity=1, spill_dir=str(tmp_path / "spill2"))
        with self._build(tiny_vector_dataset, resumed_dir, store=fresh_lru) as sim:
            sim.resume(4)
        assert _digest(sim.server.global_state()) == expected

    def test_live_and_virtual_checkpoints_refuse_to_cross(self, tiny_vector_dataset, tmp_path):
        virtual_dir = tmp_path / "virtual"
        with self._build(tiny_vector_dataset, virtual_dir) as sim:
            sim.run(1)
        factory = _client_factory(_shard_map(tiny_vector_dataset, range(6)))
        live = FederatedSimulation(
            FLServer(_mlp_factory),
            clients=[factory(i) for i in range(6)],
            clients_per_round=3,
            sampling_seed=3,
            checkpoint=CheckpointConfig(directory=str(virtual_dir), every=1),
        )
        with live, pytest.raises(ValueError, match="virtual"):
            live.resume(2)

        live_dir = tmp_path / "live"
        live2 = FederatedSimulation(
            FLServer(_mlp_factory),
            clients=[factory(i) for i in range(6)],
            clients_per_round=3,
            sampling_seed=3,
            checkpoint=CheckpointConfig(directory=str(live_dir), every=1),
        )
        with live2:
            live2.run(1)
        with self._build(tiny_vector_dataset, live_dir) as sim, pytest.raises(
            ValueError, match="live"
        ):
            sim.resume(2)

    def test_spec_digest_mismatch_refused(self, tiny_vector_dataset, tmp_path):
        with self._build(tiny_vector_dataset, tmp_path) as sim:
            sim.run(1)
        factory = _client_factory(_shard_map(tiny_vector_dataset, range(6)))
        other = ClientRegistry(
            factory, population=6, spec={"suite": "different-population"}
        )
        mismatched = FederatedSimulation(
            FLServer(_mlp_factory), registry=other,
            clients_per_round=3, sampling_seed=3,
            checkpoint=CheckpointConfig(directory=str(tmp_path), every=1),
        )
        with mismatched, pytest.raises(ValueError, match="digest"):
            mismatched.resume(2)


class TestChaosUnderVirtualization:
    def test_wire_quarantine_matches_live(self, tiny_vector_dataset):
        """The stateless fault schedule keys on (round, client, attempt), so
        virtualization must reproduce the live run's quarantines and bits."""
        shards = _shard_map(tiny_vector_dataset, range(6))
        factory = _client_factory(shards)
        faults = FaultConfig(wire_corrupt_rate=0.4, seed=13)
        results = []
        for virtual in (False, True):
            executor = make_executor(
                backend="sequential", fault_config=faults, min_participation=0.25
            )
            server = FLServer(_mlp_factory)
            if virtual:
                sim_kwargs = {"registry": ClientRegistry(factory, population=6)}
            else:
                sim_kwargs = {"clients": [factory(i) for i in range(6)]}
            with FederatedSimulation(server, executor=executor, **sim_kwargs) as sim:
                sim.run(3)
            rejected = [m.rejected_clients for m in sim.history.round_metrics]
            results.append((_digest(server.global_state()), rejected))
        (live_digest, live_rejected), (virtual_digest, virtual_rejected) = results
        assert any(live_rejected), "rate 0.4 over 18 deliveries should quarantine"
        assert all(
            reason == "wire_corrupt"
            for per_round in live_rejected
            for reason in per_round.values()
        )
        assert virtual_rejected == live_rejected
        assert virtual_digest == live_digest
