"""Round-execution engines: parallel/sequential equivalence and failure modes.

The headline guarantee of :mod:`repro.fl.executor` is that the process-pool
engine is an *implementation detail*: a seeded federation run under
``ParallelExecutor`` must produce bitwise-identical global weights and the
identical loss history to ``SequentialExecutor``.  These tests pin that down
for both plain :class:`FLClient` federations and CIP federations (whose
clients carry secret perturbation state across rounds), and check that worker
crashes and hangs surface as :class:`RoundExecutionError` instead of
corrupting or stalling the simulation.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.cip_client import CIPClient
from repro.core.config import (
    ByzantineConfig,
    CIPConfig,
    ExecutionConfig,
    ScreeningConfig,
)
from repro.data.dataset import Dataset
from repro.data.partition import partition_iid
from repro.fl import executor as executor_module
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import (
    ParallelExecutor,
    RoundExecutionError,
    SequentialExecutor,
    make_executor,
)
from repro.fl.registry import ClientRegistry
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.nn.optim import SGD, Adam
from repro.nn.serialization import pack_state_dict, unpack_state_dict
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _dual_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), dual_channel=True, seed=0)


class _CrashingClient(FLClient):
    """Raises inside local_update — must be module-level to be picklable."""

    def local_update(self):
        raise RuntimeError("boom")


class _HangingClient(FLClient):
    """Never returns from local_update within any reasonable round budget."""

    def local_update(self):
        time.sleep(60)
        raise AssertionError("unreachable")


def _build_clients(dataset, num_clients, client_cls=FLClient, **kwargs):
    shards = partition_iid(dataset, num_clients, seed=0)
    return [
        client_cls(
            i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "exec", i), **kwargs,
        )
        for i in range(num_clients)
    ]


def _run_federation(dataset, executor, rounds=3, num_clients=4):
    server = FLServer(_mlp_factory)
    clients = _build_clients(dataset, num_clients)
    with FederatedSimulation(server, clients, executor=executor) as sim:
        sim.run(rounds)
    return server.global_state(), sim.history


def _run_cip_federation(dataset, executor, rounds=2, num_clients=2):
    shards = partition_iid(dataset, num_clients, seed=0)
    config = CIPConfig(alpha=0.5, clip_range=None)
    server = FLServer(_dual_factory)
    clients = [
        CIPClient(
            i, shards[i], _dual_factory, cip_config=config,
            config=ClientConfig(lr=0.05), seed=derive_rng(7, "cip", i),
        )
        for i in range(num_clients)
    ]
    with FederatedSimulation(server, clients, executor=executor) as sim:
        sim.run(rounds)
    perturbations = [client.perturbation.value.copy() for client in clients]
    return server.global_state(), sim.history, perturbations


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert state_a[key].dtype == state_b[key].dtype, key
        assert np.array_equal(state_a[key], state_b[key]), key


class TestDeterminism:
    def test_parallel_matches_sequential_bitwise(self, tiny_vector_dataset):
        seq_state, seq_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor()
        )
        par_state, par_history = _run_federation(
            tiny_vector_dataset, ParallelExecutor(num_workers=2)
        )
        _assert_states_equal(seq_state, par_state)
        assert seq_history.train_losses == par_history.train_losses

    def test_parallel_matches_sequential_cip(self, tiny_vector_dataset):
        seq_state, seq_history, seq_t = _run_cip_federation(
            tiny_vector_dataset, SequentialExecutor()
        )
        par_state, par_history, par_t = _run_cip_federation(
            tiny_vector_dataset, ParallelExecutor(num_workers=2)
        )
        _assert_states_equal(seq_state, par_state)
        assert seq_history.train_losses == par_history.train_losses
        # The perturbations evolve in the workers (Step I runs inside
        # local_update); their round-tripped values must match too.
        for t_seq, t_par in zip(seq_t, par_t):
            assert np.array_equal(t_seq, t_par)


class TestFailureModes:
    def test_worker_crash_raises_clear_error(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 2, client_cls=_CrashingClient)
        with FederatedSimulation(
            server, clients, executor=ParallelExecutor(num_workers=2)
        ) as sim:
            with pytest.raises(RoundExecutionError, match="client 0"):
                sim.run_round()

    def test_round_timeout_raises_instead_of_hanging(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 2, client_cls=_HangingClient)
        start = time.monotonic()
        with FederatedSimulation(
            server,
            clients,
            executor=ParallelExecutor(num_workers=2, round_timeout=1.5),
        ) as sim:
            with pytest.raises(RoundExecutionError, match="timed out"):
                sim.run_round()
        assert time.monotonic() - start < 30.0

    def test_sequential_wraps_client_failure(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 2, client_cls=_CrashingClient)
        sim = FederatedSimulation(server, clients, executor=SequentialExecutor())
        with pytest.raises(RoundExecutionError, match="client 0"):
            sim.run_round()

    @pytest.mark.parametrize(
        "settings", [{}, {"max_retries": 2}], ids=["fail-fast", "retries"]
    )
    def test_unpicklable_client_is_named(self, tiny_vector_dataset, settings):
        # A client crosses to its worker pickled; a closure cannot, and no
        # retry can mend that.
        clients = _build_clients(tiny_vector_dataset, 2, augment=lambda inputs: inputs)
        executor = ParallelExecutor(num_workers=2, **settings)
        server = FLServer(_mlp_factory)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            with pytest.raises(RoundExecutionError, match="not picklable"):
                sim.run_round()


class TestPoolLifetime:
    def test_virtual_cohorts_share_one_pool(self, tiny_vector_dataset, monkeypatch):
        # Every round checks out a fresh cohort of objects; the pool lives
        # for the whole run regardless.
        starts = []

        class CountingPool(executor_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
        shards = partition_iid(tiny_vector_dataset, 6, seed=0)

        def factory(cid):
            return FLClient(
                cid, shards[cid], _mlp_factory, config=ClientConfig(lr=0.05),
                seed=derive_rng(7, "virtual", cid),
            )

        states = []
        for executor in (SequentialExecutor(), ParallelExecutor(num_workers=2)):
            server = FLServer(_mlp_factory)
            with FederatedSimulation(
                server,
                registry=ClientRegistry(factory, population=6),
                executor=executor,
                clients_per_round=3,
                sampling_seed=5,
            ) as sim:
                sim.run(3)
            states.append(server.global_state())
        _assert_states_equal(*states)
        assert len(starts) == 1

    def test_refused_aggregation_closes_the_pool(self, tiny_vector_dataset):
        # Screening quarantines the NaN bomber, and the server refuses to
        # aggregate without it; the run must not leave the pool running.
        shards = partition_iid(tiny_vector_dataset, 6, seed=0)
        clients = [
            FLClient(i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05), seed=i)
            for i in range(6)
        ]
        executor = ParallelExecutor(
            num_workers=2,
            byzantine_config=ByzantineConfig(attack="nan_bomb", clients=(1,)),
        )
        sim = FederatedSimulation(
            FLServer(_mlp_factory, screening=ScreeningConfig()), clients,
            executor=executor,
        )
        with pytest.raises(ValueError, match="refusing to aggregate"):
            sim.run(2)
        assert executor._pool is None


class TestRoundMetrics:
    def test_metrics_recorded_per_round(self, tiny_vector_dataset):
        _, history = _run_federation(
            tiny_vector_dataset, SequentialExecutor(), rounds=3
        )
        assert len(history.round_metrics) == 3
        for index, metrics in enumerate(history.round_metrics):
            # Matches RoundSnapshot numbering: server.round before aggregation.
            assert metrics.round_index == index
            assert metrics.backend == "sequential"
            assert metrics.wall_clock_seconds > 0
            assert set(metrics.client_compute_seconds) == {0, 1, 2, 3}
            assert metrics.total_compute_seconds > 0
            assert metrics.bytes_broadcast > 0
            assert metrics.bytes_aggregated > 0
        assert history.mean_round_seconds() > 0

    def test_parallel_metrics_bill_sequential_bytes(self, tiny_vector_dataset):
        _, history = _run_federation(
            tiny_vector_dataset, ParallelExecutor(num_workers=2), rounds=1
        )
        _, reference = _run_federation(
            tiny_vector_dataset, SequentialExecutor(), rounds=1
        )
        metrics, expected = history.round_metrics[0], reference.round_metrics[0]
        assert metrics.backend == "process"
        assert metrics.bytes_broadcast > 0
        for field in ("bytes_broadcast", "bytes_aggregated", "bytes_aggregated_dense"):
            assert getattr(metrics, field) == getattr(expected, field), field


class TestSerialization:
    def test_pack_unpack_roundtrip_is_bitwise(self, rng):
        state = {
            "layer.weight": rng.normal(size=(4, 3)),
            "layer.bias": rng.normal(size=4).astype(np.float32),
            "steps": np.array(7, dtype=np.int64),
        }
        restored = unpack_state_dict(pack_state_dict(state))
        _assert_states_equal(state, restored)

    def test_optimizer_state_dict_survives_new_param_identities(self, rng):
        def fresh_params():
            gen = np.random.default_rng(3)
            return [
                Tensor(gen.normal(size=(4, 3)), requires_grad=True),
                Tensor(gen.normal(size=4), requires_grad=True),
            ]

        for optimizer_cls in (SGD, Adam):
            params = fresh_params()
            kwargs = {"momentum": 0.9} if optimizer_cls is SGD else {}
            optimizer = optimizer_cls(params, lr=0.05, **kwargs)
            for param in params:
                param._accumulate(rng.normal(size=param.shape))
            optimizer.step()
            snapshot = optimizer.state_dict()

            # A different process re-creates parameters with new identities;
            # the state must re-attach by position, not by id().
            clone_params = fresh_params()
            for param, clone_param in zip(params, clone_params):
                clone_param.data = param.data.copy()
            clone = optimizer_cls(clone_params, lr=0.01, **kwargs)
            clone.load_state_dict(snapshot)
            for param, clone_param in zip(params, clone_params):
                param.zero_grad()
                clone_param.zero_grad()
                grad = rng.normal(size=param.shape)
                param._accumulate(grad)
                clone_param._accumulate(grad.copy())
            optimizer.step()
            clone.step()
            for param, clone_param in zip(params, clone_params):
                assert np.array_equal(param.data, clone_param.data)

    def test_tensor_pickles_without_graph(self, rng):
        import pickle

        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        restored = pickle.loads(pickle.dumps(x))
        assert np.array_equal(restored.data, x.data)
        assert np.array_equal(restored.grad, x.grad)
        assert restored.requires_grad


class TestConfig:
    def test_make_executor_dispatch(self):
        assert isinstance(make_executor("sequential"), SequentialExecutor)
        parallel = make_executor("process", num_workers=2, round_timeout=5.0)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.num_workers == 2
        parallel.close()
        with pytest.raises(ValueError, match="unknown backend"):
            make_executor("threads")

    def test_execution_config_validation(self):
        ExecutionConfig(backend="process", num_workers=4)
        with pytest.raises(ValueError):
            ExecutionConfig(backend="gpu")
        with pytest.raises(ValueError):
            ExecutionConfig(num_workers=-1)
        with pytest.raises(ValueError):
            ExecutionConfig(round_timeout=0.0)
