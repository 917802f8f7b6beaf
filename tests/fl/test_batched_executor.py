"""Batched round execution: grouping rules, fallbacks, and lifecycle.

:mod:`tests.fl.test_backend_identity` pins the headline bitwise guarantee
(batched == sequential per dtype for plain and CIP clients, and the pinned
digest under the BatchNorm-CIP fallback).  This module covers the executor
mechanics around it: which clients stack together and which fall back,
that mixed cohorts and the tampering-broadcast slow path stay
bit-identical, and that communication accounting matches the sequential
engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cip_client import CIPClient
from repro.core.config import CIPConfig, ExecutionConfig
from repro.data.partition import partition_iid
from repro.fl.batched import BatchedExecutor, _NotBatchable, compile_stacked_plan
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import SequentialExecutor, make_executor
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.layers import (
    BatchNorm1d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    Module,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.utils.rng import derive_rng


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


class _SubclassClient(FLClient):
    """A defense-style subclass; must never be stacked (it may override
    local_update with extra RNG draws), only run through the fallback."""


class _OpaqueModule(Module):
    """A module the plan compiler has no stacked lowering for."""

    def __init__(self):
        super().__init__()
        self.inner = Linear(10, 3)

    def forward(self, x):
        return self.inner(x)


def _build_clients(dataset, num_clients, client_cls=FLClient, lr=0.05, **kwargs):
    shards = partition_iid(dataset, num_clients, seed=0)
    return [
        client_cls(
            i, shards[i], _mlp_factory, config=ClientConfig(lr=lr),
            seed=derive_rng(7, "batched", i), **kwargs,
        )
        for i in range(num_clients)
    ]


def _dual_mlp_factory():
    return build_model("mlp", 3, dual_channel=True, in_features=10, hidden=(16,), seed=0)


def _build_cip_clients(dataset, num_clients, cip, first_id=0):
    shards = partition_iid(dataset, num_clients, seed=first_id)
    return [
        CIPClient(
            first_id + i, shard, _dual_mlp_factory, cip_config=cip,
            config=ClientConfig(lr=0.05), seed=derive_rng(7, "cip", first_id + i),
        )
        for i, shard in enumerate(shards)
    ]


def _run_federation(dataset, executor, clients=None, rounds=3, num_clients=4,
                    broadcast_hook=None):
    server = FLServer(_mlp_factory)
    if clients is None:
        clients = _build_clients(dataset, num_clients)
    server.broadcast_hook = broadcast_hook
    with FederatedSimulation(server, clients, executor=executor) as sim:
        sim.run(rounds)
    return server.global_state(), sim.history


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert state_a[key].dtype == state_b[key].dtype, key
        assert np.array_equal(state_a[key], state_b[key]), key


class TestGrouping:
    def test_identical_clients_form_one_group(self, tiny_vector_dataset):
        clients = _build_clients(tiny_vector_dataset, 4)
        executor = BatchedExecutor()
        executor.prepare(clients)
        groups = executor._plan_groups(clients)
        assert set(groups) == {0, 1, 2, 3}
        members, plan = groups[0]
        assert [client.client_id for client in members] == [0, 1, 2, 3]
        assert len(plan) > 0

    def test_a_single_client_is_not_grouped(self, tiny_vector_dataset):
        clients = _build_clients(tiny_vector_dataset, 1)
        executor = BatchedExecutor()
        executor.prepare(clients)
        assert executor._plan_groups(clients) == {}

    def test_hyperparameter_mismatch_splits_groups(self, tiny_vector_dataset):
        slow = _build_clients(tiny_vector_dataset, 2, lr=0.05)
        fast = [
            FLClient(
                2 + i, shard, _mlp_factory, config=ClientConfig(lr=0.01),
                seed=derive_rng(7, "batched", 2 + i),
            )
            for i, shard in enumerate(partition_iid(tiny_vector_dataset, 2, seed=1))
        ]
        executor = BatchedExecutor()
        clients = slow + fast
        executor.prepare(clients)
        groups = executor._plan_groups(clients)
        assert {c.client_id for c in groups[0][0]} == {0, 1}
        assert {c.client_id for c in groups[2][0]} == {2, 3}

    def test_defense_subclasses_fall_back(self, tiny_vector_dataset):
        clients = _build_clients(tiny_vector_dataset, 3)
        clients.append(
            _SubclassClient(
                3, partition_iid(tiny_vector_dataset, 1, seed=2)[0],
                _mlp_factory, config=ClientConfig(lr=0.05),
                seed=derive_rng(7, "batched", 3),
            )
        )
        executor = BatchedExecutor()
        executor.prepare(clients)
        groups = executor._plan_groups(clients)
        assert set(groups) == {0, 1, 2}

    def test_non_sgd_optimizers_fall_back(self, tiny_vector_dataset):
        clients = _build_clients(tiny_vector_dataset, 3)
        clients[1]._optimizer = Adam(clients[1].model.parameters(), lr=0.05)
        executor = BatchedExecutor()
        executor.prepare(clients)
        assert set(executor._plan_groups(clients)) == {0, 2}

    def test_augmented_clients_fall_back(self, tiny_vector_dataset):
        clients = _build_clients(tiny_vector_dataset, 3)
        clients[0].augment = lambda inputs: inputs
        executor = BatchedExecutor()
        executor.prepare(clients)
        assert set(executor._plan_groups(clients)) == {1, 2}

    def test_cip_clients_stack_together(self, tiny_vector_dataset):
        clients = _build_cip_clients(tiny_vector_dataset, 3, CIPConfig())
        executor = BatchedExecutor()
        executor.prepare(clients)
        groups = executor._plan_groups(clients)
        assert set(groups) == {0, 1, 2}
        assert [client.client_id for client in groups[0][0]] == [0, 1, 2]

    def test_cip_and_plain_clients_never_share_a_group(self, tiny_vector_dataset):
        plain = _build_clients(tiny_vector_dataset, 2)
        cip = _build_cip_clients(tiny_vector_dataset, 2, CIPConfig(), first_id=2)
        executor = BatchedExecutor()
        clients = plain + cip
        executor.prepare(clients)
        groups = executor._plan_groups(clients)
        assert {c.client_id for c in groups[0][0]} == {0, 1}
        assert {c.client_id for c in groups[2][0]} == {2, 3}

    def test_differing_cip_configs_split_groups(self, tiny_vector_dataset):
        clients = _build_cip_clients(tiny_vector_dataset, 2, CIPConfig(lambda_m=1e-6))
        clients += _build_cip_clients(
            tiny_vector_dataset, 2, CIPConfig(lambda_m=1e-3), first_id=2
        )
        clients += _build_cip_clients(
            tiny_vector_dataset, 2, CIPConfig(lambda_m=1e-6), first_id=4
        )
        clients[5].perturbation.set_lr(0.5)
        executor = BatchedExecutor()
        executor.prepare(clients)
        groups = executor._plan_groups(clients)
        assert {c.client_id for c in groups[0][0]} == {0, 1, 4}
        assert {c.client_id for c in groups[2][0]} == {2, 3}
        assert 5 not in groups

    def test_augmented_cip_clients_fall_back(self, tiny_vector_dataset):
        clients = _build_cip_clients(tiny_vector_dataset, 3, CIPConfig())
        clients[0].augment = lambda inputs: inputs
        executor = BatchedExecutor()
        executor.prepare(clients)
        assert set(executor._plan_groups(clients)) == {1, 2}

    def test_batchnorm_cip_clients_fall_back(self, tiny_image_dataset):
        # Step I runs the model in eval mode; the stacked BatchNorm steps
        # implement training mode only.
        def factory():
            return build_model(
                "vgg", 4, dual_channel=True, in_channels=1,
                stage_channels=(4,), convs_per_stage=1, seed=0,
            )

        shards = partition_iid(tiny_image_dataset, 3, seed=0)
        clients = [
            CIPClient(i, shards[i], factory, seed=derive_rng(7, "bn", i))
            for i in range(3)
        ]
        executor = BatchedExecutor()
        executor.prepare(clients)
        assert executor._plan_groups(clients) == {}

    def test_unsupported_modules_are_not_batchable(self):
        with pytest.raises(_NotBatchable):
            compile_stacked_plan(_OpaqueModule())

    @pytest.mark.parametrize(
        "layer",
        [BatchNorm1d(4), Tanh(), Sigmoid(), Flatten(), Identity(), Dropout(0.0)],
        ids=["bn1d", "tanh", "sigmoid", "flatten", "identity", "dropout"],
    )
    def test_layers_without_a_stacked_step_fall_back(self, layer):
        # No model the experiments build uses these layers; a model that
        # does trains on the per-client path.
        with pytest.raises(_NotBatchable):
            compile_stacked_plan(Sequential(Linear(4, 4, seed=0), layer))


class TestEquivalence:
    def test_mlp_federation_matches_sequential(self, tiny_vector_dataset):
        seq_state, seq_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor()
        )
        bat_state, bat_history = _run_federation(
            tiny_vector_dataset, BatchedExecutor()
        )
        _assert_states_equal(seq_state, bat_state)
        assert seq_history.train_losses == bat_history.train_losses

    def test_mixed_cohort_matches_sequential(self, tiny_vector_dataset):
        def cohort():
            clients = _build_clients(tiny_vector_dataset, 3)
            clients.append(
                _SubclassClient(
                    3, partition_iid(tiny_vector_dataset, 1, seed=2)[0],
                    _mlp_factory, config=ClientConfig(lr=0.05),
                    seed=derive_rng(7, "batched", 3),
                )
            )
            return clients

        seq_state, seq_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor(), clients=cohort()
        )
        bat_state, bat_history = _run_federation(
            tiny_vector_dataset, BatchedExecutor(), clients=cohort()
        )
        _assert_states_equal(seq_state, bat_state)
        assert seq_history.train_losses == bat_history.train_losses

    def test_communication_accounting_matches_sequential(self, tiny_vector_dataset):
        _, seq_history = _run_federation(tiny_vector_dataset, SequentialExecutor())
        _, bat_history = _run_federation(tiny_vector_dataset, BatchedExecutor())
        for seq_round, bat_round in zip(
            seq_history.round_metrics, bat_history.round_metrics
        ):
            assert bat_round.bytes_broadcast == seq_round.bytes_broadcast
            assert bat_round.bytes_aggregated == seq_round.bytes_aggregated

    def test_broadcast_hook_forces_the_per_client_path(self, tiny_vector_dataset):
        # A tampering server may hand different states to different clients;
        # the batched engine must then load per client before stacking and
        # still match the sequential result bitwise.
        def hook(round_index, client_id, state):
            if client_id == 0:
                state = {name: value * 0.5 for name, value in state.items()}
            return state

        seq_state, seq_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor(), broadcast_hook=hook
        )
        bat_state, bat_history = _run_federation(
            tiny_vector_dataset, BatchedExecutor(), broadcast_hook=hook
        )
        _assert_states_equal(seq_state, bat_state)
        assert seq_history.train_losses == bat_history.train_losses

    def test_tolerant_policies_delegate_to_sequential(self, tiny_vector_dataset):
        # Fault tolerance needs the sequential per-(round, client, attempt)
        # interleaving; the batched engine runs the inherited path verbatim.
        executor = BatchedExecutor(max_retries=2)
        assert executor._tolerant
        seq_state, _ = _run_federation(
            tiny_vector_dataset, SequentialExecutor(max_retries=2)
        )
        bat_state, _ = _run_federation(tiny_vector_dataset, executor)
        _assert_states_equal(seq_state, bat_state)


class TestLifecycle:
    def test_make_executor_builds_the_batched_engine(self):
        executor = make_executor("batched")
        assert isinstance(executor, BatchedExecutor)
        assert executor.name == "batched"

    def test_execution_config_accepts_the_batched_backend(self):
        assert ExecutionConfig(backend="batched").backend == "batched"
        with pytest.raises(ValueError):
            ExecutionConfig(backend="stacked")
