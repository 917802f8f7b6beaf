"""Federated simulation orchestration."""

import numpy as np
import pytest

from repro.data.partition import partition_iid
from repro.fl.client import ClientConfig, FLClient
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.fl.training import evaluate_model
from repro.nn.models import build_model


def factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def build_sim(dataset, num_clients=3, snapshot_rounds=(), eval_dataset=None, eval_every=0):
    shards = partition_iid(dataset, num_clients, seed=0)
    server = FLServer(factory)
    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=0.05), seed=i)
        for i in range(num_clients)
    ]
    return FederatedSimulation(
        server,
        clients,
        snapshot_rounds=snapshot_rounds,
        eval_dataset=eval_dataset,
        eval_every=eval_every,
    )


class TestSimulation:
    def test_runs_and_records_history(self, tiny_vector_dataset):
        sim = build_sim(tiny_vector_dataset)
        history = sim.run(4)
        assert history.rounds == 4
        assert all(len(losses) == 3 for losses in history.train_losses)

    def test_learning_happens(self, tiny_vector_dataset):
        sim = build_sim(tiny_vector_dataset)
        before = evaluate_model(sim.server.model, tiny_vector_dataset).accuracy
        sim.run(12)
        after = evaluate_model(sim.server.model, tiny_vector_dataset).accuracy
        assert after > before

    def test_snapshots_recorded_at_requested_rounds(self, tiny_vector_dataset):
        sim = build_sim(tiny_vector_dataset, snapshot_rounds=[1, 3])
        sim.run(5)
        rounds = [snap.round_index for snap in sim.history.snapshots]
        assert rounds == [1, 3]
        snap = sim.history.snapshots[0]
        assert set(snap.client_states) == {0, 1, 2}

    def test_snapshot_after_state_is_aggregate_of_clients(self, tiny_vector_dataset):
        from repro.fl.aggregation import fedavg, flatten_state

        sim = build_sim(tiny_vector_dataset, snapshot_rounds=[2])
        sim.run(3)
        snap = sim.history.snapshots[0]
        sizes = [len(c.dataset) for c in sim.clients]
        expected = fedavg(list(snap.client_states.values()), weights=sizes)
        np.testing.assert_allclose(
            flatten_state(snap.global_state_after), flatten_state(expected), atol=1e-10
        )

    def test_eval_history(self, tiny_vector_dataset):
        sim = build_sim(
            tiny_vector_dataset, eval_dataset=tiny_vector_dataset, eval_every=2
        )
        sim.run(4)
        assert len(sim.history.test_accuracy) == 2
        assert np.isfinite(sim.history.final_test_accuracy())

    def test_client_loss_series(self, tiny_vector_dataset):
        sim = build_sim(tiny_vector_dataset)
        sim.run(3)
        series = sim.history.client_loss_series(1)
        assert series.shape == (3,)

    def test_requires_clients(self, tiny_vector_dataset):
        with pytest.raises(ValueError):
            FederatedSimulation(FLServer(factory), [])

    def test_evaluate_clients(self, tiny_vector_dataset):
        sim = build_sim(tiny_vector_dataset)
        sim.run(2)
        accs = sim.evaluate_clients(tiny_vector_dataset)
        assert len(accs) == 3
        # standard clients all evaluate the same global model
        assert max(accs) - min(accs) < 1e-12
