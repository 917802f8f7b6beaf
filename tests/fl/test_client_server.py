"""FLClient / FLServer protocol behaviour."""

import numpy as np
import pytest

from repro.fl.client import ClientConfig, FLClient
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.nn.serialization import state_dicts_allclose


def factory():
    return build_model("mlp", 3, in_features=5, hidden=(8,), seed=0)


@pytest.fixture
def dataset(tiny_vector_dataset):
    # reshape the 10-dim fixture down to 5 features for the tiny factory
    from repro.data.dataset import Dataset

    return Dataset(tiny_vector_dataset.inputs[:, :5], tiny_vector_dataset.labels, 3)


class TestClient:
    def test_receive_global_overwrites_weights(self, dataset):
        client = FLClient(0, dataset, factory, seed=1)
        other = build_model("mlp", 3, in_features=5, hidden=(8,), seed=9)
        client.receive_global(other.state_dict())
        assert state_dicts_allclose(client.model.state_dict(), other.state_dict())

    def test_local_update_changes_weights_and_reports(self, dataset):
        client = FLClient(0, dataset, factory, ClientConfig(lr=0.05), seed=1)
        before = client.model.state_dict()
        update = client.local_update()
        assert update.client_id == 0
        assert update.num_samples == len(dataset)
        assert np.isfinite(update.train_loss)
        assert not state_dicts_allclose(before, update.state)

    def test_update_state_is_a_copy(self, dataset):
        client = FLClient(0, dataset, factory, seed=1)
        update = client.local_update()
        update.state["backbone.body.layer0.weight"][:] = 0.0
        assert not np.allclose(
            client.model.state_dict()["backbone.body.layer0.weight"], 0.0
        )

    def test_evaluate(self, dataset):
        client = FLClient(0, dataset, factory, seed=1)
        result = client.evaluate_train()
        assert 0.0 <= result.accuracy <= 1.0
        assert result.num_samples == len(dataset)


class TestServer:
    def test_aggregate_advances_round(self, dataset):
        server = FLServer(factory)
        client = FLClient(0, dataset, factory, seed=1)
        assert server.round == 0
        client.receive_global(server.broadcast(0))
        server.aggregate([client.local_update()])
        assert server.round == 1

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            FLServer(factory).aggregate([])

    def test_single_client_aggregation_adopts_update(self, dataset):
        server = FLServer(factory)
        client = FLClient(0, dataset, factory, seed=1)
        client.receive_global(server.broadcast(0))
        update = client.local_update()
        server.aggregate([update])
        assert state_dicts_allclose(server.global_state(), update.state)

    def test_broadcast_hook_tampers_per_client(self, dataset):
        server = FLServer(factory)

        def hook(round_index, client_id, state):
            if client_id == 1:
                return {k: v + 1.0 for k, v in state.items()}
            return state

        server.broadcast_hook = hook
        clean = server.broadcast(0)
        tampered = server.broadcast(1)
        assert state_dicts_allclose(clean, server.global_state())
        assert not state_dicts_allclose(tampered, clean)

    def test_broadcast_hook_sees_round_and_client(self, dataset):
        server = FLServer(factory)
        calls = []

        def hook(round_index, client_id, state):
            calls.append((round_index, client_id))
            return state

        server.broadcast_hook = hook
        client = FLClient(0, dataset, factory, seed=1)
        client.receive_global(server.broadcast(0))
        server.aggregate([client.local_update()])
        server.broadcast(3)
        assert calls == [(0, 0), (1, 3)]

    def test_sequential_executor_delivers_tampered_state(self, dataset):
        from repro.fl.executor import SequentialExecutor
        from repro.fl.registry import ClientRegistry

        server = FLServer(factory)
        marker = 41.5

        def hook(round_index, client_id, state):
            if client_id == 1:
                state = dict(state)
                state["backbone.body.layer0.bias"] = np.full_like(
                    state["backbone.body.layer0.bias"], marker
                )
            return state

        server.broadcast_hook = hook
        received = {}

        class _ProbeClient(FLClient):
            def receive_global(self, state):
                received[self.client_id] = state["backbone.body.layer0.bias"].copy()
                super().receive_global(state)

        clients = [_ProbeClient(i, dataset, factory, seed=i) for i in range(2)]
        executor = SequentialExecutor()
        executor.bind_registry(ClientRegistry.from_clients(clients))
        executor.execute([client.client_id for client in clients], server)
        assert not np.allclose(received[0], marker)
        assert np.allclose(received[1], marker)

    def test_parallel_payloads_are_per_client_under_hook(self, dataset):
        from repro.fl.executor import ParallelExecutor
        from repro.nn.serialization import state_dict_nbytes, unpack_state_dict

        clients = [FLClient(i, dataset, factory, seed=i) for i in range(3)]
        executor = ParallelExecutor(num_workers=1)
        try:
            server = FLServer(factory)
            # No hook: one shared packed buffer for every participant, each
            # billed the dense bytes of the global state.
            shared = executor._broadcasts(clients, server)
            assert all(shared[i][0] is shared[0][0] for i in range(3))
            dense = state_dict_nbytes(server.global_state())
            assert all(shared[i][1] == dense for i in range(3))

            def hook(round_index, client_id, state):
                return {k: v + float(client_id) for k, v in state.items()}

            server.broadcast_hook = hook
            tampered = executor._broadcasts(clients, server)
            states = [unpack_state_dict(tampered[i][0]) for i in range(3)]
            key = "backbone.body.layer0.bias"
            np.testing.assert_allclose(states[1][key], states[0][key] + 1.0)
            np.testing.assert_allclose(states[2][key], states[0][key] + 2.0)
        finally:
            executor.close()
