"""Fault-tolerant federated rounds: injection, retry, degradation, resume.

The acceptance contract of the fault-tolerance layer:

* a transient client failure is retried (with backoff) and the round
  completes bit-identically to an untroubled run;
* a crashed client is dropped and the survivors are FedAvg-aggregated when
  ``min_participation`` is met;
* a killed worker process triggers a pool respawn and only the clients
  whose results were lost re-run;
* a simulation checkpointed at round ``k`` and resumed in a fresh process
  produces a bit-identical ``FLHistory`` to an uninterrupted run.
"""

from __future__ import annotations

import os
import re
import time

import numpy as np
import pytest

from repro.core.cip_client import CIPClient
from repro.core.config import CheckpointConfig, CIPConfig, FaultConfig
from repro.data.partition import partition_iid
from repro.fl.checkpoint import latest_checkpoint, list_checkpoints
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import (
    ParallelExecutor,
    RoundExecutionError,
    SequentialExecutor,
    make_executor,
)
from repro.fl.faults import (
    NO_FAULT,
    FaultDecision,
    FaultInjector,
    RetryBackoff,
)
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _dual_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), dual_channel=True, seed=0)


class _StallingClient(FLClient):
    """A genuine straggler: ``local_update`` really stalls its worker.

    Module-level so the process pool can pickle it.
    """

    def __init__(self, *args, stall_seconds, **kwargs):
        super().__init__(*args, **kwargs)
        self.stall_seconds = stall_seconds

    def local_update(self):
        time.sleep(self.stall_seconds)
        return super().local_update()


def _build_clients(dataset, num_clients, stalls=None):
    """Plain clients; ``stalls`` maps client ids to seconds they really stall."""
    shards = partition_iid(dataset, num_clients, seed=0)
    stalls = stalls or {}
    return [
        (
            _StallingClient(
                i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05),
                seed=derive_rng(7, "fault", i), stall_seconds=stalls[i],
            )
            if i in stalls
            else FLClient(
                i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05),
                seed=derive_rng(7, "fault", i),
            )
        )
        for i in range(num_clients)
    ]


def _run_federation(
    dataset, executor, rounds=2, num_clients=4, stalls=None, **sim_kwargs
):
    server = FLServer(_mlp_factory)
    clients = _build_clients(dataset, num_clients, stalls)
    with FederatedSimulation(server, clients, executor=executor, **sim_kwargs) as sim:
        sim.run(rounds)
    return server.global_state(), sim.history


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


def _plan_injector(plan):
    """Scripted injector: all rates zero, faults only where planned."""
    return FaultInjector(FaultConfig(), plan=plan)


class TestFaultInjector:
    def test_decisions_are_deterministic_and_stateless(self):
        config = FaultConfig(
            crash_rate=0.2, transient_rate=0.3, straggler_rate=0.2,
            straggler_delay_seconds=1.5, worker_death_rate=0.1, seed=11,
        )
        first = FaultInjector(config)
        second = FaultInjector(config)
        triples = [(r, c, a) for r in range(4) for c in range(5) for a in range(2)]
        forward = [first.decide(*triple) for triple in triples]
        backward = [second.decide(*triple) for triple in reversed(triples)]
        assert forward == list(reversed(backward))
        # Querying twice never changes the answer (statelessness).
        assert forward == [first.decide(*triple) for triple in triples]

    def test_rates_zero_means_healthy(self):
        injector = FaultInjector(FaultConfig())
        assert all(
            injector.decide(r, c, 0) == NO_FAULT for r in range(3) for c in range(3)
        )

    def test_rate_one_always_faults(self):
        injector = FaultInjector(FaultConfig(crash_rate=1.0, seed=3))
        assert all(
            injector.decide(r, c, a).kind == "crash"
            for r in range(3) for c in range(3) for a in range(2)
        )

    def test_straggler_decisions_carry_the_delay(self):
        injector = FaultInjector(
            FaultConfig(straggler_rate=1.0, straggler_delay_seconds=2.5)
        )
        decision = injector.decide(0, 0, 0)
        assert decision.kind == "straggler"
        assert decision.delay_seconds == 2.5

    def test_plan_overrides_and_falls_back(self):
        injector = _plan_injector({(0, 1, 0): "transient"})
        assert injector.decide(0, 1, 0).kind == "transient"
        assert injector.decide(0, 1, 1) == NO_FAULT
        assert injector.decide(1, 1, 0) == NO_FAULT

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_rate=1.2)
        with pytest.raises(ValueError):
            FaultConfig(crash_rate=0.6, transient_rate=0.6)
        with pytest.raises(ValueError):
            FaultConfig(straggler_delay_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultDecision(kind="meteor")


class TestSequentialFaultTolerance:
    def test_transient_failure_is_retried_bitwise(self, tiny_vector_dataset):
        baseline_state, baseline_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor()
        )
        injector = _plan_injector({(0, 1, 0): "transient", (1, 2, 0): "transient"})
        executor = SequentialExecutor(
            fault_injector=injector,
            max_retries=1,
            backoff=RetryBackoff(base_seconds=0.0),
        )
        state, history = _run_federation(tiny_vector_dataset, executor)
        # The retry rolled the client back to its pre-round state, so the
        # troubled run is bit-identical to the untroubled one.
        _assert_states_equal(baseline_state, state)
        assert baseline_history.train_losses == history.train_losses
        assert history.round_metrics[0].retried_clients == {1: 1}
        assert history.round_metrics[1].retried_clients == {2: 1}
        assert all(not m.dropped_clients for m in history.round_metrics)

    def test_crash_drops_client_and_aggregates_survivors(self, tiny_vector_dataset):
        injector = _plan_injector({(0, 2, 0): "crash"})
        executor = SequentialExecutor(fault_injector=injector, min_participation=0.5)
        state, history = _run_federation(tiny_vector_dataset, executor)
        assert set(history.train_losses[0]) == {0, 1, 3}
        assert set(history.train_losses[1]) == {0, 1, 2, 3}
        assert history.round_metrics[0].dropped_clients == {2: "crash"}
        assert history.dropped_client_rounds() == {2: 1}
        # The survivors' FedAvg actually landed in the global model.
        assert all(np.all(np.isfinite(value)) for value in state.values())

    def test_min_participation_violation_aborts_round(self, tiny_vector_dataset):
        injector = _plan_injector({(0, c, 0): "crash" for c in range(3)})
        executor = SequentialExecutor(fault_injector=injector, min_participation=0.75)
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        sim = FederatedSimulation(server, clients, executor=executor)
        with pytest.raises(RoundExecutionError, match="min_participation"):
            sim.run_round()

    def test_retries_exhausted_becomes_drop(self, tiny_vector_dataset):
        injector = _plan_injector(
            {(0, 1, attempt): "transient" for attempt in range(3)}
        )
        executor = SequentialExecutor(
            fault_injector=injector,
            max_retries=2,
            backoff=RetryBackoff(base_seconds=0.0),
            min_participation=0.5,
        )
        _, history = _run_federation(tiny_vector_dataset, executor, rounds=1)
        assert history.round_metrics[0].dropped_clients == {1: "transient"}
        assert 1 not in history.train_losses[0]

    def test_injected_straggler_past_budget_is_dropped_fast(self, tiny_vector_dataset):
        injector = _plan_injector(
            {(0, 0, 0): FaultDecision(kind="straggler", delay_seconds=60.0)}
        )
        executor = SequentialExecutor(
            fault_injector=injector, client_timeout=0.5, min_participation=0.5
        )
        start = time.monotonic()
        _, history = _run_federation(tiny_vector_dataset, executor, rounds=1)
        # The 60s injected delay was simulated, not slept.
        assert time.monotonic() - start < 30.0
        assert history.round_metrics[0].dropped_clients == {0: "straggler"}

    def test_worker_death_degrades_to_crash_in_process(self, tiny_vector_dataset):
        injector = _plan_injector({(0, 3, 0): "worker_death"})
        executor = SequentialExecutor(fault_injector=injector, min_participation=0.5)
        _, history = _run_federation(tiny_vector_dataset, executor, rounds=1)
        assert history.round_metrics[0].dropped_clients == {3: "worker_death"}

    def test_dropped_client_keeps_pre_round_state(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        before = clients[2].get_mutable_state().clone()
        injector = _plan_injector({(0, 2, 0): "crash"})
        executor = SequentialExecutor(fault_injector=injector, min_participation=0.5)
        FederatedSimulation(server, clients, executor=executor).run_round()
        after = clients[2].get_mutable_state()
        _assert_states_equal(before.model_state, after.model_state)
        assert before.round_index == after.round_index


class TestParallelFaultTolerance:
    def test_transient_failure_in_worker_is_retried_bitwise(self, tiny_vector_dataset):
        baseline_state, baseline_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor()
        )
        injector = _plan_injector({(0, 0, 0): "transient"})
        executor = ParallelExecutor(
            num_workers=2,
            fault_injector=injector,
            max_retries=1,
            backoff=RetryBackoff(base_seconds=0.0),
        )
        state, history = _run_federation(tiny_vector_dataset, executor)
        _assert_states_equal(baseline_state, state)
        assert baseline_history.train_losses == history.train_losses
        assert history.round_metrics[0].retried_clients == {0: 1}

    def test_worker_death_respawns_pool_and_reruns_lost_clients(
        self, tiny_vector_dataset
    ):
        baseline_state, baseline_history = _run_federation(
            tiny_vector_dataset, SequentialExecutor()
        )
        injector = _plan_injector({(0, 1, 0): "worker_death"})
        executor = ParallelExecutor(
            num_workers=2,
            fault_injector=injector,
            max_retries=1,
            backoff=RetryBackoff(base_seconds=0.0),
            max_pool_respawns=2,
        )
        state, history = _run_federation(tiny_vector_dataset, executor)
        # Every client delivered exactly one update per round; the victim
        # re-ran (attempt 1) and, because faults fire before any state is
        # touched, the whole run is bit-identical to the fault-free one.
        _assert_states_equal(baseline_state, state)
        assert baseline_history.train_losses == history.train_losses
        assert history.round_metrics[0].retried_clients.get(1) == 1
        assert not history.round_metrics[0].dropped_clients

    def test_crash_in_worker_drops_client(self, tiny_vector_dataset):
        injector = _plan_injector({(0, 2, 0): "crash"})
        executor = ParallelExecutor(
            num_workers=2, fault_injector=injector, min_participation=0.5
        )
        _, history = _run_federation(tiny_vector_dataset, executor, rounds=1)
        assert history.round_metrics[0].dropped_clients == {2: "crash"}
        assert set(history.train_losses[0]) == {0, 1, 3}

    def test_repeated_worker_death_exhausts_respawn_budget(self, tiny_vector_dataset):
        injector = _plan_injector(
            {(0, 1, attempt): "worker_death" for attempt in range(6)}
        )
        executor = ParallelExecutor(
            num_workers=2,
            fault_injector=injector,
            max_retries=5,
            backoff=RetryBackoff(base_seconds=0.0),
            max_pool_respawns=1,
        )
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            with pytest.raises(RoundExecutionError, match="respawn"):
                sim.run_round()

    def test_straggler_past_client_timeout_is_dropped(self, tiny_vector_dataset):
        # Client 0 really stalls its worker (injected delays are virtual and
        # never occupy one): the wall-clock budget abandons it.
        executor = ParallelExecutor(
            num_workers=2,
            client_timeout=1.0,
            min_participation=0.5,
        )
        start = time.monotonic()
        _, history = _run_federation(
            tiny_vector_dataset, executor, rounds=1, stalls={0: 45.0}
        )
        assert time.monotonic() - start < 30.0
        assert history.round_metrics[0].dropped_clients == {0: "straggler"}
        assert set(history.train_losses[0]) == {1, 2, 3}

    def test_queued_client_behind_straggler_is_not_charged(
        self, tiny_vector_dataset
    ):
        # One worker, so every other client queues behind the straggler.
        # Their timeout budget must start when *they* are submitted, not
        # when the wave starts: only the genuine straggler may be dropped.
        executor = ParallelExecutor(
            num_workers=1,
            client_timeout=1.0,
            max_retries=0,
            min_participation=0.25,
        )
        _, history = _run_federation(
            tiny_vector_dataset, executor, rounds=1, stalls={0: 10.0}
        )
        assert history.round_metrics[0].dropped_clients == {0: "straggler"}
        assert set(history.train_losses[0]) == {1, 2, 3}

    def test_timeout_after_transient_retry_is_reported_once(
        self, tiny_vector_dataset
    ):
        # Transient fault on attempt 0, straggler past the budget on the
        # retry: one entry in dropped_clients, attributed to the final
        # failure kind — never one entry per attempt.
        injector = _plan_injector(
            {
                (0, 0, 0): "transient",
                (0, 0, 1): FaultDecision(kind="straggler", delay_seconds=10.0),
            }
        )
        executor = ParallelExecutor(
            num_workers=2,
            fault_injector=injector,
            client_timeout=1.0,
            max_retries=1,
            min_participation=0.25,
            backoff=RetryBackoff(base_seconds=0.0),
        )
        _, history = _run_federation(tiny_vector_dataset, executor, rounds=1)
        metrics = history.round_metrics[0]
        assert metrics.dropped_clients == {0: "straggler"}
        assert set(history.train_losses[0]) == {1, 2, 3}


class TestExecutorLifecycle:
    class _RecordingExecutor(SequentialExecutor):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.closed = False

        def close(self):
            self.closed = True
            super().close()

    def test_run_closes_executor_on_unrecoverable_failure(self, tiny_vector_dataset):
        injector = _plan_injector({(0, c, 0): "crash" for c in range(4)})
        executor = self._RecordingExecutor(fault_injector=injector)
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        sim = FederatedSimulation(server, clients, executor=executor)
        with pytest.raises(RoundExecutionError):
            sim.run(3)
        assert executor.closed

    def test_run_keeps_executor_open_on_success(self, tiny_vector_dataset):
        executor = self._RecordingExecutor()
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        sim = FederatedSimulation(server, clients, executor=executor)
        sim.run(1)
        assert not executor.closed

    def test_make_executor_threads_fault_policy(self):
        executor = make_executor(
            "sequential",
            max_retries=3,
            min_participation=0.5,
            client_timeout=2.0,
            fault_config=FaultConfig(transient_rate=0.1),
        )
        assert executor.max_retries == 3
        assert executor.min_participation == 0.5
        assert executor.client_timeout == 2.0
        assert executor.fault_injector is not None
        # Disabled fault config builds no injector.
        assert make_executor("sequential", fault_config=FaultConfig()).fault_injector is None


class TestServerPartialAggregation:
    def test_aggregate_enforces_quorum(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        updates = []
        for client in clients[:2]:
            client.receive_global(server.broadcast(client.client_id))
            updates.append(client.local_update())
        with pytest.raises(ValueError, match="min_participation"):
            server.aggregate(updates, expected_participants=4, min_participation=0.75)
        # The same survivor set aggregates fine under a met quorum.
        merged = server.aggregate(updates, expected_participants=4, min_participation=0.5)
        assert server.round == 1
        weights = [u.num_samples for u in updates]
        from repro.fl.aggregation import fedavg

        expected = fedavg([u.state for u in updates], weights=weights)
        _assert_states_equal(merged, expected)


def _build_checkpointed_sim(dataset, directory=None, every=0, eval_every=2):
    server = FLServer(_mlp_factory)
    clients = _build_clients(dataset, 4)
    checkpoint = (
        CheckpointConfig(directory=directory, every=every) if directory else None
    )
    return FederatedSimulation(
        server,
        clients,
        eval_dataset=dataset,
        eval_every=eval_every,
        clients_per_round=2,
        sampling_seed=123,
        checkpoint=checkpoint,
    )


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(
        self, tiny_vector_dataset, tmp_path
    ):
        # Reference: one uninterrupted 6-round run.
        reference = _build_checkpointed_sim(tiny_vector_dataset)
        reference.run(6)

        # Interrupted run: checkpoints every 2 rounds, killed after round 4.
        directory = str(tmp_path / "ckpts")
        interrupted = _build_checkpointed_sim(tiny_vector_dataset, directory, every=2)
        interrupted.run(4)

        # A fresh process reconstructs the simulation and resumes to 6.
        resumed = _build_checkpointed_sim(tiny_vector_dataset, directory, every=2)
        resumed.resume(6)

        assert resumed.server.round == 6
        assert resumed.history.train_losses == reference.history.train_losses
        assert resumed.history.test_accuracy == reference.history.test_accuracy
        _assert_states_equal(
            resumed.server.global_state(), reference.server.global_state()
        )

    def test_resume_without_checkpoint_runs_from_scratch(
        self, tiny_vector_dataset, tmp_path
    ):
        directory = str(tmp_path / "empty")
        sim = _build_checkpointed_sim(tiny_vector_dataset, directory, every=2)
        sim.resume(3)
        assert sim.server.round == 3

    def test_cip_state_round_trips_through_checkpoint(
        self, tiny_vector_dataset, tmp_path
    ):
        def build():
            shards = partition_iid(tiny_vector_dataset, 2, seed=0)
            config = CIPConfig(alpha=0.5, clip_range=None)
            server = FLServer(_dual_factory)
            clients = [
                CIPClient(
                    i, shards[i], _dual_factory, cip_config=config,
                    config=ClientConfig(lr=0.05), seed=derive_rng(7, "cipckpt", i),
                )
                for i in range(2)
            ]
            return server, clients

        server_a, clients_a = build()
        FederatedSimulation(server_a, clients_a).run(3)

        directory = str(tmp_path / "cip")
        server_b, clients_b = build()
        sim_b = FederatedSimulation(
            server_b, clients_b,
            checkpoint=CheckpointConfig(directory=directory, every=2),
        )
        sim_b.run(2)

        server_c, clients_c = build()
        sim_c = FederatedSimulation(
            server_c, clients_c,
            checkpoint=CheckpointConfig(directory=directory, every=2),
        )
        sim_c.resume(3)
        _assert_states_equal(server_a.global_state(), server_c.global_state())
        # The secret perturbation t (Step-I state) survived the round trip.
        for original, restored in zip(clients_a, clients_c):
            assert np.array_equal(original.perturbation.value, restored.perturbation.value)

    def test_checkpoints_are_pruned_to_keep(self, tiny_vector_dataset, tmp_path):
        directory = str(tmp_path / "pruned")
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        sim = FederatedSimulation(
            server, clients,
            checkpoint=CheckpointConfig(directory=directory, every=1, keep=2),
        )
        sim.run(4)
        remaining = list_checkpoints(directory)
        assert len(remaining) == 2
        assert latest_checkpoint(directory) == remaining[-1]
        assert remaining[-1].endswith("round_00004.ckpt")

    def test_restore_rejects_mismatched_population(self, tiny_vector_dataset, tmp_path):
        directory = str(tmp_path / "mismatch")
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        sim = FederatedSimulation(
            server, clients,
            checkpoint=CheckpointConfig(directory=directory, every=1),
        )
        sim.run(1)
        other = FederatedSimulation(
            FLServer(_mlp_factory), _build_clients(tiny_vector_dataset, 3)
        )
        with pytest.raises(ValueError, match="clients"):
            other.restore(latest_checkpoint(directory))

    def test_save_checkpoint_requires_directory(self, tiny_vector_dataset):
        sim = _build_checkpointed_sim(tiny_vector_dataset)
        with pytest.raises(ValueError, match="directory"):
            sim.save_checkpoint()
        with pytest.raises(ValueError, match="resume requires"):
            sim.resume(2)


class TestHistoryAlignment:
    def test_test_accuracy_records_round_indices(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        sim = FederatedSimulation(
            server, clients, eval_dataset=tiny_vector_dataset, eval_every=2
        )
        sim.run(5)
        rounds = [round_index for round_index, _ in sim.history.test_accuracy]
        assert rounds == [2, 4]
        assert np.isfinite(sim.history.final_test_accuracy())
        series_rounds, series_accs = sim.history.test_accuracy_series()
        assert list(series_rounds) == [2, 4]
        assert len(series_accs) == 2

    def test_empty_history_accessors(self):
        from repro.fl.simulation import FLHistory

        history = FLHistory()
        assert np.isnan(history.final_test_accuracy())
        rounds, accs = history.test_accuracy_series()
        assert rounds.size == 0 and accs.size == 0
        assert history.dropped_client_rounds() == {}


class TestSamplingDeterminism:
    def test_selection_sequence_is_reproducible(self, tiny_vector_dataset):
        def build(seed):
            server = FLServer(_mlp_factory)
            clients = _build_clients(tiny_vector_dataset, 6)
            return FederatedSimulation(
                server, clients, clients_per_round=3, sampling_seed=seed
            )

        sim_a, sim_b = build(42), build(42)
        draws_a = [sim_a._select_participant_ids() for _ in range(8)]
        draws_b = [sim_b._select_participant_ids() for _ in range(8)]
        assert draws_a == draws_b
        # Participants come back sorted by id (stable executor ordering).
        assert all(draw == sorted(draw) for draw in draws_a)
        # A different seed produces a different sequence.
        sim_c = build(43)
        draws_c = [sim_c._select_participant_ids() for _ in range(8)]
        assert draws_a != draws_c


# ----------------------------------------------------------------------
# Virtual-clock lint
# ----------------------------------------------------------------------
_SLEEP = re.compile(r"\btime\.sleep\b|\bfrom time import\b.*\bsleep\b")


def test_library_never_sleeps():
    """Injected delays are virtual time: nothing under ``repro`` sleeps."""
    import repro

    root = os.path.dirname(repro.__file__)
    offenders = []
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            offenders += [
                f"{os.path.relpath(path, root)}:{lineno}: {line.strip()}"
                for lineno, line in enumerate(source.splitlines(), 1)
                if _SLEEP.search(line)
            ]
    assert not offenders, (
        "real sleeps make wall-clock time measure waiting, not compute:\n"
        + "\n".join(offenders)
    )
