"""Asynchronous round engine: staleness, replay, screening, resume.

The acceptance contract of the async execution layer:

* arrival jitter is a pure function of ``(seed, task, client, attempt)`` —
  two injectors with the same config produce the same schedule;
* staleness weights live in ``(0, 1]`` and never increase with lag;
* with constant decay, a synchronous arrival schedule and a buffer the
  size of the cohort, every buffered aggregation step is bit-identical to
  a sequential FedAvg round;
* two fresh runs under the same fault/jitter seed produce identical final
  models and identical per-step dropped/rejected/stale sets;
* a run checkpointed mid-stream and resumed in a fresh simulation replays
  bit-identically, including the in-flight buffer and screening window;
* 30% seeded stragglers cost accuracy, not correctness: the async run
  lands within tolerance of the synchronous baseline;
* streamed screening quarantines sign-flip attackers instead of letting
  them break convergence.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import (
    ByzantineConfig,
    CheckpointConfig,
    FaultConfig,
    ScreeningConfig,
)
from repro.data.partition import partition_iid
from repro.fl.aggregation import STALENESS_POLICIES, staleness_weight
from repro.fl.async_engine import AsyncExecutor
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import SequentialExecutor, make_executor
from repro.fl.faults import FaultInjector
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _build_clients(dataset, num_clients):
    shards = partition_iid(dataset, num_clients, seed=0)
    return [
        FLClient(
            i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "async", i),
        )
        for i in range(num_clients)
    ]


def _run(dataset, executor, rounds, num_clients=4, **sim_kwargs):
    server = FLServer(_mlp_factory)
    clients = _build_clients(dataset, num_clients)
    with FederatedSimulation(server, clients, executor=executor, **sim_kwargs) as sim:
        sim.run(rounds)
    return server.global_state(), sim.history


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


def _step_signature(history):
    """The per-step robustness record the replay contract pins down."""
    return [
        (
            dict(m.dropped_clients),
            dict(m.rejected_clients),
            dict(m.stale_clients),
            m.mean_staleness,
        )
        for m in history.round_metrics
    ]


class TestDelayFor:
    def test_schedule_is_pinned_by_seed(self):
        config = FaultConfig(jitter_scale=0.5, jitter_sigma=0.75, seed=123)
        a = FaultInjector(config)
        b = FaultInjector(FaultConfig(jitter_scale=0.5, jitter_sigma=0.75, seed=123))
        grid = [(r, c, t) for r in range(3) for c in range(4) for t in range(2)]
        schedule = [a.delay_for(r, c, t) for r, c, t in grid]
        assert schedule == [b.delay_for(r, c, t) for r, c, t in grid]
        # Repeated queries do not consume shared RNG state.
        assert schedule == [a.delay_for(r, c, t) for r, c, t in grid]

    def test_schedule_matches_stateless_derivation(self):
        # The keying contract: jitter = scale * exp(sigma * N(0,1)) drawn
        # from derive_rng(seed, "delay", round, client, attempt).  Pinning
        # it here means a refactor cannot silently reshuffle schedules.
        config = FaultConfig(jitter_scale=0.25, jitter_sigma=0.5, seed=42)
        injector = FaultInjector(config)
        for r, c, t in [(0, 0, 0), (1, 3, 0), (5, 2, 1)]:
            rng = derive_rng(42, "delay", r, c, t)
            expected = 0.25 * float(np.exp(0.5 * rng.standard_normal()))
            assert injector.delay_for(r, c, t) == pytest.approx(expected, abs=0.0)

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultConfig(jitter_scale=0.5, seed=1))
        b = FaultInjector(FaultConfig(jitter_scale=0.5, seed=2))
        grid = [(r, c, 0) for r in range(3) for c in range(4)]
        assert [a.delay_for(*g) for g in grid] != [b.delay_for(*g) for g in grid]

    def test_zero_scale_returns_fault_delay_only(self):
        injector = FaultInjector(
            FaultConfig(straggler_delay_seconds=2.5), plan={(0, 1, 0): "straggler"}
        )
        assert injector.delay_for(0, 0, 0) == 0.0
        assert injector.delay_for(0, 1, 0) == 2.5

    def test_jitter_enables_injector(self):
        assert not FaultConfig().enabled
        assert FaultConfig(jitter_scale=0.1).enabled


class TestStalenessWeight:
    @pytest.mark.parametrize("policy", STALENESS_POLICIES)
    def test_weights_in_unit_interval(self, policy):
        weights = [staleness_weight(lag, policy) for lag in range(32)]
        assert all(0.0 < w <= 1.0 for w in weights)

    @pytest.mark.parametrize("policy", STALENESS_POLICIES)
    def test_monotone_non_increasing(self, policy):
        weights = [staleness_weight(lag, policy) for lag in range(32)]
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zero_lag_is_full_weight(self):
        for policy in STALENESS_POLICIES:
            assert staleness_weight(0, policy) == 1.0

    def test_constant_ignores_lag(self):
        assert {staleness_weight(lag, "constant") for lag in range(16)} == {1.0}

    def test_polynomial_decay_value(self):
        assert staleness_weight(3, "polynomial", alpha=0.5) == pytest.approx(0.5)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            staleness_weight(-1)
        with pytest.raises(ValueError):
            staleness_weight(0, "exponential")


class TestDegeneration:
    def test_constant_policy_sync_schedule_equals_sequential(
        self, tiny_vector_dataset
    ):
        # Synchronous arrivals (no faults, uniform latency), a buffer the
        # size of the cohort, and constant decay: every async step must be
        # bitwise the sequential FedAvg round.
        seq_state, seq_history = _run(
            tiny_vector_dataset, SequentialExecutor(), rounds=3
        )
        executor = AsyncExecutor(buffer_size=4, staleness_policy="constant")
        async_state, async_history = _run(tiny_vector_dataset, executor, rounds=3)
        _assert_states_equal(seq_state, async_state)
        assert async_history.train_losses == seq_history.train_losses
        assert all(m.mean_staleness == 0.0 for m in async_history.round_metrics)


class TestDeterministicReplay:
    def _executor(self):
        injector = FaultInjector(
            FaultConfig(
                straggler_rate=0.3,
                straggler_delay_seconds=2.0,
                jitter_scale=0.3,
                seed=5,
            )
        )
        return AsyncExecutor(
            buffer_size=2,
            staleness_policy="polynomial",
            fault_injector=injector,
            min_participation=0.25,
        )

    def test_two_fresh_runs_are_bit_identical(self, tiny_vector_dataset):
        state_a, history_a = _run(tiny_vector_dataset, self._executor(), rounds=6)
        state_b, history_b = _run(tiny_vector_dataset, self._executor(), rounds=6)
        _assert_states_equal(state_a, state_b)
        assert _step_signature(history_a) == _step_signature(history_b)
        # The schedule actually exercises the staleness pipeline.
        assert any(m.mean_staleness > 0.0 for m in history_a.round_metrics)


class TestCheckpointResume:
    def _build_sim(self, dataset, directory=None, every=0):
        injector = FaultInjector(
            FaultConfig(
                straggler_rate=0.3,
                straggler_delay_seconds=2.0,
                jitter_scale=0.3,
                seed=5,
            )
        )
        executor = make_executor(
            backend="async",
            buffer_size=2,
            min_participation=0.25,
            fault_injector=injector,
            byzantine_config=ByzantineConfig(
                attack="sign_flip", clients=(1,), scale=3.0, seed=9
            ),
            screening=ScreeningConfig(),
            screen_window=8,
        )
        server = FLServer(_mlp_factory)
        clients = _build_clients(dataset, 4)
        checkpoint = (
            CheckpointConfig(directory=directory, every=every) if directory else None
        )
        return FederatedSimulation(
            server, clients, executor=executor, checkpoint=checkpoint
        )

    def test_resume_replays_buffer_bit_identically(
        self, tiny_vector_dataset, tmp_path
    ):
        reference = self._build_sim(tiny_vector_dataset)
        reference.run(8)

        directory = str(tmp_path / "ckpt")
        interrupted = self._build_sim(tiny_vector_dataset, directory, every=4)
        interrupted.run(6)  # dies with two steps of stream state past the ckpt

        resumed = self._build_sim(tiny_vector_dataset, directory, every=4)
        resumed.resume(8)

        assert resumed.server.round == 8
        _assert_states_equal(
            resumed.server.global_state(), reference.server.global_state()
        )
        assert _step_signature(resumed.history) == _step_signature(reference.history)


class TestStragglerAccuracy:
    def test_thirty_percent_stragglers_match_sync_baseline(
        self, tiny_vector_dataset
    ):
        rounds = 10
        _, sync_history = _run(
            tiny_vector_dataset,
            SequentialExecutor(),
            rounds=rounds,
            eval_dataset=tiny_vector_dataset,
            eval_every=rounds,
        )
        injector = FaultInjector(
            FaultConfig(
                straggler_rate=0.3, straggler_delay_seconds=3.0, seed=11
            )
        )
        executor = AsyncExecutor(
            buffer_size=4,
            staleness_policy="polynomial",
            fault_injector=injector,
            min_participation=0.25,
        )
        _, async_history = _run(
            tiny_vector_dataset,
            executor,
            rounds=rounds,
            eval_dataset=tiny_vector_dataset,
            eval_every=rounds,
        )
        sync_acc = sync_history.final_test_accuracy()
        async_acc = async_history.final_test_accuracy()
        assert async_acc >= sync_acc - 0.1


class TestStreamingScreeningConvergence:
    def test_two_of_ten_attackers_are_quarantined(self, tiny_vector_dataset):
        attackers = (2, 7)
        executor = make_executor(
            backend="async",
            buffer_size=10,
            staleness_policy="constant",
            byzantine_config=ByzantineConfig(
                attack="sign_flip", clients=attackers, scale=10.0, seed=3
            ),
            screening=ScreeningConfig(outlier_threshold=3.0),
            screen_window=16,
            min_participation=0.5,
        )
        _, history = _run(
            tiny_vector_dataset,
            executor,
            rounds=8,
            num_clients=10,
            eval_dataset=tiny_vector_dataset,
            eval_every=8,
        )
        quarantined = set()
        for metrics in history.round_metrics:
            quarantined.update(metrics.rejected_clients)
        assert set(attackers) <= quarantined
        # Honest clients are not collateral damage of the sliding window.
        assert quarantined <= set(attackers)

        _, clean_history = _run(
            tiny_vector_dataset,
            AsyncExecutor(buffer_size=10, staleness_policy="constant",
                          min_participation=0.5),
            rounds=8,
            num_clients=10,
            eval_dataset=tiny_vector_dataset,
            eval_every=8,
        )
        screened_acc = history.final_test_accuracy()
        clean_acc = clean_history.final_test_accuracy()
        assert screened_acc >= clean_acc - 0.1


class TestExecutorStateRoundTrip:
    def test_export_import_round_trip(self, tiny_vector_dataset):
        executor = AsyncExecutor(
            buffer_size=2,
            fault_injector=FaultInjector(
                FaultConfig(straggler_rate=0.5, straggler_delay_seconds=2.0, seed=1)
            ),
            min_participation=0.25,
            screening=ScreeningConfig(),
            screen_window=4,
        )
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            sim.run(3)
        exported = executor.export_state()
        fresh = AsyncExecutor(
            buffer_size=2, min_participation=0.25,
            screening=ScreeningConfig(), screen_window=4,
        )
        fresh.import_state(exported)
        # Structural equality (the payload nests numpy arrays).
        assert pickle.dumps(fresh.export_state()) == pickle.dumps(exported)
        # import_state(None) resets to a cold stream.
        fresh.import_state(None)
        cold = AsyncExecutor(buffer_size=2)
        assert fresh.export_state()["in_flight"] == []
        assert fresh.export_state()["vclock"] == cold.export_state()["vclock"]

    def test_sync_executors_have_no_stream_state(self):
        assert SequentialExecutor().export_state() is None
        SequentialExecutor().import_state(None)  # no-op by contract
