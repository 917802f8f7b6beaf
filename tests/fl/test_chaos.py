"""Chaos harness: seeded wire/checkpoint corruption, recovery, gating.

The acceptance contract of the chaos layer:

* a seeded fault cocktail (client crashes, transients, stragglers, wire
  corruption, checkpoint rot) either completes the run or fails loudly —
  never an uncaught parse error — on all four execution backends, with a
  finite global model every round and the quorum respected;
* the same chaos seed replays bit-identically (states and telemetry);
* a corrupted wire payload is retried under the retry budget and the
  client is then quarantined into ``RoundMetrics.rejected_clients`` —
  counted exactly once, and against ``min_participation``;
* ``resume`` falls back along the last-good checkpoint chain when the
  newest checkpoint fails digest verification;
* the aggregate sanity gate rejects non-finite / norm-exploded flushes
  and re-aggregates without the offenders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CheckpointConfig, ExecutionConfig, FaultConfig
from repro.data.partition import partition_iid
from repro.fl.aggregation import coordinate_median, krum, trimmed_mean
from repro.fl.checkpoint import (
    CheckpointCorruptionError,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    restore_latest_good,
    verify_checkpoint,
)
from repro.fl.client import ClientConfig, ClientUpdate, FLClient
from repro.fl.executor import RoundExecutionError, make_executor
from repro.fl.faults import (
    WIRE_FAULT_KINDS,
    FaultInjector,
    RetryBackoff,
    corrupt_payload,
)
from repro.fl.communication import WireFormatError, decode_update
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.nn.serialization import pack_state_dict
from repro.utils.rng import derive_rng

BACKENDS = ("sequential", "process", "batched", "async")

#: The acceptance cocktail: every fault channel at >= 10%.
COCKTAIL = dict(
    crash_rate=0.1,
    transient_rate=0.1,
    straggler_rate=0.1,
    straggler_delay_seconds=0.02,
    wire_corrupt_rate=0.15,
    checkpoint_corrupt_rate=0.3,
)

_NO_SLEEP = RetryBackoff(base_seconds=0.0, factor=1.0, max_seconds=0.0)


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _build_clients(dataset, num_clients):
    shards = partition_iid(dataset, num_clients, seed=0)
    return [
        FLClient(
            i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "chaos", i),
        )
        for i in range(num_clients)
    ]


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


def _assert_state_finite(state):
    for key, value in state.items():
        assert np.all(np.isfinite(value)), key


def _chaos_executor(backend, seed, **overrides):
    kwargs = dict(
        backend=backend,
        fault_config=FaultConfig(seed=seed, **COCKTAIL),
        max_retries=2,
        backoff=_NO_SLEEP,
        min_participation=0.25,
    )
    if backend == "process":
        kwargs["num_workers"] = 2
    if backend == "async":
        kwargs["client_latency"] = 0.1
    kwargs.update(overrides)
    return make_executor(**kwargs)


def _run_cocktail(dataset, backend, seed, directory, rounds=3, num_clients=6):
    server = FLServer(_mlp_factory)
    clients = _build_clients(dataset, num_clients)
    sim = FederatedSimulation(
        server,
        clients,
        executor=_chaos_executor(backend, seed),
        snapshot_rounds=range(rounds),
        checkpoint=CheckpointConfig(directory=str(directory), every=1, keep=3),
    )
    with sim:
        sim.run(rounds)
    return server.global_state(), sim.history


class TestWireFaultChannel:
    def test_schedule_is_deterministic_and_stateless(self):
        config = FaultConfig(wire_corrupt_rate=0.4, seed=13)
        first = FaultInjector(config)
        second = FaultInjector(config)
        triples = [(r, c, a) for r in range(5) for c in range(4) for a in range(3)]
        kinds = [first.wire_fault(*t) for t in triples]
        assert kinds == [second.wire_fault(*t) for t in triples]
        assert kinds == [first.wire_fault(*t) for t in triples]
        fired = [k for k in kinds if k != "none"]
        assert fired, "rate 0.4 over 60 draws should fire"
        assert set(kinds) <= set(WIRE_FAULT_KINDS)

    def test_wire_channel_is_independent_of_training_faults(self):
        # Adding client-fault rates must not perturb the wire schedule:
        # the channels draw from separately-derived streams.
        wire_only = FaultInjector(FaultConfig(wire_corrupt_rate=0.4, seed=13))
        mixed = FaultInjector(
            FaultConfig(wire_corrupt_rate=0.4, crash_rate=0.3, seed=13)
        )
        triples = [(r, c, a) for r in range(5) for c in range(4) for a in range(2)]
        assert [wire_only.wire_fault(*t) for t in triples] == [
            mixed.wire_fault(*t) for t in triples
        ]

    def test_rate_zero_never_fires(self):
        injector = FaultInjector(FaultConfig(seed=3))
        assert not injector.wire_enabled
        assert all(
            injector.wire_fault(r, c, 0) == "none"
            for r in range(3) for c in range(3)
        )

    @pytest.mark.parametrize("kind", WIRE_FAULT_KINDS[1:])
    def test_corruption_never_decodes_silently_wrong(self, kind):
        # The decode boundary's contract under corruption: either the
        # payload raises WireFormatError, or it decodes *bit-identically*
        # (the mangled byte hit redundant container metadata).  A decoded-
        # but-different state — silent poison — must never come back.
        state = _mlp_factory().state_dict()
        payload = pack_state_dict(state)
        rng = np.random.default_rng(5)
        raised = 0
        for _ in range(16):
            corrupted = corrupt_payload(payload, kind, rng)
            try:
                decoded = decode_update(corrupted)
            except WireFormatError:
                raised += 1
                continue
            for key in state:
                assert np.array_equal(decoded[key], state[key]), key
        assert raised > 0, "16 corruptions should break at least one decode"

    def test_corrupt_payload_shapes(self):
        rng = np.random.default_rng(0)
        payload = bytes(range(64))
        flipped = corrupt_payload(payload, "bit_flip", rng)
        assert len(flipped) == len(payload)
        assert sum(a != b for a, b in zip(flipped, payload)) == 1
        truncated = corrupt_payload(payload, "truncate", rng)
        assert 0 < len(truncated) < len(payload)
        assert payload.startswith(truncated)
        garbled = corrupt_payload(payload, "garble_header", rng)
        assert len(garbled) == len(payload)
        assert garbled[:12] != payload[:12] and garbled[12:] == payload[12:]
        with pytest.raises(ValueError):
            corrupt_payload(payload, "melt", rng)

    def test_checkpoint_schedule_is_deterministic(self):
        config = FaultConfig(checkpoint_corrupt_rate=0.5, seed=21)
        first = FaultInjector(config)
        second = FaultInjector(config)
        decisions = [first.checkpoint_fault(r) for r in range(20)]
        assert decisions == [second.checkpoint_fault(r) for r in range(20)]
        assert any(decisions) and not all(decisions)


class TestChaosCocktail:
    """The ISSUE acceptance sweep: every backend survives the cocktail."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_cocktail_completes_with_finite_state(
        self, tiny_vector_dataset, tmp_path, backend, seed
    ):
        if backend == "process" and seed == 1:
            pytest.skip("process backend swept at one seed (pool start-up cost)")
        state, history = _run_cocktail(
            tiny_vector_dataset, backend, seed, tmp_path / f"{backend}{seed}"
        )
        assert history.rounds == 3
        _assert_state_finite(state)
        # The global model stays finite after *every* round, not just the last.
        for snapshot in history.snapshots:
            _assert_state_finite(snapshot.global_state_after)
        for metrics in history.round_metrics:
            # Quorum respected: whoever is left trained for real.
            assert len(history.train_losses[metrics.round_index]) >= 1
            for reason in metrics.rejected_clients.values():
                assert isinstance(reason, str) and reason
            # Satellite (b): a wire-quarantined client is counted once —
            # never double-booked as both failed and rejected.
            assert not (
                set(metrics.dropped_clients) & set(metrics.rejected_clients)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_chaos_seed_replays_bit_identically(
        self, tiny_vector_dataset, tmp_path, backend
    ):
        state_a, history_a = _run_cocktail(
            tiny_vector_dataset, backend, 0, tmp_path / "a"
        )
        state_b, history_b = _run_cocktail(
            tiny_vector_dataset, backend, 0, tmp_path / "b"
        )
        _assert_states_equal(state_a, state_b)
        assert history_a.train_losses == history_b.train_losses
        for metrics_a, metrics_b in zip(
            history_a.round_metrics, history_b.round_metrics
        ):
            assert metrics_a.dropped_clients == metrics_b.dropped_clients
            assert metrics_a.rejected_clients == metrics_b.rejected_clients
            assert metrics_a.retried_clients == metrics_b.retried_clients

    def test_different_chaos_seed_diverges(self, tiny_vector_dataset, tmp_path):
        # Sanity check the sweep isn't vacuous: the cocktail actually bites.
        _, history_a = _run_cocktail(tiny_vector_dataset, "sequential", 0, tmp_path / "a")
        _, history_b = _run_cocktail(tiny_vector_dataset, "sequential", 1, tmp_path / "b")
        telemetry_a = [
            (m.dropped_clients, m.rejected_clients) for m in history_a.round_metrics
        ]
        telemetry_b = [
            (m.dropped_clients, m.rejected_clients) for m in history_b.round_metrics
        ]
        assert any(d or r for d, r in telemetry_a + telemetry_b)
        assert telemetry_a != telemetry_b

    def test_chaos_resume_from_surviving_checkpoint_is_bit_identical(
        self, tiny_vector_dataset, tmp_path
    ):
        # Uninterrupted chaos run to 4 rounds...
        state_full, history_full = _run_cocktail(
            tiny_vector_dataset, "sequential", 0, tmp_path / "full", rounds=4
        )
        # ...vs a run killed after 2 rounds and resumed from its newest
        # *verifying* checkpoint (the cocktail corrupts ~30% of them).
        _run_cocktail(tiny_vector_dataset, "sequential", 0, tmp_path / "cut", rounds=2)
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 6)
        sim = FederatedSimulation(
            server,
            clients,
            executor=_chaos_executor("sequential", 0),
            snapshot_rounds=range(4),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "cut"), every=1, keep=3),
        )
        with sim:
            sim.resume(4)
        _assert_states_equal(state_full, server.global_state())
        assert sim.history.train_losses == history_full.train_losses


class TestCrossEngineLifecycle:
    """Every engine runs one client lifecycle, so under the same faults they
    agree on every client's fate and on the trained model."""

    @staticmethod
    def _run(dataset, backend, seed, rounds=3, **overrides):
        server = FLServer(_mlp_factory)
        clients = _build_clients(dataset, 6)
        executor = _chaos_executor(backend, seed, **overrides)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            sim.run(rounds)
        fates = [
            (
                m.dropped_clients, m.retried_clients, m.rejected_clients,
                m.bytes_broadcast, m.bytes_aggregated, m.bytes_aggregated_dense,
            )
            for m in sim.history.round_metrics
        ]
        return server.global_state(), sim.history.train_losses, fates

    @pytest.mark.parametrize("seed", range(4))
    def test_sync_engines_agree_under_the_cocktail(self, tiny_vector_dataset, seed):
        # Every straggler delay exceeds client_timeout, so stragglers time
        # out and retry as well.
        faults = FaultConfig(seed=seed, **dict(COCKTAIL, straggler_delay_seconds=0.5))
        state, losses, fates = self._run(
            tiny_vector_dataset, "sequential", seed,
            fault_config=faults, client_timeout=0.2,
        )
        assert any(any(fate[:3]) for fate in fates), "the cocktail should bite"
        for backend in ("batched", "process"):
            other_state, other_losses, other_fates = self._run(
                tiny_vector_dataset, backend, seed,
                fault_config=faults, client_timeout=0.2,
            )
            _assert_states_equal(state, other_state)
            assert other_losses == losses, backend
            assert other_fates == fates, backend

    @pytest.mark.parametrize("seed", range(4))
    def test_async_matches_sequential_without_stragglers(
        self, tiny_vector_dataset, seed
    ):
        # A buffer the size of the cohort, constant staleness and no
        # stragglers or jitter: every async step is the sequential round,
        # crashes, transients and wire faults included.
        faults = FaultConfig(
            seed=seed, crash_rate=0.1, transient_rate=0.1, wire_corrupt_rate=0.15
        )
        state, losses, fates = self._run(
            tiny_vector_dataset, "sequential", seed, fault_config=faults
        )
        assert any(any(fate[:3]) for fate in fates), "the faults should bite"
        async_state, async_losses, async_fates = self._run(
            tiny_vector_dataset, "async", seed,
            fault_config=faults, buffer_size=6, staleness_policy="constant",
        )
        _assert_states_equal(state, async_state)
        assert async_losses == losses
        assert async_fates == fates


class TestWireQuarantine:
    """Recoverable wire faults at the executors' collection points."""

    def _scripted_executor(self, backend, wire_plan, **overrides):
        kwargs = dict(
            backend=backend,
            fault_injector=FaultInjector(FaultConfig(seed=0), wire_plan=wire_plan),
            max_retries=2,
            backoff=_NO_SLEEP,
            min_participation=0.5,
        )
        if backend == "process":
            kwargs["num_workers"] = 2
        kwargs.update(overrides)
        return make_executor(**kwargs)

    @pytest.mark.parametrize("backend", ("sequential", "process"))
    def test_retry_exhaustion_consumes_exactly_budget_transmissions(
        self, tiny_vector_dataset, backend
    ):
        # Satellite (c): a payload corrupted on every attempt burns
        # max_retries + 1 transmissions, then the client is dropped —
        # identically on the in-process and process-pool backends.
        # (truncate: the one kind that is *always* fatal to the decoder —
        # the zip central directory lives at the end of the payload.)
        wire_plan = {(0, 1, attempt): "truncate" for attempt in range(6)}
        executor = self._scripted_executor(backend, wire_plan)
        transmissions = []
        original = executor.fault_injector.corrupt_wire

        def counting(payload, round_index, client_id, attempt):
            transmissions.append((round_index, client_id, attempt))
            return original(payload, round_index, client_id, attempt)

        executor.fault_injector.corrupt_wire = counting
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            sim.run(1)
        mine = [t for t in transmissions if t[1] == 1]
        assert mine == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]  # max_retries=2 -> 3
        metrics = sim.history.round_metrics[0]
        assert metrics.rejected_clients == {1: "wire_corrupt"}
        assert 1 not in metrics.dropped_clients
        assert 1 not in sim.history.train_losses[0]

    def test_transient_corruption_is_retried_to_success(self, tiny_vector_dataset):
        # Corrupt only the first attempt: the retransmission decodes and
        # the round is bit-identical to an unfaulted one.
        executor = self._scripted_executor("sequential", {(0, 2, 0): "truncate"})
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            sim.run(1)
        assert sim.history.round_metrics[0].rejected_clients == {}
        assert 2 in sim.history.train_losses[0]

        clean_server = FLServer(_mlp_factory)
        clean = _build_clients(tiny_vector_dataset, 4)
        with FederatedSimulation(
            clean_server, clean, executor=make_executor(backend="sequential")
        ) as clean_sim:
            clean_sim.run(1)
        _assert_states_equal(server.global_state(), clean_server.global_state())

    def test_quarantine_counts_against_quorum(self, tiny_vector_dataset):
        # Satellite (b): with min_participation=1.0 a wire-quarantined
        # client fails the round exactly like a screening quarantine.
        wire_plan = {(0, 1, attempt): "truncate" for attempt in range(6)}
        executor = self._scripted_executor(
            "sequential", wire_plan, min_participation=1.0
        )
        server = FLServer(_mlp_factory)
        clients = _build_clients(tiny_vector_dataset, 4)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            with pytest.raises(RoundExecutionError, match="quarantined"):
                sim.run(1)


class TestCheckpointChain:
    def _checkpointed_sim(self, dataset, directory, keep=3):
        server = FLServer(_mlp_factory)
        clients = _build_clients(dataset, 4)
        return FederatedSimulation(
            server,
            clients,
            checkpoint=CheckpointConfig(directory=str(directory), every=1, keep=keep),
        )

    def test_files_carry_verifying_digest(self, tiny_vector_dataset, tmp_path):
        with self._checkpointed_sim(tiny_vector_dataset, tmp_path) as sim:
            sim.run(2)
        for path in list_checkpoints(str(tmp_path)):
            assert verify_checkpoint(path)
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ("bit_flip", "truncate", "garble_header"))
    def test_corruption_is_detected(self, tiny_vector_dataset, tmp_path, kind):
        with self._checkpointed_sim(tiny_vector_dataset, tmp_path) as sim:
            sim.run(1)
        path = latest_checkpoint(str(tmp_path))
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt_payload(raw, kind, np.random.default_rng(0)))
        assert not verify_checkpoint(path)
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)

    def test_resume_falls_back_to_newest_verifying_checkpoint(
        self, tiny_vector_dataset, tmp_path
    ):
        # Reference: uninterrupted 4-round run.
        ref = self._checkpointed_sim(tiny_vector_dataset, tmp_path / "ref")
        with ref:
            ref.run(4)
        # Interrupted run: 3 rounds on disk, newest checkpoint corrupted.
        cut = self._checkpointed_sim(tiny_vector_dataset, tmp_path / "cut")
        with cut:
            cut.run(3)
        newest = latest_checkpoint(str(tmp_path / "cut"))
        with open(newest, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff" * 16)
        resumed = self._checkpointed_sim(tiny_vector_dataset, tmp_path / "cut")
        with resumed:
            resumed.resume(4)  # restores round 2, recomputes rounds 3-4
        assert resumed.server.round == 4
        _assert_states_equal(
            resumed.server.global_state(), ref.server.global_state()
        )
        assert resumed.history.train_losses == ref.history.train_losses

    def test_resume_starts_from_scratch_when_every_checkpoint_is_corrupt(
        self, tiny_vector_dataset, tmp_path
    ):
        with self._checkpointed_sim(tiny_vector_dataset, tmp_path) as sim:
            sim.run(2)
        for path in list_checkpoints(str(tmp_path)):
            with open(path, "wb") as handle:
                handle.write(b"rotten")
        fresh = self._checkpointed_sim(tiny_vector_dataset, tmp_path)
        assert restore_latest_good(fresh, str(tmp_path)) is None
        assert fresh.server.round == 0

    def test_injector_corrupts_checkpoint_file_deterministically(
        self, tiny_vector_dataset, tmp_path
    ):
        with self._checkpointed_sim(tiny_vector_dataset, tmp_path) as sim:
            sim.run(1)
        path = latest_checkpoint(str(tmp_path))
        injector = FaultInjector(
            FaultConfig(checkpoint_corrupt_rate=1.0, seed=5)
        )
        assert injector.corrupt_checkpoint(path, 1)
        assert not verify_checkpoint(path)


def _update(client_id, value, reference, scale=1.0):
    state = {
        key: array + scale * value for key, array in reference.items()
    }
    return ClientUpdate(
        client_id=client_id, state=state, num_samples=10, train_loss=1.0
    )


class TestAggregateGate:
    def _server(self, multiplier=5.0):
        return FLServer(
            _mlp_factory, gate_aggregate=True, gate_norm_multiplier=multiplier
        )

    def test_clean_flush_passes_untouched(self):
        server = self._server()
        reference = server.global_state()
        plain = FLServer(_mlp_factory)
        updates = [_update(i, 0.01 * (i + 1), reference) for i in range(4)]
        merged = server.aggregate(updates)
        expected = plain.aggregate(updates)
        _assert_states_equal(merged, expected)
        assert server.last_gate == {}

    def test_norm_exploded_update_is_dropped_and_reaggregated(self):
        server = self._server()
        reference = server.global_state()
        honest = [_update(i, 0.01, reference) for i in range(3)]
        attacker = _update(9, 50.0, reference)
        merged = server.aggregate(honest + [attacker])
        assert server.last_gate == {9: "gate_norm_exploded"}
        plain = FLServer(_mlp_factory)
        _assert_states_equal(merged, plain.aggregate(honest))

    def test_non_finite_update_is_dropped(self):
        server = self._server()
        reference = server.global_state()
        honest = [_update(i, 0.01, reference) for i in range(3)]
        poison = _update(9, float("nan"), reference)
        merged = server.aggregate(honest + [poison])
        assert server.last_gate == {9: "gate_non_finite"}
        _assert_state_finite(merged)

    def test_unsalvageable_flush_raises_loudly(self):
        server = self._server()
        reference = server.global_state()
        poisoned = [_update(i, float("nan"), reference) for i in range(3)]
        with pytest.raises(RuntimeError, match="gate"):
            server.aggregate(poisoned)

    def test_gate_drop_enforces_quorum(self):
        server = self._server()
        reference = server.global_state()
        honest = [_update(i, 0.01, reference) for i in range(3)]
        attacker = _update(9, 50.0, reference)
        with pytest.raises(ValueError, match="gate"):
            server.aggregate(
                honest + [attacker],
                expected_participants=4,
                min_participation=1.0,
            )

    def test_simulation_merges_gate_drops_into_round_metrics(
        self, tiny_vector_dataset
    ):
        from repro.core.config import ByzantineConfig

        server = FLServer(
            _mlp_factory, gate_aggregate=True, gate_norm_multiplier=5.0
        )
        clients = _build_clients(tiny_vector_dataset, 4)
        executor = make_executor(
            backend="sequential",
            byzantine_config=ByzantineConfig(
                attack="model_replacement", clients=(2,), scale=200.0
            ),
            min_participation=0.5,
        )
        with FederatedSimulation(server, clients, executor=executor) as sim:
            sim.run(1)
        metrics = sim.history.round_metrics[0]
        assert metrics.rejected_clients == {2: "gate_norm_exploded"}
        _assert_state_finite(server.global_state())


class TestStalenessAwareAggregation:
    def _states(self, values):
        rng = np.random.default_rng(3)
        base = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,))}
        return [
            {key: array + value for key, array in base.items()}
            for value in values
        ]

    @pytest.mark.parametrize(
        "rule", (coordinate_median, trimmed_mean, krum)
    )
    def test_all_fresh_weights_degenerate_bitwise(self, rule):
        states = self._states([0.0, 0.1, 0.2, 0.3, 0.4])
        plain = rule(states)
        weighted = rule(states, staleness=[1.0] * len(states))
        _assert_states_equal(plain, weighted)

    def test_weighted_median_shifts_toward_fresh_mass(self):
        states = self._states([0.0, 10.0, 20.0])
        # Two very stale low states vs one fresh high state: the fresh
        # client holds the majority of the voting mass.
        merged = coordinate_median(states, staleness=[0.1, 0.1, 1.0])
        _assert_states_equal(merged, states[2])

    def test_trimmed_mean_reweights_survivors(self):
        states = self._states([0.0, 1.0, 2.0, 3.0])
        merged = trimmed_mean(states, trim_fraction=0.25, staleness=[1.0, 1.0, 0.5, 1.0])
        # Positional trim removes the extremes (0.0 and 3.0); the middle
        # pair averages with weights 1.0 and 0.5.
        expected_offset = (1.0 * 1.0 + 2.0 * 0.5) / 1.5
        expected = self._states([expected_offset])[0]
        for key in merged:
            np.testing.assert_allclose(merged[key], expected[key])

    def test_krum_penalizes_stale_winner(self):
        # Four states: a tight cluster {0.0, 0.05, 0.1} and an outlier.
        states = self._states([0.0, 0.05, 0.1, 5.0])
        fresh_pick = krum(states, num_byzantine=0)
        _assert_states_equal(fresh_pick, states[1])  # central cluster member
        # Make the plain winner maximally stale: its score is divided by
        # s^2 = 0.01, pushing selection to the next-best fresh state.
        stale_pick = krum(
            states, num_byzantine=0, staleness=[1.0, 0.1, 1.0, 1.0]
        )
        _assert_states_equal(stale_pick, states[0])

    def test_server_all_fresh_staleness_is_the_plain_rule(self):
        server = FLServer(_mlp_factory, aggregator="median")
        reference = server.global_state()
        updates = [_update(i, 0.01 * (i + 1), reference) for i in range(3)]
        # All-fresh mapping degenerates to the unweighted rule bitwise.
        merged = server.aggregate(updates, staleness={0: 1.0, 1: 1.0, 2: 1.0})
        plain = FLServer(_mlp_factory, aggregator="median")
        _assert_states_equal(merged, plain.aggregate(updates))

    def test_async_execution_reports_staleness_weights(self, tiny_vector_dataset):
        server = FLServer(_mlp_factory, aggregator="median")
        clients = _build_clients(tiny_vector_dataset, 6)
        executor = make_executor(
            backend="async",
            buffer_size=3,
            concurrency=2,
            staleness_policy="polynomial",
            client_latency=0.1,
        )
        with FederatedSimulation(server, clients, executor=executor) as sim:
            sim.run(3)
        _assert_state_finite(server.global_state())


class TestActiveAttackBackendGuard:
    def test_fig4_active_attack_refuses_async_backend(self):
        from repro.experiments.common import (
            get_execution_config,
            set_execution_config,
        )
        from repro.experiments.exp_internal import _internal_attack_accuracies

        previous = get_execution_config()
        set_execution_config(ExecutionConfig(backend="async"))
        try:
            with pytest.raises(ValueError, match="synchronous"):
                _internal_attack_accuracies(None, None)
        finally:
            set_execution_config(previous)
