"""Chaos drill: fault cocktails per backend + async robust aggregation.

Two sweeps, both written to ``BENCH_chaos.json`` at the repo root:

* **cocktail** — the seeded chaos cocktail (client crashes, transients,
  stragglers, wire corruption, checkpoint rot, all at >= 10%) through
  every execution backend, asserting the run completes with a finite
  global model, recording quarantine/drop telemetry and the bit-identical
  replay check (same chaos seed run twice -> same final state);
* **async_robust** — the acceptance scenario for staleness-aware robust
  aggregation: 10 clients on a 30%-straggler arrival schedule with 2
  sign-flip attackers, aggregated by Krum and coordinate median on the
  async engine, versus the clean synchronous FedAvg baseline.  The
  attackers must be quarantined, honest-but-stale clients must not be,
  and accuracy must land within tolerance of the clean sync run.

Run directly (the usual way):

    PYTHONPATH=src python benchmarks/bench_chaos.py

or through pytest-benchmark alongside the paper benches:

    pytest benchmarks/bench_chaos.py --benchmark-only -s
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import (
    ByzantineConfig,
    CheckpointConfig,
    FaultConfig,
    ScreeningConfig,
)
from repro.data.partition import partition_iid
from repro.data.synthetic import TabularSpec, generate_tabular_dataset
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.faults import RetryBackoff
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.fl.training import evaluate_model
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

NUM_CLIENTS = 10
ATTACKERS = (2, 5)
ROUNDS = 12
BUFFER_SIZE = 4
#: One async "round" is one buffer flush (BUFFER_SIZE admitted updates);
#: matching the sync run's total admitted updates keeps the accuracy
#: comparison apples-to-apples.
ASYNC_ROUNDS = ROUNDS * NUM_CLIENTS // BUFFER_SIZE
BACKENDS = ("sequential", "process", "batched", "async")
CHAOS_SEED = 17
ACCURACY_TOLERANCE = 0.15

#: Every chaos channel at >= 10% (the ISSUE acceptance floor).
COCKTAIL = FaultConfig(
    crash_rate=0.10,
    transient_rate=0.10,
    straggler_rate=0.10,
    straggler_delay_seconds=0.02,
    wire_corrupt_rate=0.12,
    checkpoint_corrupt_rate=0.30,
    seed=CHAOS_SEED,
)

#: 30%-straggler arrival schedule for the async robust-aggregation drill
#: (stragglers arrive late -> their updates are lag-discounted, exercising
#: the staleness-aware selection path).
STRAGGLER_SCHEDULE = FaultConfig(
    straggler_rate=0.30,
    straggler_delay_seconds=0.5,
    jitter_scale=0.1,
    jitter_sigma=0.75,
    seed=CHAOS_SEED,
)
SIGN_FLIP = ByzantineConfig(
    attack="sign_flip", clients=ATTACKERS, scale=5.0, seed=CHAOS_SEED
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

_NO_SLEEP = RetryBackoff(base_seconds=0.0, factor=1.0, max_seconds=0.0)

SPEC = TabularSpec(num_classes=4, num_features=32, flip_probability=0.2)


def _federation(seed: int = 0):
    # One generation pass, then split: train and test must share the class
    # prototypes (a fresh generator seed would be a different task).
    full = generate_tabular_dataset(SPEC, samples_per_class=72, seed=seed)
    dataset, test = full.split(2 / 3, seed=derive_rng(seed, "chaos-split"))
    shards = partition_iid(dataset, NUM_CLIENTS, seed=derive_rng(seed, "chaos"))

    def factory():
        return build_model(
            "mlp", SPEC.num_classes, in_features=SPEC.num_features,
            hidden=(32,), seed=derive_rng(seed, "chaos-m"),
        )

    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=5e-2),
                 seed=derive_rng(seed, "chaos-c", i))
        for i in range(NUM_CLIENTS)
    ]
    return factory, clients, test


def _state_digest(state) -> str:
    import hashlib

    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()[:16]


def _telemetry(history):
    dropped = sum(len(m.dropped_clients) for m in history.round_metrics)
    rejected = sum(len(m.rejected_clients) for m in history.round_metrics)
    retried = sum(len(m.retried_clients) for m in history.round_metrics)
    wire = sum(
        1
        for m in history.round_metrics
        for reason in m.rejected_clients.values()
        if reason == "wire_corrupt"
    )
    return dropped, rejected, retried, wire


def _run_cocktail(backend: str, directory: str):
    factory, clients, test = _federation()
    # num_workers and client_latency are read by one engine each.
    knobs = {"process": {"num_workers": 2}, "async": {"client_latency": 0.1}}
    executor = make_executor(
        backend=backend,
        fault_config=COCKTAIL,
        max_retries=2,
        backoff=_NO_SLEEP,
        min_participation=0.2,
        **knobs.get(backend, {}),
    )
    server = FLServer(factory, gate_aggregate=True)
    sim = FederatedSimulation(
        server,
        clients,
        executor=executor,
        checkpoint=CheckpointConfig(directory=directory, every=2, keep=3),
    )
    start = time.perf_counter()
    with sim:
        sim.run(ROUNDS)
    elapsed = time.perf_counter() - start
    state = server.global_state()
    finite = all(np.all(np.isfinite(v)) for v in state.values())
    accuracy = evaluate_model(server.model, test).accuracy
    return state, sim.history, finite, accuracy, elapsed


def _cocktail_rows():
    rows = []
    for backend in BACKENDS:
        with tempfile.TemporaryDirectory() as dir_a, \
                tempfile.TemporaryDirectory() as dir_b:
            state_a, history, finite, accuracy, elapsed = _run_cocktail(
                backend, dir_a
            )
            state_b, _, _, _, _ = _run_cocktail(backend, dir_b)
        dropped, rejected, retried, wire = _telemetry(history)
        rows.append(
            {
                "scenario": "cocktail",
                "backend": backend,
                "rounds": history.rounds,
                "finite_global_state": finite,
                "test_accuracy": accuracy,
                "dropped_client_rounds": dropped,
                "rejected_client_rounds": rejected,
                "wire_quarantine_rounds": wire,
                "retried_client_rounds": retried,
                "replay_bit_identical": _state_digest(state_a)
                == _state_digest(state_b),
                "state_digest": _state_digest(state_a),
                "wall_seconds": elapsed,
            }
        )
    return rows


def _run_async_robust(aggregator: str):
    factory, clients, test = _federation()
    executor = make_executor(
        backend="async",
        fault_config=STRAGGLER_SCHEDULE,
        byzantine_config=SIGN_FLIP,
        buffer_size=BUFFER_SIZE,
        concurrency=4,
        staleness_policy="polynomial",
        screening=ScreeningConfig(outlier_threshold=3.0),
        min_participation=0.2,
        client_latency=0.5,
    )
    server = FLServer(factory, aggregator=aggregator)
    sim = FederatedSimulation(server, clients, executor=executor)
    start = time.perf_counter()
    with sim:
        sim.run(ASYNC_ROUNDS)
    elapsed = time.perf_counter() - start
    rejected_rounds = sim.history.rejected_client_rounds()
    attacker_rejections = sum(
        rejected_rounds.get(cid, 0) for cid in ATTACKERS
    )
    honest_rejections = sum(
        count for cid, count in rejected_rounds.items() if cid not in ATTACKERS
    )
    mean_lag = float(
        np.mean([m.mean_staleness for m in sim.history.round_metrics])
    )
    accuracy = evaluate_model(server.model, test).accuracy
    return accuracy, attacker_rejections, honest_rejections, mean_lag, elapsed


def _run_clean_sync():
    factory, clients, test = _federation()
    server = FLServer(factory)
    sim = FederatedSimulation(
        server, clients, executor=make_executor(backend="sequential")
    )
    with sim:
        sim.run(ROUNDS)
    return evaluate_model(server.model, test).accuracy


def _async_robust_rows():
    clean = _run_clean_sync()
    rows = [
        {
            "scenario": "async_robust",
            "aggregator": "fedavg_clean_sync_baseline",
            "test_accuracy": clean,
        }
    ]
    for aggregator in ("krum", "median"):
        accuracy, attacker_hits, honest_hits, mean_lag, elapsed = (
            _run_async_robust(aggregator)
        )
        rows.append(
            {
                "scenario": "async_robust",
                "aggregator": aggregator,
                "test_accuracy": accuracy,
                "accuracy_gap_vs_clean_sync": clean - accuracy,
                "attacker_quarantine_rounds": attacker_hits,
                "honest_quarantine_rounds": honest_hits,
                "mean_staleness_lag": mean_lag,
                "straggler_rate": STRAGGLER_SCHEDULE.straggler_rate,
                "attackers": list(ATTACKERS),
                "wall_seconds": elapsed,
            }
        )
    return rows


def run_bench() -> dict:
    rows = _cocktail_rows() + _async_robust_rows()
    report = {
        "benchmark": "chaos",
        "cpu_count": os.cpu_count(),
        "chaos_seed": CHAOS_SEED,
        "rounds": ROUNDS,
        "clients": NUM_CLIENTS,
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_chaos_drill(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print()
    for row in report["rows"]:
        if row["scenario"] == "cocktail":
            print(
                f"  cocktail {row['backend']:>10s}: acc {row['test_accuracy']:.3f}, "
                f"{row['rejected_client_rounds']} quarantines, "
                f"replay={'OK' if row['replay_bit_identical'] else 'DIVERGED'}"
            )
        else:
            print(
                f"  async_robust {row['aggregator']:>24s}: "
                f"acc {row['test_accuracy']:.3f}"
            )
    cocktail = [r for r in report["rows"] if r["scenario"] == "cocktail"]
    assert {r["backend"] for r in cocktail} == set(BACKENDS)
    for row in cocktail:
        assert row["rounds"] == ROUNDS
        assert row["finite_global_state"]
        assert row["replay_bit_identical"]
    robust = [
        r
        for r in report["rows"]
        if r["scenario"] == "async_robust" and "attackers" in r
    ]
    for row in robust:
        assert row["attacker_quarantine_rounds"] > 0
        assert row["honest_quarantine_rounds"] == 0
        assert abs(row["accuracy_gap_vs_clean_sync"]) <= ACCURACY_TOLERANCE
    assert OUTPUT.exists()


if __name__ == "__main__":
    generated = run_bench()
    print(json.dumps(generated, indent=2))
