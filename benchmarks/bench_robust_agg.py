"""Aggregation-rule cost: FedAvg vs the Byzantine-robust rules.

Times every aggregator in ``repro.fl.aggregation`` (plus the update-screening
pass of ``repro.fl.robust``) over synthetic state dicts at several client
counts and parameter sizes, and writes ``BENCH_robust_agg.json`` at the repo
root — the baseline the robustness docs quote for "what does the defense
cost per round".

Run directly (the usual way):

    PYTHONPATH=src python benchmarks/bench_robust_agg.py

or through pytest-benchmark alongside the paper benches:

    pytest benchmarks/bench_robust_agg.py --benchmark-only -s

Expected shape of the numbers: ``median``/``trimmed_mean`` sort per
coordinate (``O(n·d log n)``), ``krum`` computes all pairwise distances
(``O(n²·d)``), and screening flattens every update once
(``O(n·d)``) — all cheap next to local training, which is the point the
JSON documents.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.config import AGGREGATORS, ScreeningConfig
from repro.fl.aggregation import make_aggregator
from repro.fl.client import ClientUpdate
from repro.fl.robust import screen_updates

CLIENT_COUNTS = (5, 10, 20)
#: Parameters per state dict (split over two arrays), spanning the MLPs of
#: the smoke profile to a mid-sized conv net.
PARAM_COUNTS = (1_000, 100_000)
REPEATS = 5
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_robust_agg.json"


def _make_states(num_clients: int, num_params: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    half = num_params // 2
    reference = {
        "w": np.zeros(half),
        "b": np.zeros(num_params - half),
    }
    states = [
        {key: value + 0.1 * rng.normal(size=value.shape)
         for key, value in reference.items()}
        for _ in range(num_clients)
    ]
    return states, reference


def _time_call(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def run_bench() -> dict:
    rows = []
    for num_clients in CLIENT_COUNTS:
        for num_params in PARAM_COUNTS:
            states, reference = _make_states(num_clients, num_params)
            weights = [10.0] * num_clients
            for name in AGGREGATORS:
                aggregator = make_aggregator(name)
                seconds = _time_call(
                    lambda: aggregator(states, weights=weights, reference=reference)
                )
                rows.append(
                    {
                        "aggregator": name,
                        "clients": num_clients,
                        "params": num_params,
                        "mean_sec": seconds,
                    }
                )
            updates = [
                ClientUpdate(client_id=i, state=state, num_samples=10, train_loss=1.0)
                for i, state in enumerate(states)
            ]
            config = ScreeningConfig()
            seconds = _time_call(lambda: screen_updates(updates, reference, config))
            rows.append(
                {
                    "aggregator": "screening",
                    "clients": num_clients,
                    "params": num_params,
                    "mean_sec": seconds,
                }
            )
    report = {
        "benchmark": "robust_agg",
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _overhead(report: dict, name: str, clients: int, params: int) -> float:
    by_key = {
        (row["aggregator"], row["clients"], row["params"]): row["mean_sec"]
        for row in report["rows"]
    }
    return by_key[(name, clients, params)] / max(
        by_key[("fedavg", clients, params)], 1e-12
    )


def test_robust_agg_cost(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print()
    for row in report["rows"]:
        if row["params"] != PARAM_COUNTS[-1]:
            continue
        print(
            f"  {row['aggregator']:>12s}  {row['clients']:>2d} clients, "
            f"{row['params']} params: {row['mean_sec'] * 1e3:.2f} ms"
        )
    assert OUTPUT.exists()
    # Sanity: every rule completes in interactive time at the largest size.
    assert all(row["mean_sec"] < 5.0 for row in report["rows"])


if __name__ == "__main__":
    generated = run_bench()
    print(json.dumps(generated, indent=2))
    biggest = (CLIENT_COUNTS[-1], PARAM_COUNTS[-1])
    for name in list(AGGREGATORS) + ["screening"]:
        print(
            f"{name:>12s} overhead vs fedavg @"
            f"{biggest[0]} clients/{biggest[1]} params: "
            f"{_overhead(generated, name, *biggest):.2f}x"
        )
