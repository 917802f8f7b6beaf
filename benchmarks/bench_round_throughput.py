"""Round throughput: execution engines, nn array backends, virtualization.

Four sweeps, one JSON:

1. Sequential vs process execution on a synthetic tabular federation at
   2, 4, and 8 clients (the original bench; row schema unchanged).
2. ``nn_backend x compute_dtype`` on a conv-heavy image federation (VGG
   stages — where im2col/GEMM dominates), comparing the numpy reference
   against the workspace-cached AcceleratedBackend under both dtype
   policies.  Rows reuse the same timing fields plus the configuration
   axes and final test accuracy, so accuracy/throughput trade-offs are
   recorded together.
3. Sequential vs batched execution on a *cohort-scale* conv federation
   (many clients, a handful of samples each — the regime MIA evaluation
   reruns constantly).  There the sequential engine is dominated by Python
   dispatch over K tiny graphs; the batched engine stacks the cohort into
   grouped kernels.  Each row also records a digest of the final global
   state, and the sweep asserts the batched digest matches sequential
   bit-for-bit on every backend x dtype combo.
4. Virtualized *cross-device* rounds (see ``repro.fl.registry``): 2k- and
   10k-client populations at a fixed 100-client cohort.  Each row records
   the flat-memory evidence — peak RSS, store-resident bytes, and the
   high-water count of simultaneously live clients (which must equal the
   cohort, not the population) — and a small live-vs-virtual federation
   pair asserts that lazy materialization reproduces the eager-object
   path's bits exactly.

Writes ``BENCH_round_throughput.json`` at the repo root — the baseline
file future perf work diffs against.

Run directly (the usual way):

    PYTHONPATH=src python benchmarks/bench_round_throughput.py

or through pytest-benchmark alongside the paper benches:

    pytest benchmarks/bench_round_throughput.py --benchmark-only -s

The process backend can only beat sequential when real cores are available:
with 4 workers on >=4 cores an 8-client round is expected to run >= 2x
faster.  On fewer cores the backend still works (and stays bitwise-identical
— see tests/fl/test_executor.py) but pays pickling overhead with no
parallelism to recoup it, so the speedup assertion is gated on core count.
The JSON records ``cpu_count`` (the machine's cores) and ``cpus_visible``
(what the process affinity mask actually allows — in containers and cgroup
slices these routinely differ) so readers can interpret the numbers; the
gate uses the visible count, since that is what the worker pool can use.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.partition import partition_iid
from repro.data.synthetic import (
    ImageSpec,
    TabularSpec,
    generate_image_dataset,
    generate_tabular_dataset,
)
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.registry import ClientRegistry
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.backend import use_backend
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

CLIENT_COUNTS = (2, 4, 8)
BACKENDS = ("sequential", "process")
NUM_WORKERS = 4
ROUNDS = 3
#: Two warm-up rounds: the first absorbs worker-pool spawn + client
#: pickling on the process backend (at ROUNDS=3 a cold pool would dominate
#: the measurement), the second catches stragglers like lazy workspace
#: allocation so the timed window sees steady-state rounds only.
WARMUP_ROUNDS = 2
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_round_throughput.json"


def _visible_cpus() -> int:
    """CPUs the scheduler will actually let this process use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux platforms
        return os.cpu_count() or 1

_SPEC = TabularSpec(num_classes=8, num_features=64, flip_probability=0.1)

#: nn-backend sweep axes: every registered backend under both dtype policies.
NN_COMBOS = (
    ("numpy", "float64"),
    ("numpy", "float32"),
    ("accelerated", "float64"),
    ("accelerated", "float32"),
)
#: Enough rounds for the smoke federation to converge (~99% accuracy), so
#: the float32-vs-float64 accuracy comparison is measured on a trained
#: model rather than on chance-level noise.
NN_ROUNDS = 11
_IMAGE_SPEC = ImageSpec(num_classes=4, channels=1, height=16, width=16, noise_scale=0.1)

#: Cohort-scale conv sweep: many clients, a handful of images each.  Per
#: client the conv graph is tiny, so the sequential engine spends its time
#: in Python dispatch — exactly the regime the batched executor targets.
BATCHED_CLIENTS = 24
BATCHED_ROUNDS = 8
_COHORT_SPEC = ImageSpec(num_classes=4, channels=1, height=8, width=8, noise_scale=0.1)

#: Virtualized sweep: populations far beyond what eager client objects
#: could hold, at a fixed small cohort.  Memory must track the cohort.
VIRTUAL_POPULATIONS = (2_000, 10_000)
VIRTUAL_COHORT = 100
VIRTUAL_ROUNDS = 3
_VIRTUAL_SPEC = TabularSpec(num_classes=4, num_features=16, flip_probability=0.1)


def _build_federation(num_clients: int, seed: int = 0):
    dataset = generate_tabular_dataset(_SPEC, samples_per_class=48, seed=seed)
    shards = partition_iid(dataset, num_clients, seed=derive_rng(seed, "bench-p"))

    def factory():
        return build_model(
            "mlp", _SPEC.num_classes, in_features=_SPEC.num_features,
            hidden=(64,), seed=derive_rng(seed, "bench-m"),
        )

    server = FLServer(factory)
    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=5e-2),
                 seed=derive_rng(seed, "bench-c", i))
        for i in range(num_clients)
    ]
    return server, clients


def _time_backend(backend: str, num_clients: int) -> dict:
    # Only the process engine reads num_workers.
    knobs = {"num_workers": NUM_WORKERS} if backend == "process" else {}
    executor = make_executor(backend=backend, **knobs)
    with FederatedSimulation(*_build_federation(num_clients), executor=executor) as sim:
        # Warm-up absorbs one-time costs (worker spawn, client pickling) so
        # the measurement reflects steady-state rounds.
        sim.run(WARMUP_ROUNDS)
        start = time.perf_counter()
        sim.run(ROUNDS)
        elapsed = time.perf_counter() - start
        metrics = sim.history.round_metrics[WARMUP_ROUNDS:]
    mean_round = elapsed / ROUNDS
    return {
        "backend": backend,
        "clients": num_clients,
        "rounds": ROUNDS,
        "rounds_per_sec": (1.0 / mean_round) if mean_round > 0 else float("inf"),
        "mean_round_sec": mean_round,
        "mean_client_compute_sec": sum(
            m.total_compute_seconds for m in metrics
        ) / len(metrics),
        "mb_broadcast_per_round": sum(m.bytes_broadcast for m in metrics)
        / len(metrics) / 1e6,
        "mb_aggregated_per_round": sum(m.bytes_aggregated for m in metrics)
        / len(metrics) / 1e6,
    }


def _build_conv_federation(num_clients: int = 2, seed: int = 0):
    dataset = generate_image_dataset(_IMAGE_SPEC, samples_per_class=48, seed=seed)
    shards = partition_iid(dataset, num_clients, seed=derive_rng(seed, "bench-cp"))

    def factory():
        return build_model(
            "vgg", _IMAGE_SPEC.num_classes, in_channels=_IMAGE_SPEC.channels,
            stage_channels=(8, 16), convs_per_stage=1,
            seed=derive_rng(seed, "bench-cm"),
        )

    server = FLServer(factory)
    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=5e-2, batch_size=16),
                 seed=derive_rng(seed, "bench-cc", i))
        for i in range(num_clients)
    ]
    return server, clients, dataset


def _time_nn_combo(nn_backend: str, compute_dtype: str) -> dict:
    """Sequential conv-heavy federation under one backend x dtype combo.

    Same timing fields as the executor rows, plus the configuration axes
    and the final test accuracy (the float32 policy must not cost more
    than a fraction of a point on this smoke-scale task).
    """
    with use_backend(nn_backend, compute_dtype=compute_dtype):
        server, clients, dataset = _build_conv_federation()
        with FederatedSimulation(server, clients) as sim:
            sim.run(WARMUP_ROUNDS)
            start = time.perf_counter()
            sim.run(NN_ROUNDS)
            elapsed = time.perf_counter() - start
            metrics = sim.history.round_metrics[WARMUP_ROUNDS:]
            accuracy = sim.evaluate_global(dataset).accuracy
    mean_round = elapsed / NN_ROUNDS
    return {
        "backend": "sequential",
        "nn_backend": nn_backend,
        "compute_dtype": compute_dtype,
        "clients": len(clients),
        "rounds": NN_ROUNDS,
        "rounds_per_sec": (1.0 / mean_round) if mean_round > 0 else float("inf"),
        "mean_round_sec": mean_round,
        "mean_client_compute_sec": sum(
            m.total_compute_seconds for m in metrics
        ) / len(metrics),
        "mb_broadcast_per_round": sum(m.bytes_broadcast for m in metrics)
        / len(metrics) / 1e6,
        "mb_aggregated_per_round": sum(m.bytes_aggregated for m in metrics)
        / len(metrics) / 1e6,
        "test_accuracy": accuracy,
    }


def _build_cohort_conv_federation(num_clients: int = BATCHED_CLIENTS, seed: int = 0):
    dataset = generate_image_dataset(
        _COHORT_SPEC,
        samples_per_class=num_clients * 4 // _COHORT_SPEC.num_classes,
        seed=seed,
    )
    shards = partition_iid(dataset, num_clients, seed=derive_rng(seed, "bench-bp"))

    def factory():
        return build_model(
            "vgg", _COHORT_SPEC.num_classes, in_channels=_COHORT_SPEC.channels,
            stage_channels=(8, 16), convs_per_stage=1,
            seed=derive_rng(seed, "bench-bm"),
        )

    server = FLServer(factory)
    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=5e-2, batch_size=16),
                 seed=derive_rng(seed, "bench-bc", i))
        for i in range(num_clients)
    ]
    return server, clients


def _state_digest(state: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _time_batched_combo(nn_backend: str, compute_dtype: str) -> list:
    """Sequential vs batched rows for the cohort federation under one combo.

    Both executors run the identical federation; each row carries a digest
    of the final global state so the JSON itself documents that batching
    left the trained bits untouched.
    """
    rows = []
    for executor_backend in ("sequential", "batched"):
        with use_backend(nn_backend, compute_dtype=compute_dtype):
            server, clients = _build_cohort_conv_federation()
            executor = make_executor(backend=executor_backend)
            with FederatedSimulation(server, clients, executor=executor) as sim:
                sim.run(WARMUP_ROUNDS)
                start = time.perf_counter()
                sim.run(BATCHED_ROUNDS)
                elapsed = time.perf_counter() - start
                metrics = sim.history.round_metrics[WARMUP_ROUNDS:]
            digest = _state_digest(server.global_state())
        mean_round = elapsed / BATCHED_ROUNDS
        rows.append({
            "backend": executor_backend,
            "nn_backend": nn_backend,
            "compute_dtype": compute_dtype,
            "clients": len(clients),
            "rounds": BATCHED_ROUNDS,
            "rounds_per_sec": (1.0 / mean_round) if mean_round > 0 else float("inf"),
            "mean_round_sec": mean_round,
            "mean_client_compute_sec": sum(
                m.total_compute_seconds for m in metrics
            ) / len(metrics),
            "mb_broadcast_per_round": sum(m.bytes_broadcast for m in metrics)
            / len(metrics) / 1e6,
            "mb_aggregated_per_round": sum(m.bytes_aggregated for m in metrics)
            / len(metrics) / 1e6,
            "state_digest": digest,
        })
    return rows


def _virtual_client_factory(seed: int = 0):
    """Factories for a derivable federation: client ``cid`` is a pure
    function of ``(seed, cid)``, so cold materializations are bit-stable."""

    def model_factory():
        return build_model(
            "mlp", _VIRTUAL_SPEC.num_classes,
            in_features=_VIRTUAL_SPEC.num_features, hidden=(16,),
            seed=derive_rng(seed, "bench-vm"),
        )

    def client_factory(cid: int) -> FLClient:
        shard = generate_tabular_dataset(
            _VIRTUAL_SPEC, samples_per_class=4,
            seed=derive_rng(seed, "bench-vd", cid),
        )
        return FLClient(cid, shard, model_factory, ClientConfig(lr=5e-2, batch_size=8),
                        seed=derive_rng(seed, "bench-vc", cid))

    return model_factory, client_factory


def _time_virtual(population: int, seed: int = 0) -> dict:
    """One virtualized run: timing plus the flat-memory evidence."""
    model_factory, client_factory = _virtual_client_factory(seed)
    registry = ClientRegistry(client_factory, population=population)
    server = FLServer(model_factory)
    with FederatedSimulation(
        server, registry=registry,
        clients_per_round=VIRTUAL_COHORT, sampling_seed=seed,
    ) as sim:
        start = time.perf_counter()
        sim.run(VIRTUAL_ROUNDS)
        elapsed = time.perf_counter() - start
        metrics = sim.history.round_metrics
    mean_round = elapsed / VIRTUAL_ROUNDS
    row = {
        "backend": "sequential",
        "mode": "virtual",
        "population": population,
        "cohort": VIRTUAL_COHORT,
        "rounds": VIRTUAL_ROUNDS,
        "rounds_per_sec": (1.0 / mean_round) if mean_round > 0 else float("inf"),
        "mean_round_sec": mean_round,
        "peak_rss_mb": max((m.peak_rss_bytes or 0) for m in metrics) / 1e6,
        "store_resident_mb": registry.store.resident_bytes() / 1e6,
        "max_live_clients": registry.max_live,
        "materializations": registry.materialized_total,
        "state_digest": _state_digest(server.global_state()),
    }
    registry.close()
    return row


def _virtual_digest_match(seed: int = 0) -> bool:
    """Live vs virtual on the identical small federation: bits must agree."""
    population, cohort, rounds = 32, 8, 3
    digests = []
    for virtual in (False, True):
        model_factory, client_factory = _virtual_client_factory(seed)
        server = FLServer(model_factory)
        if virtual:
            registry = ClientRegistry(client_factory, population=population)
            sim_kwargs = {"registry": registry}
        else:
            sim_kwargs = {"clients": [client_factory(i) for i in range(population)]}
        with FederatedSimulation(
            server, clients_per_round=cohort, sampling_seed=seed, **sim_kwargs
        ) as sim:
            sim.run(rounds)
        digests.append(_state_digest(server.global_state()))
    return digests[0] == digests[1]


def run_bench() -> dict:
    rows = [
        _time_backend(backend, num_clients)
        for num_clients in CLIENT_COUNTS
        for backend in BACKENDS
    ]
    nn_rows = [
        _time_nn_combo(nn_backend, compute_dtype)
        for nn_backend, compute_dtype in NN_COMBOS
    ]
    batched_rows = [
        row
        for nn_backend, compute_dtype in NN_COMBOS
        for row in _time_batched_combo(nn_backend, compute_dtype)
    ]
    report = {
        "benchmark": "round_throughput",
        "num_workers": NUM_WORKERS,
        "cpu_count": os.cpu_count(),
        "cpus_visible": _visible_cpus(),
        "rows": rows,
        "nn_backend_rows": nn_rows,
        "nn_backend_speedup_vs_reference": _nn_speedup(nn_rows),
        "batched_rows": batched_rows,
        "batched_speedup_vs_sequential": _batched_speedup(batched_rows),
        "batched_digest_match": _batched_digest_match(batched_rows),
        "virtual_rows": [
            _time_virtual(population) for population in VIRTUAL_POPULATIONS
        ],
        "virtual_digest_match": _virtual_digest_match(),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _batched_speedup(batched_rows) -> dict:
    """Per-combo batched-over-sequential round-throughput ratio."""
    by_key = {
        (row["backend"], row["nn_backend"], row["compute_dtype"]): row
        for row in batched_rows
    }
    return {
        f"{nn_backend}-{compute_dtype}": (
            by_key[("sequential", nn_backend, compute_dtype)]["mean_round_sec"]
            / by_key[("batched", nn_backend, compute_dtype)]["mean_round_sec"]
        )
        for nn_backend, compute_dtype in NN_COMBOS
    }


def _batched_digest_match(batched_rows) -> dict:
    """Whether batched reproduced the sequential bits, per combo."""
    by_key = {
        (row["backend"], row["nn_backend"], row["compute_dtype"]): row
        for row in batched_rows
    }
    return {
        f"{nn_backend}-{compute_dtype}": (
            by_key[("sequential", nn_backend, compute_dtype)]["state_digest"]
            == by_key[("batched", nn_backend, compute_dtype)]["state_digest"]
        )
        for nn_backend, compute_dtype in NN_COMBOS
    }


def _nn_speedup(nn_rows) -> dict:
    """Per-combo speedup over the numpy/float64 reference row."""
    by_key = {(row["nn_backend"], row["compute_dtype"]): row for row in nn_rows}
    reference = by_key[("numpy", "float64")]["mean_round_sec"]
    return {
        f"{nn_backend}-{compute_dtype}": reference
        / by_key[(nn_backend, compute_dtype)]["mean_round_sec"]
        for nn_backend, compute_dtype in NN_COMBOS
    }


def _speedup(report: dict, num_clients: int) -> float:
    by_key = {(row["backend"], row["clients"]): row for row in report["rows"]}
    sequential = by_key[("sequential", num_clients)]["mean_round_sec"]
    process = by_key[("process", num_clients)]["mean_round_sec"]
    return sequential / process


def test_round_throughput(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print()
    for row in report["rows"]:
        print(
            f"  {row['backend']:>10s}  {row['clients']} clients: "
            f"{row['rounds_per_sec']:.2f} rounds/sec "
            f"({row['mean_round_sec'] * 1e3:.1f} ms/round)"
        )
    for num_clients in CLIENT_COUNTS:
        print(f"  speedup @{num_clients} clients: {_speedup(report, num_clients):.2f}x")
    for row in report["nn_backend_rows"]:
        print(
            f"  {row['nn_backend']:>11s}/{row['compute_dtype']:<8s}: "
            f"{row['mean_round_sec'] * 1e3:.1f} ms/round, "
            f"accuracy {row['test_accuracy']:.3f}"
        )
    print(f"  nn speedups: {report['nn_backend_speedup_vs_reference']}")
    for row in report["batched_rows"]:
        print(
            f"  {row['backend']:>10s} cohort "
            f"{row['nn_backend']}/{row['compute_dtype']}: "
            f"{row['rounds_per_sec']:.2f} rounds/sec"
        )
    print(f"  batched speedups: {report['batched_speedup_vs_sequential']}")
    for row in report["virtual_rows"]:
        print(
            f"  virtual {row['population']:>6d} clients @ cohort "
            f"{row['cohort']}: {row['rounds_per_sec']:.2f} rounds/sec, "
            f"peak RSS {row['peak_rss_mb']:.1f} MB, "
            f"max live {row['max_live_clients']}"
        )
    print(f"  virtual digest match: {report['virtual_digest_match']}")
    assert OUTPUT.exists()
    # Flat memory: only the cohort is ever live, at every population scale,
    # and lazy materialization must not change the trained bits.
    for row in report["virtual_rows"]:
        assert row["max_live_clients"] <= VIRTUAL_COHORT, row
    assert report["virtual_digest_match"]
    # Parallel wins require real cores; a single-core container pays IPC
    # overhead with nothing to parallelize over, so only assert there.
    # Gate on the affinity-visible count: os.cpu_count() reports the
    # machine, not what a container/cgroup lets the pool use.
    if report["cpus_visible"] >= NUM_WORKERS:
        assert _speedup(report, 8) >= 2.0
    # Batching the cohort must reproduce the sequential bits exactly on
    # every backend x dtype combo...
    assert all(report["batched_digest_match"].values()), report[
        "batched_digest_match"
    ]
    # ...and collapse per-client Python dispatch into grouped kernels.  The
    # published JSON shows >=3x at accelerated/float32; assert a safety
    # margin below that so a loaded CI box doesn't flake the suite.
    assert report["batched_speedup_vs_sequential"]["accelerated-float32"] >= 2.0
    # The accelerated float32 path must beat the reference by >=1.3x on
    # this conv-heavy workload while staying within 0.5pp of its accuracy.
    speedups = report["nn_backend_speedup_vs_reference"]
    assert speedups["accelerated-float32"] >= 1.3
    by_key = {
        (row["nn_backend"], row["compute_dtype"]): row
        for row in report["nn_backend_rows"]
    }
    reference_accuracy = by_key[("numpy", "float64")]["test_accuracy"]
    fast_accuracy = by_key[("accelerated", "float32")]["test_accuracy"]
    assert abs(fast_accuracy - reference_accuracy) <= 0.005


if __name__ == "__main__":
    generated = run_bench()
    print(json.dumps(generated, indent=2))
    for count in CLIENT_COUNTS:
        print(f"speedup @{count} clients: {_speedup(generated, count):.2f}x")
    print(f"nn speedups: {generated['nn_backend_speedup_vs_reference']}")
    print(f"batched speedups: {generated['batched_speedup_vs_sequential']}")
    print(f"batched digests match: {generated['batched_digest_match']}")
    print(f"virtual digest match: {generated['virtual_digest_match']}")
