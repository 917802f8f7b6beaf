"""Communication compression: accuracy-vs-bytes Pareto over wire codecs.

One sweep, one JSON: the conv-heavy smoke federation (VGG stages on
synthetic images — the same workload ``bench_round_throughput`` times)
trained to convergence under every wire codec, recording per row the
uploaded megabytes (actual wire payload sizes), the dense baseline the
same rounds would have cost, the final test accuracy, and a digest of the
final global state.  Together the rows are the Pareto front a deployment
picks from: how many bytes each codec saves and what accuracy it pays.

Codec axis:

* ``none`` — the dense reference path; its digest must match a run with
  no codec object at all (the ``--codec none`` identity).
* ``topk`` — 5% magnitude sparsification with per-client error feedback;
  the headline row, expected >=10x upload reduction within 0.5pp of the
  dense accuracy.
* ``qsgd`` — stochastic int8 quantization, ~8x (before zlib).
* ``delta`` — float32 delta vs broadcast, ~2x; the lossless-ish floor.

Writes ``BENCH_comm_compression.json`` at the repo root.

Run directly (the usual way):

    PYTHONPATH=src python benchmarks/bench_comm_compression.py

or through pytest-benchmark alongside the paper benches:

    pytest benchmarks/bench_comm_compression.py --benchmark-only -s
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.data.partition import partition_iid
from repro.data.synthetic import ImageSpec, generate_image_dataset
from repro.fl.client import ClientConfig, FLClient
from repro.fl.communication import NoneCodec, make_codec
from repro.fl.executor import SequentialExecutor
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

#: Codec rows of the sweep.  Each codec fixes its own wire precision (none
#: and topk ship full-precision values, qsgd int8 levels, delta float32).
CODECS = ("none", "topk", "qsgd", "delta")
TOPK_FRACTION = 0.05
QSGD_LEVELS = 16
ROUNDS = 11
NUM_CLIENTS = 2
_SPEC = ImageSpec(num_classes=4, channels=1, height=16, width=16, noise_scale=0.1)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_comm_compression.json"


def _build_conv_federation(seed: int = 0):
    dataset = generate_image_dataset(_SPEC, samples_per_class=48, seed=seed)
    shards = partition_iid(dataset, NUM_CLIENTS, seed=derive_rng(seed, "comm-p"))

    def factory():
        # Two convs per stage: weight matrices must dominate the wire cost
        # for the sparsification ratio to mean anything — a model that is
        # mostly biases and norm statistics measures framing overhead, not
        # compression (those leaves ship dense by design).
        return build_model(
            "vgg", _SPEC.num_classes, in_channels=_SPEC.channels,
            stage_channels=(16, 32), convs_per_stage=2,
            seed=derive_rng(seed, "comm-m"),
        )

    server = FLServer(factory)
    clients = [
        FLClient(i, shards[i], factory, ClientConfig(lr=5e-2, batch_size=16),
                 seed=derive_rng(seed, "comm-c", i))
        for i in range(NUM_CLIENTS)
    ]
    return server, clients, dataset


def _state_digest(state: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _make_row_codec(codec: str):
    if codec == "none":
        return NoneCodec()
    return make_codec(
        codec, topk_fraction=TOPK_FRACTION, qsgd_levels=QSGD_LEVELS
    )


def _run_combo(codec: str, executor=None) -> dict:
    if executor is None:
        executor = SequentialExecutor(codec=_make_row_codec(codec))
    server, clients, dataset = _build_conv_federation()
    with FederatedSimulation(server, clients, executor=executor) as sim:
        sim.run(ROUNDS)
        metrics = sim.history.round_metrics
        accuracy = sim.evaluate_global(dataset).accuracy
        state = server.global_state()
    upload = sum(m.bytes_aggregated for m in metrics)
    dense = sum(m.bytes_aggregated_dense for m in metrics)
    return {
        "codec": codec,
        "clients": NUM_CLIENTS,
        "rounds": ROUNDS,
        "test_accuracy": accuracy,
        "state_digest": _state_digest(state),
        "mb_upload_per_round": upload / ROUNDS / 1e6,
        "mb_upload_dense_per_round": dense / ROUNDS / 1e6,
        "upload_reduction": (dense / upload) if upload else float("inf"),
    }


def run_bench() -> dict:
    # Reference: no codec object at all — the executors' dense fast path.
    baseline = _run_combo("baseline", executor=SequentialExecutor())
    rows = [_run_combo(codec) for codec in CODECS]
    for row in rows:
        row["accuracy_drop_pp"] = round(
            100.0 * (baseline["test_accuracy"] - row["test_accuracy"]), 4
        )
    report = {
        "benchmark": "comm_compression",
        "topk_fraction": TOPK_FRACTION,
        "qsgd_levels": QSGD_LEVELS,
        "baseline": baseline,
        "rows": rows,
        # The Pareto reading: rows ordered by bytes on the wire; a row is
        # dominated if an earlier row has both fewer bytes and at least
        # its accuracy.
        "pareto_by_upload": [
            {
                "codec": row["codec"],
                "mb_upload_per_round": row["mb_upload_per_round"],
                "test_accuracy": row["test_accuracy"],
            }
            for row in sorted(rows, key=lambda r: r["mb_upload_per_round"])
        ],
        "none_codec_digest_match": rows[0]["state_digest"]
        == baseline["state_digest"],
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _row(report: dict, codec: str) -> dict:
    return next(row for row in report["rows"] if row["codec"] == codec)


def test_comm_compression(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print()
    for row in [report["baseline"], *report["rows"]]:
        print(
            f"  {row['codec']:>8s}: "
            f"{row['mb_upload_per_round']:.4f} MB/round up "
            f"({row.get('upload_reduction', 1.0):.1f}x), "
            f"accuracy {row['test_accuracy']:.3f}"
        )
    # --codec none is the pre-codec wire path, bit for bit.
    assert report["none_codec_digest_match"], "none codec moved the bits"
    # The headline Pareto point: topk cuts uploads >=10x at <=0.5pp cost.
    topk = _row(report, "topk")
    assert topk["upload_reduction"] >= 10.0, topk
    assert abs(topk["accuracy_drop_pp"]) <= 0.5, topk
    # Every compressed row actually compresses.
    for codec in ("topk", "qsgd", "delta"):
        assert _row(report, codec)["upload_reduction"] > 1.0, codec
    assert OUTPUT.exists()


if __name__ == "__main__":
    generated = run_bench()
    print(json.dumps(generated, indent=2))
