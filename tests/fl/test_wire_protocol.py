"""Versioned wire protocol: codec round-trips, framing, and backend identity.

Three layers of guarantees:

* **Payload level** — every codec round-trips through ``decode_update``
  within its stated error bound (bit-exactly for ``none`` and for the
  top-k telescoping identity), across dtypes, memory orders, empty and
  0-d leaves; malformed payloads are rejected with
  :class:`WireFormatError`, never silently misdecoded.
* **System level** — ``--codec none`` is bit-identical to the pre-codec
  wire path on all four execution backends (pinned digest for the
  synchronous ones, pairwise identity for async), and a top-k run
  checkpoints/resumes bit-identically *including* the per-client
  error-feedback residuals.
* **Telemetry level** — compressed rounds report fewer upload bytes than
  their dense baseline, and checkpoints refuse to restore under a
  different codec.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.core.config import CheckpointConfig
from repro.data.partition import partition_iid
from repro.fl.async_engine import AsyncExecutor
from repro.fl.batched import BatchedExecutor
from repro.fl.checkpoint import latest_checkpoint, load_checkpoint
from repro.fl.client import ClientConfig, FLClient
from repro.fl import communication
from repro.fl.communication import (
    WIRE_FORMAT_VERSION,
    WIRE_MAGIC,
    NoneCodec,
    QSGDCodec,
    TopKCodec,
    WireFormatError,
    _topk_indices,
    codec_name,
    decode_update,
    make_codec,
)
from repro.fl.executor import ParallelExecutor, SequentialExecutor, make_executor
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.backend import use_compute_dtype
from repro.nn.models import build_model
from repro.nn.serialization import pack_state_dict, state_dict_nbytes
from repro.utils.rng import derive_rng

from tests.fl.test_backend_identity import (
    PINNED_DIGEST,
    _run_plain_conv_federation,
    _run_reference_simulation,
    _state_dict_digest,
)

_HEADER = struct.Struct("<4sBBHI")


def _awkward_state():
    """State dict stressing every framing edge: dtypes, orders, shapes."""
    base = np.arange(24, dtype=np.float64).reshape(4, 6)
    return {
        "f64": base.copy(),
        "f32": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
        "fortran": np.asfortranarray(base * 0.5),
        "strided": base[::2, ::3],  # non-contiguous view
        "empty": np.zeros((0, 3), dtype=np.float64),
        "scalar_f": np.float64(2.5),
        "scalar_i": np.int64(7),
        "ints": np.array([[1, -2], [3, -4]], dtype=np.int32),
        "bools": np.array([True, False, True]),
    }


def _zeros_reference(state):
    return {name: np.zeros_like(np.asarray(value)) for name, value in state.items()}


class TestPayloadRoundTrip:
    def test_none_codec_payload_is_exactly_pack_state_dict(self):
        state = _awkward_state()
        payload, residual = NoneCodec().encode_update(0, 0, state)
        assert residual is None
        assert payload == pack_state_dict(state)
        decoded = decode_update(payload)
        for name, value in state.items():
            assert np.array_equal(decoded[name], np.asarray(value)), name

    def test_framed_round_trip_preserves_dtype_shape_and_order(self):
        # fraction=1.0 keeps every coordinate at full precision, and a
        # zero reference makes base + delta an exact float identity — so
        # the framed path must reproduce every leaf bit for bit.
        # min_sparsify_size=0 forces the topk scheme even on tiny leaves
        # (the default would ship them raw and dodge the framing paths
        # this test exists to cover).
        state = _awkward_state()
        reference = _zeros_reference(state)
        payload, _ = TopKCodec(fraction=1.0, min_sparsify_size=0).encode_update(
            0, 0, state, reference=reference
        )
        decoded = decode_update(payload, reference=reference)
        assert set(decoded) == set(state)
        for name in state:
            expected = np.asarray(state[name])
            assert decoded[name].dtype == expected.dtype, name
            assert decoded[name].shape == expected.shape, name
            assert np.array_equal(decoded[name], expected), name

    def test_topk_error_feedback_conserves_the_accumulator_exactly(self):
        # Transmitted values and the residual have disjoint supports, so
        # per round ``decoded_delta + residual == delta + prev_residual``
        # must hold with zero float error (a zero reference makes the
        # decoded delta exactly the transmitted values).
        rng = np.random.default_rng(0)
        state = {"w": rng.normal(size=(16, 8)), "b": rng.normal(size=16)}
        reference = _zeros_reference(state)
        residual = None
        codec = TopKCodec(fraction=0.1)
        total_decoded = {k: np.zeros_like(v) for k, v in state.items()}
        for round_index in range(3):
            previous = residual
            payload, residual = codec.encode_update(
                round_index, 5, state, reference=reference, residual=previous
            )
            decoded = decode_update(payload, reference=reference)
            for name in state:
                accumulated = state[name] + (
                    previous[name] if previous is not None else 0.0
                )
                assert np.array_equal(
                    decoded[name] + residual[name], accumulated
                ), name
                total_decoded[name] += decoded[name]
        # Across rounds the only error left is float re-association:
        # transmitted totals plus the final residual recover N * delta to
        # machine precision, so no mass is ever dropped.
        for name in state:
            np.testing.assert_allclose(
                total_decoded[name] + residual[name], 3 * state[name], rtol=1e-12
            )

    def test_topk_payload_is_canonical_and_sparse(self):
        state = {"w": np.arange(1000, dtype=np.float64)}
        reference = {"w": np.zeros(1000)}
        codec = TopKCodec(fraction=0.05)
        first, _ = codec.encode_update(0, 0, state, reference=reference)
        second, _ = codec.encode_update(0, 0, state, reference=reference)
        assert first == second  # deterministic, canonical index order
        assert len(first) < state_dict_nbytes(state)

    def test_qsgd_is_seeded_per_round_and_client(self):
        rng = np.random.default_rng(1)
        state = {"w": rng.normal(size=(32,))}
        reference = {"w": np.zeros(32)}
        codec = QSGDCodec(levels=16, seed=0)
        same_a, _ = codec.encode_update(2, 7, state, reference=reference)
        same_b, _ = codec.encode_update(2, 7, state, reference=reference)
        other_round, _ = codec.encode_update(3, 7, state, reference=reference)
        other_client, _ = codec.encode_update(2, 8, state, reference=reference)
        assert same_a == same_b
        assert same_a != other_round
        assert same_a != other_client

    def test_qsgd_error_is_bounded_by_scale_over_levels(self):
        rng = np.random.default_rng(2)
        state = {"w": rng.normal(size=(64,))}
        reference = {"w": np.zeros(64)}
        levels = 16
        payload, _ = QSGDCodec(levels=levels).encode_update(
            0, 0, state, reference=reference
        )
        decoded = decode_update(payload, reference=reference)
        scale = float(np.max(np.abs(state["w"])))
        assert np.max(np.abs(decoded["w"] - state["w"])) <= scale / levels + 1e-12

    def test_retired_delta_frames_are_refused(self):
        # Earlier builds had a float32 "delta" codec: codec id 3, leaf
        # scheme 3.  Both ids now fail the decoder's unknown-id checks.
        rng = np.random.default_rng(3)
        state = {"w": rng.normal(size=(8, 8))}
        reference = {"w": rng.normal(size=(8, 8))}
        blob = zlib.compress((state["w"] - reference["w"]).astype(np.float32).tobytes())
        frames = [communication._frame_leaf("w", state["w"], 3, blob)]
        with pytest.raises(WireFormatError, match="unknown codec id"):
            decode_update(communication._pack_frames(3, frames), reference=reference)
        with pytest.raises(WireFormatError, match="unknown encoding scheme"):
            decode_update(communication._pack_frames(1, frames), reference=reference)

    def test_make_codec_registry(self):
        assert make_codec(None) is None
        assert make_codec("none") is None
        assert make_codec("topk", topk_fraction=0.2).fraction == 0.2
        assert make_codec("qsgd", qsgd_levels=8).levels == 8
        for retired in ("gzip", "delta"):
            with pytest.raises(ValueError, match="unknown codec"):
                make_codec(retired)
        assert codec_name(None) == "none"
        assert codec_name(make_codec("topk")) == "topk"


def _stable_argsort_topk(accumulated, k):
    """Oracle: the first ``k`` entries of a stable sort on ``-|accumulated|``."""
    return np.sort(np.argsort(-np.abs(accumulated), kind="stable")[:k])


class TestTopKSelection:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_stable_argsort_on_random_leaves(self, dtype):
        rng = np.random.default_rng(0)
        for trial in range(300):
            size = int(rng.integers(1, 300))
            leaf = rng.normal(size=size)
            if trial % 2:
                leaf = np.round(leaf * 2) / 2  # magnitude ties and zeros
            if trial % 3 == 0:
                leaf[rng.random(size) < 0.2] = np.nan
            if trial % 5 == 0:
                leaf[rng.random(size) < 0.1] = rng.choice([np.inf, -np.inf])
            leaf = leaf.astype(dtype)
            for k in {1, size, int(rng.integers(1, size + 1))}:
                np.testing.assert_array_equal(
                    _topk_indices(leaf, k), _stable_argsort_topk(leaf, k)
                )

    @pytest.mark.parametrize(
        "leaf, k",
        [
            (np.arange(7, dtype=np.float64), 7),  # k == size
            (np.zeros(9), 4),  # all ties
            (np.full(6, -0.0), 2),
            (np.array([0.5, np.nan, 2, -np.inf, 1, np.nan]), 3),
            (np.array([np.inf] + [np.nan] * 8), 3),  # the nan_bomb attack's leaf
            (np.full(5, np.nan), 2),
            (np.array([np.nan, -1.0, np.nan, 1.0]), 4),
        ],
    )
    def test_edge_leaves(self, leaf, k):
        np.testing.assert_array_equal(
            _topk_indices(leaf, k), _stable_argsort_topk(leaf, k)
        )

    def test_cohort_update_encodes_to_the_argsort_payload(self, monkeypatch):
        # The cross-device CIP cohort's update: a dual-channel Purchase-50
        # MLP, a step's worth of drift, untouched (zero-delta) units and an
        # error-feedback residual.  Rounding leaves magnitude ties at every
        # weight leaf's k-th largest entry.
        model = build_model("mlp", 50, dual_channel=True, in_features=64, seed=3)
        reference = model.state_dict()
        rng = np.random.default_rng(3)
        state, residual = {}, {}
        for name, value in reference.items():
            delta = np.round(rng.normal(scale=1e-2, size=value.shape), 3)
            delta[rng.random(value.shape) < 0.3] = 0.0
            state[name] = value + delta
            residual[name] = np.round(rng.normal(scale=1e-3, size=value.shape), 3)
        codec = TopKCodec(fraction=0.05)
        payload, leftover = codec.encode_update(
            4, 17, state, reference=reference, residual=residual
        )
        monkeypatch.setattr(communication, "_topk_indices", _stable_argsort_topk)
        oracle_payload, oracle_leftover = codec.encode_update(
            4, 17, state, reference=reference, residual=residual
        )
        assert payload == oracle_payload
        for name in oracle_leftover:
            assert np.array_equal(leftover[name], oracle_leftover[name]), name


def _framed_payload():
    state = {"w": np.arange(6, dtype=np.float64)}
    reference = {"w": np.zeros(6)}
    payload, _ = TopKCodec(fraction=0.5, min_sparsify_size=0).encode_update(
        0, 0, state, reference=reference
    )
    return payload, reference


class TestHeaderRejection:
    def test_truncated_header(self):
        payload, reference = _framed_payload()
        with pytest.raises(WireFormatError, match="truncated"):
            decode_update(payload[: _HEADER.size - 2], reference=reference)

    def test_truncated_body(self):
        payload, reference = _framed_payload()
        with pytest.raises(WireFormatError):
            decode_update(payload[:-3], reference=reference)

    def test_unknown_magic(self):
        payload, reference = _framed_payload()
        with pytest.raises(WireFormatError, match="neither npz"):
            decode_update(b"XXXX" + payload[4:], reference=reference)

    def test_future_version(self):
        payload, reference = _framed_payload()
        magic, version, codec_id, reserved, leaves = _HEADER.unpack(
            payload[: _HEADER.size]
        )
        doctored = (
            _HEADER.pack(magic, version + 1, codec_id, reserved, leaves)
            + payload[_HEADER.size :]
        )
        with pytest.raises(WireFormatError, match="format version"):
            decode_update(doctored, reference=reference)

    def test_unknown_codec_id(self):
        payload, reference = _framed_payload()
        doctored = (
            _HEADER.pack(WIRE_MAGIC, WIRE_FORMAT_VERSION, 200, 0, 1)
            + payload[_HEADER.size :]
        )
        with pytest.raises(WireFormatError, match="unknown codec id"):
            decode_update(doctored, reference=reference)

    def test_nonzero_reserved_bits(self):
        payload, reference = _framed_payload()
        magic, version, codec_id, _, leaves = _HEADER.unpack(payload[: _HEADER.size])
        doctored = (
            _HEADER.pack(magic, version, codec_id, 1, leaves)
            + payload[_HEADER.size :]
        )
        with pytest.raises(WireFormatError, match="reserved"):
            decode_update(doctored, reference=reference)

    def test_trailing_bytes(self):
        payload, reference = _framed_payload()
        with pytest.raises(WireFormatError, match="trailing"):
            decode_update(payload + b"\x00", reference=reference)

    def test_reference_coded_payload_requires_reference(self):
        payload, _ = _framed_payload()
        with pytest.raises(WireFormatError, match="reference"):
            decode_update(payload)

    def test_reference_shape_mismatch(self):
        payload, _ = _framed_payload()
        with pytest.raises(WireFormatError, match="shape"):
            decode_update(payload, reference={"w": np.zeros(7)})


class TestBackendIdentity:
    """``--codec none`` must be bitwise-identical to the pre-codec path."""

    @pytest.mark.parametrize(
        "executor_factory",
        [
            lambda: SequentialExecutor(codec=NoneCodec()),
            lambda: BatchedExecutor(codec=NoneCodec()),
            lambda: ParallelExecutor(num_workers=2, codec=NoneCodec()),
        ],
        ids=["sequential", "batched", "process"],
    )
    def test_sync_backends_reproduce_pinned_digest_under_none_codec(
        self, executor_factory
    ):
        with use_compute_dtype("float64"):
            state = _run_reference_simulation(executor_factory())
        assert _state_dict_digest(state) == PINNED_DIGEST

    def test_async_none_codec_matches_async_without_codec(self):
        with use_compute_dtype("float64"):
            plain_state, plain_losses = _run_plain_conv_federation(
                AsyncExecutor(buffer_size=3)
            )
            codec_state, codec_losses = _run_plain_conv_federation(
                AsyncExecutor(buffer_size=3, codec=NoneCodec())
            )
        assert plain_losses == codec_losses
        assert _state_dict_digest(plain_state) == _state_dict_digest(codec_state)

    def test_make_executor_resolves_codec_names(self):
        executor = make_executor("sequential", codec="topk", topk_fraction=0.25)
        assert executor.codec.name == "topk"
        assert executor.codec.fraction == 0.25
        assert make_executor("sequential", codec="none").codec is None
        with pytest.raises(TypeError):
            make_executor("sequential", codec=3.14)


def _build_codec_sim(dataset, directory, codec, every=1):
    def factory():
        return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)

    shards = partition_iid(dataset, 2, seed=0)
    server = FLServer(factory)
    clients = [
        FLClient(
            i, shards[i], factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "wire", i),
        )
        for i in range(2)
    ]
    return FederatedSimulation(
        server,
        clients,
        executor=SequentialExecutor(codec=codec),
        checkpoint=CheckpointConfig(directory=directory, every=every),
    )


class TestCheckpointing:
    def test_topk_resume_is_bit_identical_including_residuals(
        self, tiny_vector_dataset, tmp_path
    ):
        reference = _build_codec_sim(
            tiny_vector_dataset, str(tmp_path / "a"), TopKCodec(fraction=0.25)
        )
        reference.run(4)

        directory = str(tmp_path / "b")
        _build_codec_sim(
            tiny_vector_dataset, directory, TopKCodec(fraction=0.25)
        ).run(2)
        resumed = _build_codec_sim(
            tiny_vector_dataset, directory, TopKCodec(fraction=0.25)
        )
        resumed.resume(4)

        ref_state = reference.server.global_state()
        res_state = resumed.server.global_state()
        for key in ref_state:
            assert np.array_equal(ref_state[key], res_state[key]), key
        # The error-feedback residuals are part of the stream: a resumed
        # run must carry the exact same per-client leftovers forward.
        for ref_client, res_client in zip(reference.clients, resumed.clients):
            ref_residual = ref_client._wire_residual
            res_residual = res_client._wire_residual
            assert ref_residual is not None and res_residual is not None
            assert set(ref_residual) == set(res_residual)
            for name in ref_residual:
                assert np.array_equal(
                    ref_residual[name], res_residual[name]
                ), name

    def test_checkpoint_records_codec_and_refuses_mismatch(
        self, tiny_vector_dataset, tmp_path
    ):
        directory = str(tmp_path / "codec")
        _build_codec_sim(
            tiny_vector_dataset, directory, TopKCodec(fraction=0.25)
        ).run(2)
        payload = load_checkpoint(latest_checkpoint(directory))
        assert payload["wire_codec"] == "topk"
        assert payload["wire_format_version"] == WIRE_FORMAT_VERSION

        fresh = _build_codec_sim(tiny_vector_dataset, directory, None)
        with pytest.raises(ValueError, match="incompatible checkpoint"):
            fresh.resume(3)

    def test_pre_codec_checkpoint_loads_under_none(
        self, tiny_vector_dataset, tmp_path
    ):
        # Checkpoints written before the wire protocol carry no codec
        # metadata; they were all produced by the dense path.
        directory = str(tmp_path / "legacy")
        _build_codec_sim(tiny_vector_dataset, directory, None).run(2)
        path = latest_checkpoint(directory)
        payload = load_checkpoint(path)
        del payload["wire_codec"], payload["wire_format_version"]
        # Rewritten headerless, exactly as pre-digest builds wrote it.
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        resumed = _build_codec_sim(tiny_vector_dataset, directory, None)
        resumed.resume(3)
        assert resumed.server.round == 3


class TestCompressionTelemetry:
    @pytest.mark.parametrize("codec_spec", ["topk", "qsgd"])
    def test_compressed_uploads_are_smaller_than_dense(
        self, tiny_vector_dataset, tmp_path, codec_spec
    ):
        codec = make_codec(codec_spec, topk_fraction=0.05, qsgd_levels=16)
        sim = _build_codec_sim(
            tiny_vector_dataset, str(tmp_path / codec_spec), codec
        )
        history = sim.run(2)
        for metrics in history.round_metrics:
            assert metrics.bytes_aggregated_dense > 0
            assert metrics.bytes_aggregated < metrics.bytes_aggregated_dense

    def test_dense_path_reports_equal_wire_and_dense_bytes(
        self, tiny_vector_dataset, tmp_path
    ):
        sim = _build_codec_sim(tiny_vector_dataset, str(tmp_path / "dense"), None)
        history = sim.run(1)
        metrics = history.round_metrics[0]
        assert metrics.bytes_aggregated == metrics.bytes_aggregated_dense

    def test_ledger_tracks_both_directions(self, tiny_vector_dataset, tmp_path):
        codec = TopKCodec(fraction=0.1)
        sim = _build_codec_sim(tiny_vector_dataset, str(tmp_path / "ledger"), codec)
        sim.run(2)
        ledger = sim.executor.ledger
        assert ledger.rounds == 2
        assert ledger.total_broadcast_bytes > 0
        assert ledger.total_upload_bytes > 0
        assert ledger.total_upload_bytes < ledger.total_broadcast_bytes
