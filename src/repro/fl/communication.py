"""Wire protocol and communication accounting for federated runs.

At millions of clients the bottleneck is bytes, not FLOPs.  This module owns
everything that crosses the (simulated) wire:

* **Byte accounting** — :func:`state_dict_bytes` / :func:`round_traffic_bytes`
  and the :class:`CommunicationLedger` every round executor now feeds with the
  actual per-round broadcast/upload payload sizes.
* **A versioned, self-describing wire format** for client updates:

  .. code-block:: text

      offset 0   magic         b"RFW1"
      offset 4   version       u8   (WIRE_FORMAT_VERSION)
      offset 5   codec id      u8   (see CODEC_IDS)
      offset 6   reserved      u16  (zero)
      offset 8   leaf count    u32
      then, per leaf, sorted by name:
        u16 name length | name (utf-8)
        u8  dtype length | numpy dtype string (e.g. "<f8")
        u8  scheme        (0 raw / 1 topk / 2 qsgd / 3 delta32)
        u8  ndim | ndim x u64 dims
        u64 blob length | blob

  Truncated, mismatched, or unknown payloads raise :class:`WireFormatError`
  instead of silently decoding garbage.
* **Codecs** compressing a client's update against the broadcast reference:

  ======== ===================================================================
  ``none``  pass-through: the payload is exactly today's
            :func:`~repro.nn.serialization.pack_state_dict` npz bytes
            (bit-identical round trip, no framed header).
  ``topk``  per-leaf top-k magnitude sparsification of the update delta with
            **error feedback**: what a round leaves untransmitted is carried
            in the client's residual (part of
            :class:`~repro.fl.client.ClientMutableState`, hence checkpointed)
            and added back before the next round's selection, so transmitted
            deltas telescope to the true update exactly.
  ``qsgd``  QSGD-style stochastic quantization of the delta to signed int8
            levels.  The rounding randomness is derived statelessly from
            ``(codec seed, round, client)``, so encoding is deterministic
            across backends, retries, and checkpoint resume.
  ``delta`` float32 delta-vs-broadcast encoding, zlib-compressed — the cheap
            2x+ option when sparsity assumptions are off the table.
  ======== ===================================================================

  Decoding is fully self-describing given the broadcast reference:
  :func:`decode_update` dispatches on the leading magic bytes, so a payload
  can be decoded without knowing which codec produced it.

**Determinism contract.**  ``none`` round-trips bit-identically.  ``topk``
transmits exact (full-precision) delta entries, so ``sum(decoded deltas) +
residual == sum(true deltas)`` holds exactly per coordinate; two runs with
the same schedule produce identical payloads.  ``qsgd`` is lossy but its
stochastic rounding is a pure function of ``(seed, round, client)`` and the
update, so it, too, is bitwise replayable.  ``delta`` is deterministically
lossy (float32 rounding).  All codecs are applied at the executors' update
*collection* point and decoded immediately, so screening, robust
aggregation, and the global model always operate on real (post-wire) states.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import WIRE_CODECS
from repro.nn.serialization import pack_state_dict, unpack_state_dict
from repro.utils.rng import SeedLike, derive_rng

StateDict = Dict[str, np.ndarray]

# ----------------------------------------------------------------------
# Byte accounting
# ----------------------------------------------------------------------


def state_dict_bytes(state: StateDict) -> int:
    """Dense wire size of a state dict (array payloads only, no framing)."""
    return int(sum(value.nbytes for value in state.values()))


def round_traffic_bytes(state: StateDict, participants: int) -> int:
    """One FedAvg round: each participant downloads + uploads the model."""
    if participants < 0:
        raise ValueError("participants must be non-negative")
    return 2 * participants * state_dict_bytes(state)


@dataclass
class CommunicationLedger:
    """Accumulates per-round wire traffic, split by direction.

    Every :class:`~repro.fl.executor.RoundExecutor` owns one and records the
    round's actual payload sizes (post-codec for uploads) via
    :meth:`record_traffic`; :meth:`record_round` remains for model-based
    estimates (both directions ship the dense state).
    """

    per_round_broadcast: List[int] = field(default_factory=list)
    per_round_upload: List[int] = field(default_factory=list)

    def record_traffic(self, bytes_broadcast: int, bytes_upload: int) -> int:
        """Record one round's measured traffic; returns the round total."""
        self.per_round_broadcast.append(int(bytes_broadcast))
        self.per_round_upload.append(int(bytes_upload))
        return int(bytes_broadcast) + int(bytes_upload)

    def record_round(self, state: StateDict, participants: int) -> int:
        """Estimate one dense round (download + upload of ``state`` each)."""
        per_direction = participants * state_dict_bytes(state)
        return self.record_traffic(per_direction, per_direction)

    @property
    def per_round_bytes(self) -> List[int]:
        return [
            down + up
            for down, up in zip(self.per_round_broadcast, self.per_round_upload)
        ]

    @property
    def total_broadcast_bytes(self) -> int:
        return sum(self.per_round_broadcast)

    @property
    def total_upload_bytes(self) -> int:
        return sum(self.per_round_upload)

    @property
    def total_bytes(self) -> int:
        return self.total_broadcast_bytes + self.total_upload_bytes

    @property
    def rounds(self) -> int:
        return len(self.per_round_broadcast)

    def total_megabytes(self) -> float:
        return self.total_bytes / 1e6


def compare_traffic(
    state_a: StateDict, state_b: StateDict, participants: int, rounds: int
) -> Dict[str, float]:
    """Relative traffic of two model variants over an identical schedule.

    Returns totals and the percentage overhead of B over A — e.g. the
    dual-channel (CIP) model vs the legacy one.
    """
    total_a = round_traffic_bytes(state_a, participants) * rounds
    total_b = round_traffic_bytes(state_b, participants) * rounds
    overhead = 100.0 * (total_b - total_a) / total_a if total_a else 0.0
    return {
        "total_bytes_a": float(total_a),
        "total_bytes_b": float(total_b),
        "overhead_pct": overhead,
    }


# ----------------------------------------------------------------------
# Versioned wire format
# ----------------------------------------------------------------------

#: Leading magic of the framed wire format.
WIRE_MAGIC = b"RFW1"
#: Bump when the framing layout changes; decoders refuse unknown versions.
WIRE_FORMAT_VERSION = 1
#: npz payloads (the ``none`` codec, and every pre-codec payload) are zip
#: archives and always start with this signature.
_NPZ_MAGIC = b"PK\x03\x04"

#: Registered codec names, in codec-id order (canonically declared alongside
#: the other registry tuples in :mod:`repro.core.config`).
CODEC_IDS = {name: index for index, name in enumerate(WIRE_CODECS)}

#: Per-leaf encoding schemes.
_SCHEME_RAW = 0  # zlib-compressed verbatim bytes (non-float leaves)
_SCHEME_TOPK = 1  # zlib(u64 k | k x u32 flat indices | k x leaf-dtype values)
_SCHEME_QSGD = 2  # f64 scale | u16 levels | zlib-compressed int8 level array
_SCHEME_DELTA32 = 3  # zlib-compressed float32 delta array

_HEADER = struct.Struct("<4sBBHI")


class WireFormatError(ValueError):
    """A wire payload is truncated, mismatched, or from an unknown format."""


class _Reader:
    """Bounds-checked cursor over a wire payload."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if count < 0 or end > len(self.payload):
            raise WireFormatError(
                f"truncated wire payload: needed {count} bytes at offset "
                f"{self.offset} but only {len(self.payload) - self.offset} remain"
            )
        chunk = self.payload[self.offset : end]
        self.offset = end
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def done(self) -> bool:
        return self.offset == len(self.payload)


_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _frame_leaf(
    name: str, value: np.ndarray, scheme: int, blob: bytes
) -> bytes:
    encoded_name = name.encode("utf-8")
    dtype_str = value.dtype.str.encode("ascii")
    if len(encoded_name) > 0xFFFF:
        raise WireFormatError(f"leaf name too long to frame: {name!r}")
    if len(dtype_str) > 0xFF:  # pragma: no cover - numpy dtype strings are short
        raise WireFormatError(f"dtype string too long to frame: {dtype_str!r}")
    parts = [
        _U16.pack(len(encoded_name)),
        encoded_name,
        _U8.pack(len(dtype_str)),
        dtype_str,
        _U8.pack(scheme),
        _U8.pack(value.ndim),
    ]
    parts.extend(_U64.pack(dim) for dim in value.shape)
    parts.append(_U64.pack(len(blob)))
    parts.append(blob)
    return b"".join(parts)


def _read_leaf_header(reader: _Reader) -> Tuple[str, np.dtype, int, Tuple[int, ...]]:
    (name_len,) = reader.unpack(_U16)
    name = reader.take(name_len).decode("utf-8")
    (dtype_len,) = reader.unpack(_U8)
    try:
        dtype = np.dtype(reader.take(dtype_len).decode("ascii"))
    except (TypeError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"leaf {name!r} carries an unreadable dtype") from exc
    (scheme,) = reader.unpack(_U8)
    (ndim,) = reader.unpack(_U8)
    shape = tuple(reader.unpack(_U64)[0] for _ in range(ndim))
    return name, dtype, scheme, shape


def _pack_frames(codec_id: int, frames: List[bytes]) -> bytes:
    header = _HEADER.pack(WIRE_MAGIC, WIRE_FORMAT_VERSION, codec_id, 0, len(frames))
    return header + b"".join(frames)


def _reference_leaf(
    reference: Optional[StateDict], name: str, shape: Tuple[int, ...]
) -> np.ndarray:
    if reference is None:
        raise WireFormatError(
            f"payload leaf {name!r} is reference-coded but no broadcast "
            "reference state was supplied to decode_update"
        )
    if name not in reference:
        raise WireFormatError(
            f"payload leaf {name!r} is absent from the broadcast reference"
        )
    base = np.asarray(reference[name])
    if base.shape != shape:
        raise WireFormatError(
            f"payload leaf {name!r} has wire shape {shape} but the broadcast "
            f"reference has {base.shape}"
        )
    return base


def _decompress(blob: bytes, name: str) -> bytes:
    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        raise WireFormatError(f"leaf {name!r} holds corrupt compressed data") from exc


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------


class Codec:
    """Compresses one client update into a wire payload (and back).

    ``encode_update`` returns ``(payload, residual)``: the framed payload
    plus the client's next error-feedback residual (``None`` for memoryless
    codecs).  Decoding is codec-independent — use module-level
    :func:`decode_update`, which dispatches on the payload header.
    """

    name = "abstract"
    #: Whether encode/decode need the broadcast reference state.
    needs_reference = True

    @property
    def codec_id(self) -> int:
        return CODEC_IDS[self.name]

    def encode_update(
        self,
        round_index: int,
        client_id: int,
        state: StateDict,
        reference: Optional[StateDict] = None,
        residual: Optional[StateDict] = None,
    ) -> Tuple[bytes, Optional[StateDict]]:
        raise NotImplementedError

    def _require_reference(self, reference: Optional[StateDict]) -> StateDict:
        if reference is None:
            raise ValueError(
                f"codec {self.name!r} encodes against the broadcast reference "
                "state, but none was supplied"
            )
        return reference


class NoneCodec(Codec):
    """Pass-through codec: the payload is exactly ``pack_state_dict`` bytes.

    No framed header is added — the npz payload *is* today's wire format,
    so ``--codec none`` is bit-identical to pre-codec payloads by
    construction.
    """

    name = "none"
    needs_reference = False

    def encode_update(
        self,
        round_index: int,
        client_id: int,
        state: StateDict,
        reference: Optional[StateDict] = None,
        residual: Optional[StateDict] = None,
    ) -> Tuple[bytes, Optional[StateDict]]:
        return pack_state_dict(state), None


def _float_leaves(state: StateDict) -> List[str]:
    return [
        name
        for name in sorted(state)
        if np.issubdtype(np.asarray(state[name]).dtype, np.floating)
    ]


def _raw_frame(name: str, value: np.ndarray) -> bytes:
    # tobytes() always emits C-order bytes (and, unlike ascontiguousarray,
    # never promotes 0-d leaves to shape (1,)).
    return _frame_leaf(name, value, _SCHEME_RAW, zlib.compress(value.tobytes(), 6))


def _topk_indices(accumulated: np.ndarray, k: int) -> np.ndarray:
    """Ascending flat indices of the ``k`` largest magnitudes of a 1-D array.

    The selection is the first ``k`` entries of a stable sort on
    ``-|accumulated|``: magnitude ties go to the lowest flat index and NaN
    ranks below every number, which makes the payload canonical.  It runs
    without the full sort: ``np.partition`` finds the k-th largest
    magnitude, every entry above it is kept, and the lowest-index ties fill
    the rest.
    """
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    magnitude = np.abs(accumulated)
    # Magnitudes are >= 0, so -1 ranks NaN last, as the sort does.
    magnitude[np.isnan(magnitude)] = -1
    threshold = np.partition(magnitude, magnitude.size - k)[magnitude.size - k]
    above = np.flatnonzero(magnitude > threshold)
    ties = np.flatnonzero(magnitude == threshold)[: k - above.size]
    return np.sort(np.concatenate([above, ties]))


class TopKCodec(Codec):
    """Top-k magnitude sparsification of the delta, with error feedback.

    Per float leaf the codec accumulates ``delta + residual``, keeps the
    ``ceil(fraction * size)`` largest-magnitude coordinates (ties broken by
    lowest flat index, so payloads are deterministic), transmits their flat
    ``u32`` indices plus their **full-precision** values, and carries the
    untransmitted remainder forward as the client's next residual.  Because
    transmitted values are exact copies of accumulator entries, transmitted
    deltas + the final residual reconstruct the sum of true deltas exactly.
    Non-float leaves (integer buffers) ship verbatim.

    Leaves smaller than ``min_sparsify_size`` elements also ship verbatim,
    at full precision and with a zero residual.  Small leaves are biases,
    norm scales, and batch-norm running statistics — tensors where deferred
    error feedback is actively harmful (a ``running_var`` reconstructed
    from a stale accumulated delta can go negative and NaN the forward
    pass) and where sparsification saves almost nothing anyway.  Weight
    matrices dominate the wire cost and are the only leaves worth cutting.
    """

    name = "topk"

    def __init__(self, fraction: float = 0.05, min_sparsify_size: int = 64) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("topk fraction must be in (0, 1]")
        if min_sparsify_size < 0:
            raise ValueError("min_sparsify_size must be non-negative")
        self.fraction = float(fraction)
        self.min_sparsify_size = int(min_sparsify_size)

    def encode_update(
        self,
        round_index: int,
        client_id: int,
        state: StateDict,
        reference: Optional[StateDict] = None,
        residual: Optional[StateDict] = None,
    ) -> Tuple[bytes, Optional[StateDict]]:
        reference = self._require_reference(reference)
        frames: List[bytes] = []
        next_residual: StateDict = {}
        for name in sorted(state):
            value = np.asarray(state[name])
            if not np.issubdtype(value.dtype, np.floating):
                frames.append(_raw_frame(name, value))
                continue
            if value.size < self.min_sparsify_size:
                frames.append(_raw_frame(name, value))
                next_residual[name] = np.zeros_like(value)
                continue
            base = _reference_leaf(reference, name, value.shape)
            accumulated = (value - base.astype(value.dtype, copy=False)).ravel()
            if residual is not None and name in residual:
                accumulated = accumulated + residual[name].ravel()
            size = accumulated.size
            if size > 0xFFFFFFFF:
                raise WireFormatError(
                    f"leaf {name!r} has {size} elements; topk framing indexes "
                    "with u32"
                )
            k = min(size, max(1, int(np.ceil(self.fraction * size)))) if size else 0
            indices = _topk_indices(accumulated, k).astype(np.uint32)
            values = accumulated[indices].astype(value.dtype, copy=True)
            leftover = accumulated.astype(value.dtype, copy=True)
            leftover[indices] = 0
            next_residual[name] = leftover.reshape(value.shape)
            # Ascending u32 indices are byte-sparse (their high bytes are
            # mostly zero), so the blob compresses well even though the
            # full-precision values barely do.
            body = _U64.pack(int(k)) + indices.tobytes() + values.tobytes()
            frames.append(
                _frame_leaf(name, value, _SCHEME_TOPK, zlib.compress(body))
            )
        return _pack_frames(self.codec_id, frames), next_residual


class QSGDCodec(Codec):
    """QSGD-style stochastic quantization of the delta to signed int8 levels.

    Each float leaf is scaled by its max magnitude and stochastically rounded
    to one of ``levels`` quantization levels per sign.  The rounding draws
    come from ``derive_rng(seed, "qsgd", round, client)`` — a pure function
    of the schedule — so encoding is deterministic across backends, retries,
    and resume.  Level arrays are zlib-compressed (near-zero deltas quantize
    to long zero runs).
    """

    name = "qsgd"

    def __init__(self, levels: int = 16, seed: SeedLike = 0) -> None:
        if not 1 <= int(levels) <= 127:
            raise ValueError("qsgd levels must be in [1, 127] (signed int8)")
        self.levels = int(levels)
        self.seed = seed

    def encode_update(
        self,
        round_index: int,
        client_id: int,
        state: StateDict,
        reference: Optional[StateDict] = None,
        residual: Optional[StateDict] = None,
    ) -> Tuple[bytes, Optional[StateDict]]:
        reference = self._require_reference(reference)
        rng = derive_rng(self.seed, "qsgd", int(round_index), int(client_id))
        frames: List[bytes] = []
        for name in sorted(state):
            value = np.asarray(state[name])
            if not np.issubdtype(value.dtype, np.floating):
                frames.append(_raw_frame(name, value))
                continue
            base = _reference_leaf(reference, name, value.shape)
            delta = (value - base.astype(value.dtype, copy=False)).ravel()
            delta64 = delta.astype(np.float64, copy=False)
            scale = float(np.max(np.abs(delta64))) if delta64.size else 0.0
            if scale > 0.0:
                ratio = np.abs(delta64) / scale * self.levels
                low = np.floor(ratio)
                level = low + (rng.random(delta64.size) < (ratio - low))
                level = np.clip(level, 0, self.levels)
                signed = (np.sign(delta64) * level).astype(np.int8)
            else:
                # Still consume the leaf's draws so the stream stays aligned
                # across leaves regardless of content.
                if delta64.size:
                    rng.random(delta64.size)
                signed = np.zeros(delta64.size, dtype=np.int8)
            blob = (
                _F64.pack(scale)
                + _U16.pack(self.levels)
                + zlib.compress(signed.tobytes(), 6)
            )
            frames.append(_frame_leaf(name, value, _SCHEME_QSGD, blob))
        return _pack_frames(self.codec_id, frames), None


class DeltaCodec(Codec):
    """Float32 delta-vs-broadcast encoding, zlib-compressed.

    Deterministically lossy: float64 leaves lose the float32 rounding of
    their *delta* (much smaller magnitude than the weights themselves, so
    far gentler than a float32 cast of the raw state); float32 leaves
    round-trip exactly.
    """

    name = "delta"

    def encode_update(
        self,
        round_index: int,
        client_id: int,
        state: StateDict,
        reference: Optional[StateDict] = None,
        residual: Optional[StateDict] = None,
    ) -> Tuple[bytes, Optional[StateDict]]:
        reference = self._require_reference(reference)
        frames: List[bytes] = []
        for name in sorted(state):
            value = np.asarray(state[name])
            if not np.issubdtype(value.dtype, np.floating):
                frames.append(_raw_frame(name, value))
                continue
            base = _reference_leaf(reference, name, value.shape)
            delta = (value - base.astype(value.dtype, copy=False)).astype(np.float32)
            blob = zlib.compress(delta.tobytes(), 6)
            frames.append(_frame_leaf(name, value, _SCHEME_DELTA32, blob))
        return _pack_frames(self.codec_id, frames), None


# ----------------------------------------------------------------------
# Decoding (codec-independent)
# ----------------------------------------------------------------------


def _decode_leaf(
    reader: _Reader, reference: Optional[StateDict]
) -> Tuple[str, np.ndarray]:
    name, dtype, scheme, shape = _read_leaf_header(reader)
    (blob_len,) = reader.unpack(_U64)
    blob = reader.take(blob_len)
    size = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if scheme == _SCHEME_RAW:
        raw = _decompress(blob, name)
        expected = size * dtype.itemsize
        if len(raw) != expected:
            raise WireFormatError(
                f"leaf {name!r} decompressed to {len(raw)} bytes, expected "
                f"{expected}"
            )
        return name, np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    base = _reference_leaf(reference, name, shape)
    if scheme == _SCHEME_TOPK:
        body = _Reader(_decompress(blob, name))
        (k,) = body.unpack(_U64)
        indices = np.frombuffer(body.take(4 * k), dtype=np.uint32)
        values = np.frombuffer(body.take(dtype.itemsize * k), dtype=dtype)
        if not body.done():
            raise WireFormatError(f"leaf {name!r} has trailing topk bytes")
        if k and indices.max(initial=0) >= size:
            raise WireFormatError(f"leaf {name!r} holds out-of-range topk indices")
        decoded = base.astype(dtype, copy=True).ravel()
        decoded[indices] += values
        return name, decoded.reshape(shape)
    if scheme == _SCHEME_QSGD:
        body = _Reader(blob)
        (scale,) = body.unpack(_F64)
        (levels,) = body.unpack(_U16)
        if levels < 1:
            raise WireFormatError(f"leaf {name!r} has zero qsgd levels")
        raw = _decompress(body.payload[body.offset:], name)
        if len(raw) != size:
            raise WireFormatError(
                f"leaf {name!r} holds {len(raw)} qsgd levels, expected {size}"
            )
        signed = np.frombuffer(raw, dtype=np.int8).astype(np.float64)
        delta = (scale * signed / levels).astype(dtype)
        return name, (base.astype(dtype, copy=False) + delta.reshape(shape)).astype(
            dtype, copy=False
        )
    if scheme == _SCHEME_DELTA32:
        raw = _decompress(blob, name)
        if len(raw) != size * 4:
            raise WireFormatError(
                f"leaf {name!r} decompressed to {len(raw)} bytes, expected "
                f"{size * 4} (float32 delta)"
            )
        delta = np.frombuffer(raw, dtype=np.float32).astype(dtype)
        return name, (base.astype(dtype, copy=False) + delta.reshape(shape)).astype(
            dtype, copy=False
        )
    raise WireFormatError(f"leaf {name!r} uses unknown encoding scheme {scheme}")


def decode_update(
    payload: bytes, reference: Optional[StateDict] = None
) -> StateDict:
    """Decode any wire payload back into a state dict.

    Dispatches on the leading magic bytes: npz payloads (the ``none`` codec
    and every pre-codec producer) unpack directly; framed payloads are
    validated (magic, version, codec id, per-leaf bounds) and reconstructed
    against ``reference`` — the broadcast state the update was encoded
    against.  Raises :class:`WireFormatError` on truncation or mismatch.

    This is an untrusted-payload boundary: *any* parse failure — including
    a corrupted npz archive or a zlib error deep inside a leaf — surfaces
    as :class:`WireFormatError`, so callers have a single recoverable
    exception type to retry/quarantine on.
    """
    try:
        if payload[: len(_NPZ_MAGIC)] == _NPZ_MAGIC:
            return unpack_state_dict(payload)
        reader = _Reader(payload)
        magic, version, codec_id, reserved, leaf_count = reader.unpack(_HEADER)
        if magic != WIRE_MAGIC:
            raise WireFormatError(
                f"unrecognized wire payload: leading bytes {payload[:4]!r} are "
                f"neither npz nor {WIRE_MAGIC!r}"
            )
        if version != WIRE_FORMAT_VERSION:
            raise WireFormatError(
                f"wire payload has format version {version}; this build reads "
                f"version {WIRE_FORMAT_VERSION}"
            )
        if codec_id >= len(WIRE_CODECS):
            raise WireFormatError(f"wire payload names unknown codec id {codec_id}")
        if reserved != 0:
            raise WireFormatError("wire payload has nonzero reserved header bits")
        state: StateDict = {}
        for _ in range(leaf_count):
            name, value = _decode_leaf(reader, reference)
            if name in state:
                raise WireFormatError(f"wire payload repeats leaf {name!r}")
            state[name] = value
        if not reader.done():
            raise WireFormatError(
                f"wire payload has {len(payload) - reader.offset} trailing bytes "
                f"after {leaf_count} leaves"
            )
        return state
    except WireFormatError:
        raise
    except Exception as exc:  # zipfile/zlib/pickle/numpy parse failures
        raise WireFormatError(f"malformed wire payload: {exc}") from exc


def codec_name(codec: Optional[Codec]) -> str:
    """The registry name of ``codec`` (``"none"`` for no codec at all)."""
    return "none" if codec is None else codec.name


def make_codec(
    name: Optional[str],
    topk_fraction: float = 0.05,
    qsgd_levels: int = 16,
    seed: SeedLike = 0,
) -> Optional[Codec]:
    """Build a codec from its registry name (``None``/``"none"`` -> ``None``).

    ``"none"`` returns ``None`` — the executors' dense fast path, which is
    trivially bit-identical to today's payloads and skips the pack/unpack
    round trip.  Construct :class:`NoneCodec` directly to force the explicit
    npz round trip (the tests do, to pin its bitwise identity).
    """
    if name is None or name == "none":
        return None
    if name == "topk":
        return TopKCodec(fraction=topk_fraction)
    if name == "qsgd":
        return QSGDCodec(levels=qsgd_levels, seed=seed)
    if name == "delta":
        return DeltaCodec()
    raise ValueError(f"unknown codec {name!r}; expected one of {WIRE_CODECS}")
