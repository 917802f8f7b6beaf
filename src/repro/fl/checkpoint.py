"""Checkpoint/resume for :class:`~repro.fl.simulation.FederatedSimulation`.

A multi-hour federated run that dies at round 180 of 200 should not lose
180 rounds of work.  Every ``CheckpointConfig.every`` rounds the simulation
persists everything its next round depends on:

* the server's global weights (packed with
  :func:`repro.nn.serialization.pack_state_dict`) and round counter;
* every client's :class:`~repro.fl.client.ClientMutableState` — model and
  optimizer state, round counter, RNG generators, and subclass extras such
  as the CIP perturbation ``t`` and its Step-I optimizer;
* the participant-sampling RNG state;
* the full :class:`~repro.fl.simulation.FLHistory`.

The client states are pickled as they are, never deep-copied first: the
pickled body exists before :func:`save_checkpoint` returns, so nothing that
trains afterwards can reach it.

Virtualized populations (:class:`~repro.fl.registry.ClientRegistry`) store
only the *dirty* client states — the state-store contents, hot tier and
spilled files alike, the spilled ones read from their files without
loading them into the hot tier, so a save leaves the store exactly as it
found it — plus the registry's spec digest and population size;
cold clients re-derive their initial state from ``(seed, client_id)`` at
materialization, so checkpoint size scales with the clients that have ever
trained, not with the population.  Restores cross-check the spec digest and
refuse live↔virtual mismatches.

Restoring into a freshly-constructed, identically-configured simulation and
continuing produces a run *bit-identical* to one that was never interrupted
(sequential backend; asserted by ``tests/fl/test_faults.py``): all
randomness flows through the persisted generators or through stateless
``derive_rng(seed, "round", n)`` derivations keyed by the persisted round
counters.

Files are written atomically (temp file + ``os.replace``) so a crash during
checkpointing never corrupts the latest good checkpoint, and old
checkpoints are pruned down to ``CheckpointConfig.keep``.

Atomic writes do not protect against *post-write* damage — bit rot, torn
copies, or the chaos harness's checkpoint-corruption channel.  Each file
therefore carries an integrity header: the ``RCK1`` magic followed by the
sha256 digest of the pickled body.  :func:`load_checkpoint` recomputes the
digest and raises :class:`CheckpointCorruptionError` on any mismatch, and
:func:`restore_latest_good` walks the retained chain newest-first until a
checkpoint verifies — the *last-good* recovery path.  Headerless files from
earlier builds still load (best-effort, no digest to check).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
from typing import Dict, List, Optional

from repro.fl.communication import WIRE_FORMAT_VERSION, codec_name
from repro.nn.backend import active_compute_dtype
from repro.nn.serialization import pack_state_dict, unpack_state_dict
from repro.utils.logging import get_logger

_log = get_logger("fl.checkpoint")

#: Bump when the payload layout changes; loaders refuse unknown versions.
CHECKPOINT_VERSION = 1

#: Container magic for digest-protected checkpoint files: ``RCK1`` + the
#: 32-byte sha256 of the pickled body, then the body itself.
CHECKPOINT_MAGIC = b"RCK1"

_DIGEST_SIZE = hashlib.sha256().digest_size

_CHECKPOINT_RE = re.compile(r"^round_(\d+)\.ckpt$")


class CheckpointCorruptionError(ValueError):
    """A checkpoint file failed integrity verification (digest mismatch,
    truncation, garbled header, or an unpicklable legacy body)."""


def checkpoint_path(directory: str, round_index: int) -> str:
    """Canonical file name of the checkpoint taken after ``round_index`` rounds."""
    return os.path.join(directory, f"round_{round_index:05d}.ckpt")


def list_checkpoints(directory: str) -> List[str]:
    """All checkpoint files in ``directory``, oldest first."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for name in os.listdir(directory):
        match = _CHECKPOINT_RE.match(name)
        if match:
            entries.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(entries)]


def latest_checkpoint(directory: str) -> Optional[str]:
    """The newest checkpoint in ``directory`` (``None`` when there is none)."""
    checkpoints = list_checkpoints(directory)
    return checkpoints[-1] if checkpoints else None


def save_checkpoint(simulation, directory: str, keep: int = 0) -> str:
    """Persist ``simulation``'s full resumable state; returns the file path.

    ``keep > 0`` prunes all but the newest ``keep`` checkpoints afterwards.
    """
    os.makedirs(directory, exist_ok=True)
    round_index = simulation.server.round
    registry = simulation.registry
    if registry.is_virtual:
        # Virtualized population: persist only the *dirty* states — clients
        # that have ever trained and therefore have an entry in the state
        # store (hot or spilled).  Cold clients re-derive their initial
        # state from ``(seed, client_id)`` on materialization, so storing
        # them would be pure redundancy — this is what keeps checkpoint
        # size proportional to the touched set, not the population.
        client_snapshot = registry.store.snapshot_all()
        registry_meta = {
            "spec_digest": registry.spec_digest(),
            "population": len(registry),
            "spill_manifest": registry.store.spill_manifest(),
        }
    else:
        client_snapshot = {
            client.client_id: client.get_mutable_state()
            for client in simulation.clients
        }
        registry_meta = None
    payload = {
        "version": CHECKPOINT_VERSION,
        "round": round_index,
        # Restores refuse a mismatched compute dtype: client state pickled
        # under float32 would silently poison a float64 run (and vice versa).
        "compute_dtype": active_compute_dtype(),
        # The wire codec shapes the run's numerics (lossy codecs) and the
        # clients' error-feedback residuals; restoring under a different
        # codec (or a different wire-format revision) would not replay the
        # interrupted run, so restores refuse the mismatch.
        "wire_codec": codec_name(getattr(simulation.executor, "codec", None)),
        "wire_format_version": WIRE_FORMAT_VERSION,
        "server_state": pack_state_dict(simulation.server.global_state()),
        "clients": client_snapshot,
        # ``None`` for live-object populations; virtual runs carry the
        # registry identity (spec digest + population) so a restore can
        # refuse a mismatched reconstruction, plus the spill manifest
        # (informational: states are inlined above).
        "registry": registry_meta,
        "sampling_rng_state": simulation._sampling_rng.bit_generator.state,
        # Evolving executor state (None for the stateless synchronous
        # engines).  The async engine exports its stream here — in-flight
        # updates, virtual clock, task counters, screening window — so a
        # resumed async run replays bit-identically.
        "executor_state": simulation.executor.export_state(),
        "history": simulation.history,
    }
    path = checkpoint_path(directory, round_index)
    tmp_path = path + ".tmp"
    # The client states go in uncopied (live RNGs included): the body must
    # capture their bytes here, before any further training touches them.
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    with open(tmp_path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(hashlib.sha256(body).digest())
        handle.write(body)
    os.replace(tmp_path, path)
    _log.info("checkpointed round %d to %s", round_index, path)
    if keep > 0:
        for stale in list_checkpoints(directory)[:-keep]:
            try:
                os.remove(stale)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
    return path


def _read_verified_body(path: str) -> bytes:
    """Read ``path`` and return its pickled body after integrity checks.

    Raises :class:`CheckpointCorruptionError` when the file is damaged.
    Headerless legacy files are returned whole (their pickle layer is the
    only corruption detector we have for them).
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw.startswith(CHECKPOINT_MAGIC):
        header_size = len(CHECKPOINT_MAGIC) + _DIGEST_SIZE
        if len(raw) < header_size:
            raise CheckpointCorruptionError(
                f"checkpoint {path} is truncated inside its integrity header"
            )
        stored = raw[len(CHECKPOINT_MAGIC) : header_size]
        body = raw[header_size:]
        if hashlib.sha256(body).digest() != stored:
            raise CheckpointCorruptionError(
                f"checkpoint {path} failed sha256 verification; the file was "
                "corrupted after it was written"
            )
        return body
    # No magic: either a legacy headerless checkpoint or a file whose
    # header bytes were garbled.  The pickle layer below decides.
    return raw


def verify_checkpoint(path: str) -> bool:
    """True when ``path`` passes integrity verification (without loading
    its payload into any simulation)."""
    try:
        body = _read_verified_body(path)
        payload = pickle.loads(body)
    except Exception:
        return False
    return isinstance(payload, dict) and "round" in payload


def load_checkpoint(path: str) -> Dict[str, object]:
    """Read, integrity-verify, and version-check a checkpoint file.

    Raises :class:`CheckpointCorruptionError` when the file's digest does
    not match its body (or a headerless file fails to unpickle), and plain
    :class:`ValueError` for a well-formed file this build cannot read.
    """
    body = _read_verified_body(path)
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed to deserialize: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointCorruptionError(
            f"checkpoint {path} deserialized to {type(payload).__name__}, "
            "not a payload dict"
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} has version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION}"
        )
    return payload


def restore_simulation(simulation, path: str) -> int:
    """Load ``path`` into ``simulation``; returns the restored round count.

    The simulation must have been constructed exactly as the checkpointed
    one (same clients, same configs); only evolving state is restored.
    """
    import numpy as np

    payload = load_checkpoint(path)
    # Older checkpoints may lack the dtype (they were all written under
    # float64) or record the nn backend that wrote them; only the NumPy
    # kernels remain, so a payload from any other backend is refused.
    saved_backend = payload.get("nn_backend", "numpy")
    saved_dtype = payload.get("compute_dtype", "float64")
    if (saved_backend, saved_dtype) != ("numpy", active_compute_dtype()):
        raise ValueError(
            f"incompatible checkpoint: {path} was written under nn backend "
            f"{saved_backend!r} with compute dtype {saved_dtype!r}, but the "
            f"simulation is running 'numpy'/{active_compute_dtype()!r}; re-run "
            "with the matching --compute-dtype (or restart training from scratch)"
        )
    # Pre-codec checkpoints carry no wire metadata; they were all written by
    # dense (codec-free) runs at wire format 1.
    saved_codec = payload.get("wire_codec", "none")
    saved_wire_version = payload.get("wire_format_version", WIRE_FORMAT_VERSION)
    active_codec = codec_name(getattr(simulation.executor, "codec", None))
    if saved_codec != active_codec:
        raise ValueError(
            f"incompatible checkpoint: {path} was written with wire codec "
            f"{saved_codec!r}, but the simulation is running "
            f"{active_codec!r}; re-run with the matching --codec (or restart "
            "training from scratch)"
        )
    if saved_wire_version != WIRE_FORMAT_VERSION:
        raise ValueError(
            f"incompatible checkpoint: {path} was written at wire format "
            f"version {saved_wire_version!r}; this build speaks version "
            f"{WIRE_FORMAT_VERSION}"
        )
    client_states = payload["clients"]
    registry_meta = payload.get("registry")
    registry = simulation.registry
    if registry.is_virtual:
        if registry_meta is None:
            raise ValueError(
                f"checkpoint {path} was written by a live-object simulation; "
                "restore it into a simulation constructed with the same "
                "client list, not a virtual registry"
            )
        if registry_meta.get("spec_digest") != registry.spec_digest():
            raise ValueError(
                f"checkpoint {path} was written by a registry with spec "
                f"digest {registry_meta.get('spec_digest')!r} but the "
                f"simulation's registry has {registry.spec_digest()!r}; "
                "reconstruct the registry with the population/spec it was "
                "checkpointed with"
            )
        unknown = set(client_states) - set(registry.client_ids)
        if unknown:
            raise ValueError(
                f"checkpoint {path} holds states for clients "
                f"{sorted(unknown)} that the registry does not know"
            )
    else:
        if registry_meta is not None:
            raise ValueError(
                f"checkpoint {path} was written by a virtualized simulation "
                f"(population {registry_meta.get('population')}); restore it "
                "into a simulation constructed with the matching "
                "ClientRegistry"
            )
        simulation_ids = {client.client_id for client in simulation.clients}
        if set(client_states) != simulation_ids:
            raise ValueError(
                f"checkpoint {path} holds clients {sorted(client_states)} but "
                f"the simulation has {sorted(simulation_ids)}; reconstruct "
                "the simulation with the population it was checkpointed with"
            )
    round_index = int(payload["round"])
    try:
        # load_state_dict is strict: a checkpoint that lacks a parameter or
        # buffer of the current model (or carries keys the model does not
        # have) is rejected rather than partially applied — e.g. BatchNorm
        # running stats can never silently survive a restore.
        simulation.server.restore(
            unpack_state_dict(payload["server_state"]), round_index
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(
            f"checkpoint {path} is incompatible with the simulation's model: "
            f"{exc}"
        ) from exc
    if registry.is_virtual:
        # Dirty states go back into the store (replacing whatever partial
        # state it held); cold clients keep deriving from (seed, id).
        registry.store.load_snapshot(client_states)
    else:
        for client in simulation.clients:
            client.set_mutable_state(client_states[client.client_id])
    rng = np.random.default_rng()
    rng.bit_generator.state = payload["sampling_rng_state"]
    simulation._sampling_rng = rng
    # Missing key = pre-async checkpoint; import_state(None) resets the
    # executor's stream (a no-op for the stateless synchronous engines).
    simulation.executor.import_state(payload.get("executor_state"))
    simulation.history = payload["history"]
    _log.info("restored round %d from %s", round_index, path)
    return round_index


def restore_latest_good(simulation, directory: str) -> Optional[int]:
    """Restore from the newest checkpoint in ``directory`` that verifies.

    The last-good chain: checkpoints are tried newest-first, and any that
    fail integrity verification (:class:`CheckpointCorruptionError`) are
    skipped with a warning — a corrupted latest checkpoint costs at most
    ``every`` rounds of recomputation instead of the whole run.  Returns
    the restored round count, or ``None`` when no checkpoint on disk
    verifies (the caller starts from scratch).  Configuration mismatches
    (wrong backend, codec, population, ...) are *not* corruption and still
    raise immediately.
    """
    skipped: List[str] = []
    for path in reversed(list_checkpoints(directory)):
        try:
            return restore_simulation(simulation, path)
        except CheckpointCorruptionError as exc:
            _log.warning("skipping corrupted checkpoint %s: %s", path, exc)
            skipped.append(path)
    if skipped:
        _log.warning(
            "no verifying checkpoint in %s (%d corrupted); starting from scratch",
            directory,
            len(skipped),
        )
    return None
