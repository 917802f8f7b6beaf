"""Client virtualization: registries, lazy materialization, state stores.

The historical simulation holds every :class:`~repro.fl.client.FLClient` as
a live Python object for the whole run — model, optimizer, data shard, and
defense state resident simultaneously — which caps the population at a few
dozen clients.  Production federations sample a small cohort from 10^5-10^6
registered devices per round; only the cohort ever exists server-side.

:class:`ClientRegistry` reproduces that shape without changing a single
training number:

* the registry holds one *client factory* — a callable materializing the
  client with id ``cid`` from scratch (dataset shard, model, defense
  config, int seed), deterministically — plus the population's id list;
* per-client **mutable** state (:class:`~repro.fl.client.
  ClientMutableState`: model/optimizer state, round counter, RNG
  generators, CIP ``extra``, wire residuals) lives in a pluggable
  :class:`StateStore` keyed by client id;
* :meth:`ClientRegistry.checkout` materializes a client on demand — build
  from the factory, rehydrate from the store — and
  :meth:`ClientRegistry.release` captures its state back and drops the
  object.  The round engines check their participants out where they
  start them (the synchronous engines the whole cohort at round start, the
  async engine one client per dispatched task) and release each once its
  update is collected.

**Bit-identity contract.**  A checkout/release round trip is bit-identical
to keeping the object alive: ``get_mutable_state``/``set_mutable_state``
already round-trip every evolving field (that is what the process backend
ships to workers), cold clients derive their initial state purely from
``(seed, client_id)`` via the factory, and the store never touches array
bytes.

**Stores.**  :class:`InMemoryStateStore` keeps every dirty state resident
(exact, simple); :class:`LRUStateStore` bounds residency to ``capacity``
states and spills the excess to disk via pickle — which round-trips numpy
arrays and ``Generator`` objects bit-exactly — so resident bytes stay flat
in the population size at a fixed cohort.  :meth:`StateStore.peek` is a
pure read: the checkpoint writer reads every dirty state through it,
spilled ones straight from their files, and pickles them uncopied, so a
save moves no state between tiers.

A registry built with :meth:`ClientRegistry.from_clients` wraps an eager
client list in the same interface with zero behavior change (checkout
returns the live object, release is a no-op), so every consumer — all four
executors, the checkpointer, evaluation — handles one code path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import STATE_STORES
from repro.fl.client import ClientMutableState, FLClient
from repro.utils.logging import get_logger

_log = get_logger("fl.registry")


def _array_nbytes(value: object) -> int:
    """Recursively sum ndarray bytes inside nested containers."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_array_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_nbytes(v) for v in value)
    return 0


def mutable_state_nbytes(state: ClientMutableState) -> int:
    """Approximate resident array bytes of one client's mutable state.

    Counts every ndarray reachable through the snapshot's containers
    (model/optimizer state, wire residual, defense extras); RNG objects and
    scalars are negligible and ignored.
    """
    return (
        _array_nbytes(state.model_state)
        + _array_nbytes(state.optimizer_state)
        + _array_nbytes(state.extra)
        + _array_nbytes(state.wire_residual)
    )


class StateStore(ABC):
    """Keyed storage for dirty :class:`ClientMutableState` snapshots.

    "Dirty" means *has trained at least once*: cold clients never enter the
    store — their state derives from ``(seed, client_id)`` through the
    factory — so store size scales with the union of sampled cohorts, not
    the population.
    """

    @abstractmethod
    def put(self, client_id: int, state: ClientMutableState) -> None:
        """Store (or replace) a client's snapshot.  The store takes
        ownership of ``state``; callers must not mutate it afterwards."""

    @abstractmethod
    def pop(self, client_id: int) -> Optional[ClientMutableState]:
        """Remove and return a client's snapshot (``None`` when cold).

        Move semantics make exclusive checkout alias-free: while a client
        is materialized its state lives in the client object alone.
        """

    @abstractmethod
    def peek(self, client_id: int) -> Optional[ClientMutableState]:
        """Return a client's snapshot without removing it (``None`` when
        cold).  A pure read: the store's contents, tiers and counters stay
        as they are.  Callers must clone before mutating."""

    @abstractmethod
    def client_ids(self) -> List[int]:
        """Sorted ids of every dirty client (resident or spilled)."""

    @abstractmethod
    def resident_bytes(self) -> int:
        """Array bytes currently held in memory (spilled states excluded)."""

    @abstractmethod
    def resident_count(self) -> int:
        """Number of snapshots currently held in memory."""

    def spill_manifest(self) -> List[Tuple[int, str]]:
        """``(client_id, path)`` of every spilled snapshot (empty unless
        the store spills to disk)."""
        return []

    def snapshot_all(self) -> Dict[int, ClientMutableState]:
        """Every dirty client's snapshot, read with :meth:`peek` — the
        checkpoint writer's view.  The states are not copied: the writer
        pickles them at once, and callers must not mutate them."""
        return {cid: self.peek(cid) for cid in self.client_ids()}

    def load_snapshot(self, states: Dict[int, ClientMutableState]) -> None:
        """Replace the store contents with ``states`` (checkpoint restore)."""
        self.clear()
        for cid, state in states.items():
            self.put(int(cid), state)

    @abstractmethod
    def clear(self) -> None:
        """Drop every snapshot (and any spill files)."""

    def __contains__(self, client_id: int) -> bool:
        return self.peek(client_id) is not None

    def close(self) -> None:
        """Release disk resources (idempotent; no-op for memory stores)."""


class InMemoryStateStore(StateStore):
    """Every dirty state stays resident — exact and allocation-free.

    The right store for cohort-scale populations and for tests; resident
    bytes grow with the number of *distinct* clients ever sampled.
    """

    def __init__(self) -> None:
        self._states: Dict[int, ClientMutableState] = {}

    def put(self, client_id: int, state: ClientMutableState) -> None:
        self._states[int(client_id)] = state

    def pop(self, client_id: int) -> Optional[ClientMutableState]:
        return self._states.pop(int(client_id), None)

    def peek(self, client_id: int) -> Optional[ClientMutableState]:
        return self._states.get(int(client_id))

    def client_ids(self) -> List[int]:
        return sorted(self._states)

    def resident_bytes(self) -> int:
        return sum(mutable_state_nbytes(s) for s in self._states.values())

    def resident_count(self) -> int:
        return len(self._states)

    def clear(self) -> None:
        self._states.clear()


class LRUStateStore(StateStore):
    """Bounded-residency store: hottest ``capacity`` states in memory, the
    rest pickled to ``spill_dir``.

    Eviction and rehydration round-trip bit-exactly: pickle preserves numpy
    array bytes/dtypes and ``np.random.Generator`` state verbatim (pinned by
    ``tests/fl/test_virtualization.py``).  Spill files are one-per-client
    (``state_<id>.pkl``) so a checkpoint can list them as a manifest and a
    partial cleanup never corrupts unrelated clients.
    """

    def __init__(self, capacity: int = 64, spill_dir: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._hot: "OrderedDict[int, ClientMutableState]" = OrderedDict()
        self._spilled: Dict[int, str] = {}
        self._spill_dir = spill_dir
        self._owns_spill_dir = spill_dir is None
        self._resident_bytes = 0
        #: Cumulative spill/rehydrate counters (telemetry, not behavior).
        self.evictions = 0
        self.rehydrations = 0

    # -- spill plumbing --------------------------------------------------
    @property
    def spill_dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-statestore-")
        else:
            os.makedirs(self._spill_dir, exist_ok=True)
        return self._spill_dir

    def _spill_path(self, client_id: int) -> str:
        return os.path.join(self.spill_dir, f"state_{client_id}.pkl")

    def _evict_excess(self) -> None:
        while len(self._hot) > self.capacity:
            cid, state = self._hot.popitem(last=False)  # least recent first
            path = self._spill_path(cid)
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            self._spilled[cid] = path
            self._resident_bytes -= mutable_state_nbytes(state)
            self.evictions += 1

    def _read_spilled(self, client_id: int) -> ClientMutableState:
        with open(self._spilled[client_id], "rb") as handle:
            return pickle.load(handle)

    # -- StateStore API --------------------------------------------------
    def put(self, client_id: int, state: ClientMutableState) -> None:
        client_id = int(client_id)
        if client_id in self._hot:
            self._resident_bytes -= mutable_state_nbytes(self._hot.pop(client_id))
        elif client_id in self._spilled:
            self._remove_spill(client_id)
        self._hot[client_id] = state
        self._resident_bytes += mutable_state_nbytes(state)
        self._evict_excess()

    def pop(self, client_id: int) -> Optional[ClientMutableState]:
        client_id = int(client_id)
        if client_id in self._hot:
            state = self._hot.pop(client_id)
            self._resident_bytes -= mutable_state_nbytes(state)
            return state
        if client_id in self._spilled:
            state = self._read_spilled(client_id)
            self._remove_spill(client_id)
            self.rehydrations += 1
            return state
        return None

    def peek(self, client_id: int) -> Optional[ClientMutableState]:
        # A spilled state is read from its file and stays spilled: loading
        # it into the hot tier would evict (and rewrite) another state, and
        # refreshing recency would reorder the evictions to come.
        client_id = int(client_id)
        if client_id in self._hot:
            return self._hot[client_id]
        if client_id in self._spilled:
            return self._read_spilled(client_id)
        return None

    def _remove_spill(self, client_id: int) -> None:
        path = self._spilled.pop(client_id)
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass

    def client_ids(self) -> List[int]:
        return sorted(set(self._hot) | set(self._spilled))

    def resident_bytes(self) -> int:
        return int(self._resident_bytes)

    def resident_count(self) -> int:
        return len(self._hot)

    def spill_manifest(self) -> List[Tuple[int, str]]:
        return sorted(self._spilled.items())

    def clear(self) -> None:
        self._hot.clear()
        self._resident_bytes = 0
        for cid in list(self._spilled):
            self._remove_spill(cid)

    def close(self) -> None:
        self.clear()
        if self._owns_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None


def make_state_store(
    name: str = "memory",
    cache_size: int = 64,
    spill_dir: Optional[str] = None,
) -> StateStore:
    """Build a state store from plain configuration values."""
    if name == "memory":
        return InMemoryStateStore()
    if name == "lru":
        return LRUStateStore(capacity=cache_size, spill_dir=spill_dir)
    raise ValueError(f"unknown state store {name!r}; expected one of {STATE_STORES}")


ClientFactory = Callable[[int], FLClient]


class ClientRegistry:
    """Population of clients, materialized lazily from specs.

    Parameters
    ----------
    factory:
        ``factory(client_id) -> FLClient`` building the client *cold* —
        identical every call (same shard, same initial weights, same int
        seed), because a rematerialized client must be indistinguishable
        from one that stayed alive.  Factories must not share mutable
        objects (RNGs, augmentation pipelines) across clients.
    client_ids:
        The population's ids, in any order (stored sorted).  Sparse and
        non-contiguous ids are fully supported.
    population:
        Shorthand for ``client_ids=range(population)``.
    store:
        Dirty-state backend; default :class:`InMemoryStateStore`.
    spec:
        Optional JSON-able metadata describing the population (dataset
        descriptor, defense config, base seed).  Folded into
        :meth:`spec_digest`, which checkpoints persist and verify so a
        restore onto a differently-specified population is refused.
    """

    def __init__(
        self,
        factory: ClientFactory,
        client_ids: Optional[Iterable[int]] = None,
        population: Optional[int] = None,
        store: Optional[StateStore] = None,
        spec: Optional[Dict[str, object]] = None,
    ) -> None:
        if (client_ids is None) == (population is None):
            raise ValueError("pass exactly one of client_ids or population")
        if population is not None:
            if population < 1:
                raise ValueError("population must be at least 1")
            ids = list(range(int(population)))
        else:
            ids = sorted(int(cid) for cid in client_ids)
            if len(set(ids)) != len(ids):
                raise ValueError("client ids must be unique")
            if not ids:
                raise ValueError("registry needs at least one client id")
        self._factory = factory
        self._ids: List[int] = ids
        self._id_set = set(ids)
        self.store: StateStore = store if store is not None else InMemoryStateStore()
        self.spec = dict(spec or {})
        self._live: Optional[Dict[int, FLClient]] = None  # eager mode only
        self._checked_out: Dict[int, FLClient] = {}
        #: Telemetry: high-water mark of simultaneously live clients and the
        #: total number of factory materializations.
        self.max_live = 0
        self.materialized_total = 0

    # -- eager (live-object) mode ----------------------------------------
    @classmethod
    def from_clients(cls, clients: Sequence[FLClient]) -> "ClientRegistry":
        """Wrap an eager client list — the historical mode, zero-copy.

        Checkout returns the live object and release is a no-op, so the
        simulation's single registry code path behaves exactly like the
        pre-registry ``List[FLClient]`` it replaces.
        """
        clients = list(clients)
        if not clients:
            raise ValueError("registry needs at least one client")
        by_id = {client.client_id: client for client in clients}
        if len(by_id) != len(clients):
            raise ValueError("client ids must be unique")

        def _live_factory(cid: int) -> FLClient:  # pragma: no cover - never cold
            raise RuntimeError("eager registries never materialize from factory")

        registry = cls(_live_factory, client_ids=by_id.keys())
        registry._live = by_id
        registry.max_live = len(by_id)
        return registry

    @property
    def is_virtual(self) -> bool:
        return self._live is None

    @property
    def live_clients(self) -> Optional[List[FLClient]]:
        """The eager client list (id order), or ``None`` when virtual."""
        if self._live is None:
            return None
        return [self._live[cid] for cid in self._ids]

    # -- population ------------------------------------------------------
    @property
    def client_ids(self) -> List[int]:
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, client_id: int) -> bool:
        return int(client_id) in self._id_set

    def spec_digest(self) -> str:
        """Stable digest of the population definition (ids + spec metadata).

        Captures *which* population this is, not its evolving state;
        checkpoints store it so a restore onto a registry with different
        ids or spec is refused instead of silently mixing populations.
        """
        blob = json.dumps(
            {"ids": self._ids, "spec": self.spec}, sort_keys=True, default=str
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    # -- materialization lifecycle ---------------------------------------
    def _check_known(self, client_id: int) -> None:
        if client_id not in self._id_set:
            raise KeyError(f"unknown client id {client_id}")

    def checkout(self, client_id: int) -> FLClient:
        """Materialize ``client_id`` for exclusive (training) use.

        Virtual mode: build from the factory and move the dirty state (if
        any) out of the store into the object.  Eager mode: return the live
        object.  Double checkout of the same id raises.
        """
        client_id = int(client_id)
        self._check_known(client_id)
        if self._live is not None:
            return self._live[client_id]
        if client_id in self._checked_out:
            raise RuntimeError(f"client {client_id} is already checked out")
        client = self._materialize(client_id, self.store.pop(client_id))
        self._checked_out[client_id] = client
        self.max_live = max(self.max_live, len(self._checked_out))
        return client

    def checkout_many(self, client_ids: Sequence[int]) -> List[FLClient]:
        return [self.checkout(cid) for cid in client_ids]

    def _materialize(
        self, client_id: int, state: Optional[ClientMutableState]
    ) -> FLClient:
        client = self._factory(client_id)
        if client.client_id != client_id:
            raise ValueError(
                f"factory built client {client.client_id} when asked for "
                f"{client_id}; factories must honor the requested id"
            )
        if state is not None:
            client.set_mutable_state(state)
        self.materialized_total += 1
        return client

    def release(self, client: FLClient) -> None:
        """Capture a checked-out client's state and drop the object.

        Idempotent: releasing an already-released (or eager-mode) client is
        a no-op, so executors can release at their collection points and the
        simulation's end-of-round sweep stays a safety net.
        """
        if self._live is not None:
            return
        cid = client.client_id
        if self._checked_out.get(cid) is not client:
            return
        del self._checked_out[cid]
        self.store.put(cid, client.get_mutable_state())

    def release_many(self, clients: Sequence[FLClient]) -> None:
        for client in clients:
            self.release(client)

    def release_all(self) -> None:
        """Release every still-checked-out client (end-of-round sweep)."""
        for client in list(self._checked_out.values()):
            self.release(client)

    @property
    def checked_out_count(self) -> int:
        return len(self._checked_out)

    # -- read-only materialization (evaluation) ---------------------------
    def materialize_for_read(self, client_id: int) -> FLClient:
        """A throwaway materialization that leaves the store untouched.

        The dirty state (if any) is *cloned* before restore so the caller
        can evaluate — or even mutate — the object freely and then simply
        drop it; the store keeps the canonical copy.  Eager mode returns
        the live object (matching the historical in-place evaluation).
        """
        client_id = int(client_id)
        self._check_known(client_id)
        if self._live is not None:
            return self._live[client_id]
        state = self.store.peek(client_id)
        return self._materialize(
            client_id, state.clone() if state is not None else None
        )

    # -- accounting --------------------------------------------------------
    def resident_bytes(self) -> int:
        """Store-resident array bytes plus live checked-out client states."""
        live = sum(
            mutable_state_nbytes(client.get_mutable_state())
            for client in self._checked_out.values()
        )
        return self.store.resident_bytes() + live

    def close(self) -> None:
        self._checked_out.clear()
        self.store.close()
