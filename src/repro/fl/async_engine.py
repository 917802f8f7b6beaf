"""Asynchronous round engine: buffered, staleness-aware aggregation.

Both synchronous engines are barriers over the cohort — one straggler
bounds the round, and the fault layer can only time it out and drop its
work.  :class:`AsyncExecutor` removes the barrier: clients stream updates
into a bounded buffer and the server aggregates continuously, FedBuff-style
(Nguyen et al.), with FedAsync-style staleness decay (Xie et al.) on each
update's version lag.

One :meth:`AsyncExecutor.execute` call is one **aggregation step**: the
engine collects updates from the stream until ``buffer_size`` of them are
admitted (or the stream runs dry), then hands the buffer to the server as
effective states

    ``effective_i = global + s(lag_i) * (state_i - origin_i)``

where ``origin_i`` is the global state client ``i`` trained from and
``s(lag)`` is the configured staleness weight.  Plain sample-weighted FedAvg
over effective states *is* staleness-weighted buffered FedAvg, and the
robust aggregators (median, trimmed mean, Krum) operate on the streamed
buffer unchanged.  When ``lag == 0`` and ``s == 1`` the effective state is
the client's raw state (bitwise), so a synchronous arrival schedule with
``staleness_policy="constant"`` and ``buffer_size == len(participants)``
degenerates exactly to sequential FedAvg.

**Virtual time.**  Dispatch runs the client lifecycle every engine shares
(:meth:`repro.fl.executor.RoundExecutor._run_client`) and schedules the
task's arrival at ``start + latency + client_latency + delay`` on the one
virtual clock: ``latency`` is what its failed attempts cost (timeouts and
backoffs) and ``delay`` the deterministic straggler/jitter delay of the
attempt that trained (:meth:`repro.fl.faults.FaultInjector.delay_for`).
Arrivals are processed in virtual-arrival order from a heap.  Training
itself runs eagerly at dispatch time in deterministic dispatch order —
harmless, because every client owns its seeded RNGs, so no draw order is
shared across clients.  The result is a fully replayable stream: two runs
with the same seeds produce identical dispatch, arrival, admission, and
flush sequences.

**Scheduling policy.**  Idle clients are (re)dispatched at the start of
each aggregation step — and mid-step only to refill a ``concurrency``-capped
stream — training against the then-current global.  A client freed by an
arrival mid-step waits for the next step boundary, so within one step each
client delivers at most one update.  Crashed tasks return their client to
the pool for the next step (a crash is terminal per task, not per client).

**Faults** reuse the deterministic decision stream and attempt policy of
the synchronous engines, keyed by the client's monotone *task counter* in
place of the round index, so under a full-participation synchronous
schedule the async engine sees the same fault schedule as they do.
Quorum applies per aggregation step: the admitted buffer must cover
``min_participation`` of that step's attempted deliveries
(admitted + dropped + stale-discarded + quarantined).

**Byzantine screening** happens at *admission*, not at aggregation: each
arriving delta is screened by :class:`repro.fl.robust.StreamingScreener`
against a sliding window of recently accepted deltas (the synchronous
cohort's median reference, rebuilt for a stream).  Quarantined and
stale-discarded arrivals land in ``RoundExecution.rejected`` / ``stale``
and surface in ``RoundMetrics``.

**Checkpoint/resume**: :meth:`export_state` captures the stream — in-flight
updates (the arrival schedule), per-client task counters and busy-until
times, the virtual clock, and the screening window — and
:meth:`import_state` restores it, so a mid-run checkpoint of an async
simulation resumes bit-identically (asserted by
``tests/fl/test_async_engine.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.fl.aggregation import apply_delta, staleness_weight, state_delta
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.executor import (
    ClientOutcome,
    RoundExecution,
    RoundExecutionError,
    RoundExecutor,
)
from repro.fl.robust import StreamingScreener
from repro.nn.serialization import state_dict_nbytes
from repro.utils.logging import get_logger

StateDict = Dict[str, np.ndarray]
_log = get_logger("fl.async")


@dataclass
class _InFlight:
    """One dispatched client task streaming toward the server.

    ``state`` is the post-training (possibly Byzantine-corrupted) weights;
    ``delta`` is ``state - origin`` against the global version the client
    trained from.  Both are kept: the delta drives screening and staleness
    weighting, the raw state preserves the bitwise zero-lag fast path.
    """

    client_id: int
    task_index: int
    state: StateDict
    delta: StateDict
    origin_version: int
    num_samples: int
    train_loss: float
    compute_seconds: float
    attempts: int  # extra attempts the task needed (0 = first try)
    #: Actual wire size of the update's upload payload (post-codec).  The
    #: plain-default ``0`` means "dense" — it keeps in-flight entries from
    #: pre-codec checkpoints loadable and is billed as the dense size.
    wire_nbytes: int = 0


class AsyncExecutor(RoundExecutor):
    """Buffered asynchronous round engine (see the module docstring).

    Reads the async-only knobs of its
    :class:`~repro.core.config.EngineConfig`: ``buffer_size`` (FedBuff's
    ``K``), the ``concurrency`` cap on in-flight tasks, the staleness
    policy and its ``staleness_budget`` admission rule, the
    ``client_latency`` baseline of each task's virtual training time, and
    ``screen_window``: with ``screening`` set, arrivals are screened at
    admission against a sliding window of that many accepted deltas (the
    synchronous engines leave screening to the server).  Fault and attack
    decisions are keyed by the client's task counter instead of the round
    index.
    """

    name = "async"

    def __init__(self, config: Optional[EngineConfig] = None, **kwargs: object) -> None:
        super().__init__(config, **kwargs)
        self.buffer_size = self.config.buffer_size
        screening = self.config.screening
        self.screener = (
            StreamingScreener(screening, window=self.config.screen_window)
            if screening is not None
            else None
        )
        # -- persistent stream state (survives across aggregation steps and,
        # via export_state/import_state, across checkpoint/resume) --------
        self._vclock = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, _InFlight]] = []
        self._task_count: Dict[int, int] = {}
        self._free_at: Dict[int, float] = {}

    # -- one aggregation step -------------------------------------------
    def execute(self, participants: Sequence[FLClient], server) -> RoundExecution:
        if not participants:
            raise RoundExecutionError("async step needs at least one participant")
        version = server.round
        # The honest current global: the delta base for arriving updates
        # dispatched this step, the Byzantine and wire-codec reference, and
        # the flush-time anchor of the effective states.
        current_global = server.global_state()
        wire_reference = (
            current_global
            if self.codec is not None and self.codec.needs_reference
            else None
        )
        profile_token = self._profile_begin()
        by_id = {client.client_id: client for client in participants}
        if len(by_id) != len(participants):
            raise RoundExecutionError("participant client ids must be unique")
        in_flight_ids = {entry.client_id for _, _, entry in self._heap}
        queue = sorted(
            (c for c in participants if c.client_id not in in_flight_ids),
            key=lambda c: (self._free_at.get(c.client_id, 0.0), c.client_id),
        )
        cap = self.config.concurrency or len(by_id)

        # ``results`` is the admitted buffer, in arrival order.
        execution = RoundExecution()
        while len(execution.results) < self.buffer_size:
            while queue and len(self._heap) < cap:
                self._dispatch(
                    queue.pop(0), server, version, current_global, wire_reference,
                    execution,
                )
            if not self._heap:
                # Stream ran dry before the buffer filled (crashes, or
                # buffer_size beyond the reachable arrivals this step):
                # flush what was admitted, subject to the quorum below.
                break
            arrival_vtime, _, entry = heapq.heappop(self._heap)
            self._vclock = max(self._vclock, arrival_vtime)
            self._free_at[entry.client_id] = self._vclock
            execution.record(self._arrive(entry, version, current_global, execution))

        # Every dispatched task already trained (training is eager; only
        # arrival is deferred), so no client object is needed across steps —
        # the heap holds state dicts, not clients.  Hand the whole cohort's
        # mutable state back to the registry store.
        for client in participants:
            self._release_collected(client)
        execution.expected_participants = (
            len(execution.results)
            + len(execution.failures)
            + len(execution.stale)
            + len(execution.rejected)
        )
        return self._finish_round(
            execution, execution.expected_participants, profile_token
        )

    def _arrive(
        self,
        entry: _InFlight,
        version: int,
        current_global: StateDict,
        execution: RoundExecution,
    ) -> ClientOutcome:
        """Admit, discard as stale, or quarantine one arrival.

        An admitted update carries its effective state
        ``current_global + s(lag) * delta``.  Every arrival bills its upload
        and its retries, admitted or not.
        """
        cid = entry.client_id
        dense_nbytes = state_dict_nbytes(entry.state)
        outcome = ClientOutcome(
            cid,
            attempts=entry.attempts,
            compute_seconds=entry.compute_seconds,
            wire_bytes=entry.wire_nbytes or dense_nbytes,
            dense_bytes=dense_nbytes,
        )
        lag = version - entry.origin_version
        budget = self.config.staleness_budget
        if budget is not None and lag > budget:
            execution.stale[cid] = lag
            _log.info(
                "discarding stale update from client %d (lag %d > budget %d)",
                cid,
                lag,
                budget,
            )
            return outcome
        if self.screener is not None:
            outcome.rejected, execution.anomaly_scores[cid] = self.screener.screen(
                cid, entry.delta
            )
            if outcome.rejected is not None:
                return outcome
        weight = staleness_weight(
            lag, self.config.staleness_policy, self.config.staleness_alpha
        )
        if lag == 0 and weight == 1.0:
            # Bitwise fast path: origin == current global, no decay — the
            # effective state IS the client's state (rebuilding it as
            # global + delta would round differently).
            state = entry.state
        else:
            state = apply_delta(current_global, entry.delta, scale=weight)
        outcome.update = ClientUpdate(cid, state, entry.num_samples, entry.train_loss)
        execution.staleness_lags.append(lag)
        execution.staleness_weights[cid] = float(weight)
        return outcome

    # -- task dispatch ---------------------------------------------------
    def _dispatch(
        self,
        client: FLClient,
        server,
        version: int,
        current_global: StateDict,
        wire_reference: Optional[StateDict],
        execution: RoundExecution,
    ) -> None:
        """Run one client task now; schedule its (virtual) arrival.

        Faults, Byzantine attacks and wire transmissions are keyed by the
        client's task counter.  A task that fails or is wire-quarantined
        never arrives: it is tallied now, corrupted retransmissions
        included, and its client is idle again once the task's virtual time
        has passed.
        """
        cid = client.client_id
        task_index = self._task_count.get(cid, 0)
        self._task_count[cid] = task_index + 1
        start = max(self._vclock, self._free_at.get(cid, 0.0))
        outcome = self._run_client(
            client, server, task_index, current_global, wire_reference
        )
        # The operand order is part of the replay contract: heap order (and
        # hence every digest) depends on these float sums.
        arrival = start + outcome.latency + self.config.client_latency + outcome.delay
        self._free_at[cid] = arrival
        if outcome.update is None:
            execution.record(outcome)
            return
        execution.bytes_broadcast += outcome.bytes_broadcast
        update = outcome.update
        entry = _InFlight(
            client_id=cid,
            task_index=task_index,
            state=update.state,
            delta=state_delta(update.state, current_global),
            origin_version=version,
            num_samples=update.num_samples,
            train_loss=update.train_loss,
            compute_seconds=outcome.compute_seconds,
            attempts=outcome.attempts,
            wire_nbytes=outcome.wire_bytes,
        )
        heapq.heappush(self._heap, (arrival, self._seq, entry))
        self._seq += 1

    # -- checkpoint/resume ----------------------------------------------
    def export_state(self) -> Dict[str, object]:
        return {
            "vclock": self._vclock,
            "seq": self._seq,
            "task_count": dict(self._task_count),
            "free_at": dict(self._free_at),
            "in_flight": [
                (vtime, seq, entry) for vtime, seq, entry in sorted(self._heap)
            ],
            "screener": (
                self.screener.export_state() if self.screener is not None else None
            ),
        }

    def import_state(self, state: Optional[Dict[str, object]]) -> None:
        if state is None:
            # Pre-async checkpoint (or a synchronous run's): fresh stream.
            self._vclock = 0.0
            self._seq = 0
            self._heap = []
            self._task_count = {}
            self._free_at = {}
            if self.screener is not None:
                self.screener.import_state([])
            return
        self._vclock = float(state["vclock"])
        self._seq = int(state["seq"])
        self._task_count = dict(state["task_count"])
        self._free_at = dict(state["free_at"])
        heap = [tuple(item) for item in state["in_flight"]]
        heapq.heapify(heap)
        self._heap = heap
        window = state.get("screener")
        if self.screener is not None and window is not None:
            self.screener.import_state(window)
