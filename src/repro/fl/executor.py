"""Pluggable round-execution engines for the FedAvg simulation.

Within a round every selected client's :meth:`~repro.fl.client.FLClient.
local_update` is independent, so the round is embarrassingly parallel.  This
module extracts that stage behind :class:`RoundExecutor`.  The engines
differ only in how they *schedule* clients:

* :class:`SequentialExecutor` — in participant order, in-process;
* :class:`~repro.fl.batched.BatchedExecutor` — stacked groups of
  same-architecture clients, every other client in participant order;
* :class:`ParallelExecutor` — a persistent ``ProcessPoolExecutor`` fed
  through a sliding submission window.  Worker processes receive each
  client's full picklable definition (data shard, model, config) **once**
  at pool start-up; per round only the client's mutable state and a single
  shared packed broadcast payload cross the process boundary, and the
  returned state is applied to the authoritative client object — so a
  parallel round is bit-for-bit identical to a sequential one (each client
  owns its seeded RNG; no draw order is shared across clients);
* :class:`~repro.fl.async_engine.AsyncExecutor` — training at dispatch,
  arrivals from a virtual-clock heap.

**One client lifecycle.**  Every engine runs the same per-client cycle.
The pure attempt policy (:func:`attempt_step`) turns each injected
:class:`~repro.fl.faults.FaultDecision` into *train after virtual delay d*,
*retry after virtual time t* or *fail(kind)*.  A train step broadcasts,
runs ``local_update`` (rolling the client back to its pre-round snapshot if
it raises), applies the client's Byzantine attack and sends the update
through the wire codec, which retransmits or quarantines it
(:meth:`RoundExecutor._run_client`, :meth:`RoundExecutor._collect`).  Each
client ends as one :class:`ClientOutcome`; :meth:`RoundExecution.record`
tallies the outcomes and :meth:`RoundExecutor._finish_round` enforces the
quorum.  The process engine resolves injected faults on the coordinator
with the same policy and ships only training tasks.  An injected
``worker_death`` still kills its worker for real there, so the pool
respawn path runs and the fault stays retriable; in-process it is terminal
like a crash.

**One virtual clock.**  Injected delays never sleep on any engine.
Straggler delays, timeouts and retry backoffs are virtual seconds on each
client's outcome, and only the async engine schedules on them, so
wall-clock time measures compute alone.  The real ``client_timeout`` and
``round_timeout`` budgets of the process engine still guard against
genuinely stalled workers.

Fault tolerance is off by default, preserving the historical fail-fast
behaviour:

* **bounded retry with exponential backoff** — transient failures re-run
  the client up to ``max_retries`` times; every attempt starts from the
  client's pre-round state, so a retried round is bit-identical to an
  untroubled one;
* **per-client timeouts** — an injected straggler delay past
  ``client_timeout`` times out (retriable) on every engine; on the process
  engine a worker that really stalls past it is abandoned as well;
* **partial aggregation** — with ``min_participation < 1`` the round
  completes over the survivors (FedAvg re-weights by ``num_samples``) and
  the dropped clients land in :class:`RoundExecution.failures` instead of
  aborting the simulation;
* **pool respawn** — a worker-process death (OOM kill, segfault, injected
  ``worker_death``) terminates the pool; the executor respawns it up to
  ``max_pool_respawns`` times per round and re-runs *only* the clients whose
  results were lost.

Failure paths are testable on demand via a seeded
:class:`~repro.fl.faults.FaultInjector`.

**One configuration.**  Every engine is configured by one
:class:`~repro.core.config.EngineConfig`, validated for its backend at
construction: the engines repeat none of its range checks, and a knob the
engine never reads (``buffer_size`` on the sequential engine, say) raises
:class:`~repro.core.config.UnreadKnobError`.
"""

from __future__ import annotations

import math
import os
import pickle
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EXECUTION_BACKENDS, EngineConfig
from repro.fl.client import ClientMutableState, ClientUpdate, FLClient
from repro.fl.communication import (
    Codec,
    CommunicationLedger,
    WireFormatError,
    decode_update,
    make_codec,
)
from repro.fl.malicious import ByzantineInjector
from repro.fl.faults import (
    NO_FAULT,
    ClientFailure,
    FaultDecision,
    FaultInjector,
    RetryBackoff,
)
from repro.nn.backend import active_compute_dtype, set_compute_dtype
from repro.nn.diagnostics import OpStat, op_stats_delta
from repro.nn.diagnostics import get_op_stats as _get_op_stats
from repro.nn.diagnostics import profiling_enabled as _op_profiling_enabled
from repro.nn.serialization import (
    pack_state_dict,
    state_dict_nbytes,
    unpack_state_dict,
)
from repro.utils.logging import get_logger
from repro.utils.timer import Stopwatch

StateDict = Dict[str, np.ndarray]
_log = get_logger("fl.executor")


class RoundExecutionError(RuntimeError):
    """A round could not complete: a client failed fatally, too few clients
    survived the ``min_participation`` policy, the round timed out, or the
    worker pool died beyond the respawn budget."""


class WireDeliveryError(RuntimeError):
    """One client's update payload failed to decode on every transmission.

    Raised by :meth:`RoundExecutor._encode_collected` after the retransmission
    budget (``max_retries + 1`` transmissions) is exhausted.
    :meth:`RoundExecutor._collect` catches it and quarantines the client into
    ``RoundExecution.rejected`` — a per-client recoverable event, never
    run-fatal.  Carries the traffic the failed delivery still cost so byte
    telemetry stays faithful.
    """

    def __init__(
        self,
        client_id: int,
        attempts: int,
        message: str,
        wire_bytes: int = 0,
        dense_bytes: int = 0,
    ) -> None:
        super().__init__(message)
        self.client_id = client_id
        self.attempts = attempts
        self.wire_bytes = wire_bytes
        self.dense_bytes = dense_bytes


# ----------------------------------------------------------------------
# The attempt policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptStep:
    """The attempt policy's verdict on one execution attempt.

    ``action`` is ``"train"`` (run the client; its update arrives ``delay``
    virtual seconds late), ``"retry"`` (start the next attempt after
    ``waited`` and then ``backoff`` virtual seconds) or ``"fail"`` (drop the
    client for the round after ``waited``).  ``waited`` is how long the
    server waited on the attempt before giving up on it (a timeout);
    ``kind`` names the fault behind the verdict.
    """

    action: str
    kind: str = "none"
    delay: float = 0.0
    waited: float = 0.0
    backoff: float = 0.0


def retry_step(
    kind: str,
    attempt: int,
    max_retries: int,
    backoff: RetryBackoff,
    waited: float = 0.0,
) -> AttemptStep:
    """Verdict on a failed attempt: retry after its backoff while the budget lasts."""
    if attempt < max_retries:
        return AttemptStep("retry", kind, waited=waited, backoff=backoff.delay(attempt))
    return AttemptStep("fail", kind, waited=waited)


def attempt_step(
    decision: FaultDecision,
    attempt: int,
    max_retries: int,
    backoff: RetryBackoff,
    client_timeout: Optional[float],
) -> AttemptStep:
    """The attempt policy of every engine, pure in its arguments.

    Crashes and worker deaths fail the client for the round; transient
    faults retry.  A straggler trains late by its delay, unless the delay
    exceeds ``client_timeout``: then the server gives up once the budget has
    passed, and the timeout retries like a transient fault.
    """
    kind = decision.kind
    if kind in ("crash", "worker_death"):
        return AttemptStep("fail", kind)
    if kind == "transient":
        return retry_step(kind, attempt, max_retries, backoff)
    if kind == "straggler" and (
        client_timeout is not None and decision.delay_seconds > client_timeout
    ):
        return retry_step(kind, attempt, max_retries, backoff, waited=client_timeout)
    delay = decision.delay_seconds if kind == "straggler" else 0.0
    return AttemptStep("train", kind, delay=delay)


@dataclass
class ClientOutcome:
    """How one client's lifecycle ended in a round, and what it cost.

    At most one of ``update`` (delivered), ``failure`` (the attempt policy
    gave up) and ``rejected`` (quarantined: ``"wire_corrupt"`` when no
    transmission decoded) is set.  ``attempts`` counts the extra attempts a
    delivered update needed.  ``latency`` is the virtual time its failed
    attempts cost (timeouts, then backoffs) and ``delay`` the injected delay
    of the attempt that trained: virtual seconds that only the async engine
    schedules on.  ``message`` describes the last failed attempt.
    """

    client_id: int
    update: Optional[ClientUpdate] = None
    failure: Optional[ClientFailure] = None
    rejected: Optional[str] = None
    attempts: int = 0
    compute_seconds: float = 0.0
    bytes_broadcast: int = 0
    wire_bytes: int = 0
    dense_bytes: int = 0
    latency: float = 0.0
    delay: float = 0.0
    message: str = ""


@dataclass
class ClientExecution:
    """One client's result within a round, with its compute time."""

    update: ClientUpdate
    compute_seconds: float


@dataclass
class RoundExecution:
    """All client results of one round plus wire-traffic accounting.

    ``failures`` lists clients dropped from the round after exhausting
    their retry budget (empty on an untroubled round); ``retries`` maps
    surviving client ids to the number of extra attempts they needed.
    ``op_stats`` holds the round's per-op counter deltas when op profiling
    is on (``repro.nn.diagnostics``); empty otherwise.  On the process
    backend it covers coordinator-side ops only — worker processes keep
    their own counters.
    """

    results: List[ClientExecution] = field(default_factory=list)
    bytes_broadcast: int = 0
    bytes_aggregated: int = 0
    #: What the round's uploads would have cost densely (sum of raw array
    #: bytes).  Equals ``bytes_aggregated`` without a lossy codec; with one,
    #: ``bytes_aggregated`` counts the actual compressed wire payloads and
    #: this field preserves the uncompressed baseline for ratio telemetry.
    bytes_aggregated_dense: int = 0
    failures: List[ClientFailure] = field(default_factory=list)
    retries: Dict[int, int] = field(default_factory=dict)
    op_stats: Dict[str, "OpStat"] = field(default_factory=dict)
    #: Clients quarantined by the *executor* before aggregation, mapped to
    #: the rejection reason: admission screening (the async engine's
    #: streaming screener) and undecodable wire payloads
    #: (``"wire_corrupt"``, any backend) land here.  A quarantined client is
    #: counted exactly once — never duplicated into ``failures`` — and
    #: counts against the ``min_participation`` quorum like a screening
    #: quarantine.
    rejected: Dict[int, str] = field(default_factory=dict)
    #: Anomaly score of every arrival the executor screened (async engine).
    anomaly_scores: Dict[int, float] = field(default_factory=dict)
    #: Clients whose update arrived too stale to admit (version lag beyond
    #: the staleness budget), mapped to the lag at discard time.
    stale: Dict[int, int] = field(default_factory=dict)
    #: Version lags of the *admitted* updates, in buffer order (async
    #: engine); empty on synchronous engines, where every lag is zero.
    staleness_lags: List[int] = field(default_factory=list)
    #: Staleness weight ``s(lag)`` of every admitted update, keyed by client
    #: id (async engine; empty on synchronous engines, where every weight is
    #: 1).  The server hands these to staleness-aware robust aggregators so
    #: selection rules (median/trimmed-mean/Krum) can discount stale
    #: contributions instead of treating them as fresh.
    staleness_weights: Dict[int, float] = field(default_factory=dict)
    #: Quorum base the simulation should hand to ``server.aggregate``.
    #: ``None`` (synchronous engines) means the round's participant count;
    #: the async engine reports its aggregation step's attempted-delivery
    #: count (admitted + dropped + stale + rejected) instead, because one
    #: ``execute()`` call is one buffer flush, not one full cohort.
    expected_participants: Optional[int] = None

    @property
    def updates(self) -> List[ClientUpdate]:
        return [result.update for result in self.results]

    def record(self, outcome: ClientOutcome) -> None:
        """Tally one client outcome: its traffic, retries, and how it ended."""
        self.bytes_broadcast += outcome.bytes_broadcast
        self.bytes_aggregated += outcome.wire_bytes
        self.bytes_aggregated_dense += outcome.dense_bytes
        if outcome.attempts:
            self.retries[outcome.client_id] = outcome.attempts
        if outcome.update is not None:
            self.results.append(
                ClientExecution(outcome.update, outcome.compute_seconds)
            )
        elif outcome.failure is not None:
            self.failures.append(outcome.failure)
        elif outcome.rejected is not None:
            self.rejected[outcome.client_id] = outcome.rejected


class RoundExecutor(ABC):
    """Strategy for running the local-training stage of a FedAvg round.

    The shared client lifecycle (:meth:`_run_client`, :meth:`_next_attempt`,
    :meth:`_collect`) and round tally (:meth:`_finish_round`) behave
    identically across engines; a subclass names its backend and adds its
    schedule.
    """

    name = "abstract"

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        fault_injector: Optional[FaultInjector] = None,
        byzantine: Optional[ByzantineInjector] = None,
        codec: object = None,
        **settings: object,
    ) -> None:
        """Configure the engine from ``config`` with ``settings`` applied.

        ``settings`` are :class:`~repro.core.config.EngineConfig` fields; the
        result is validated for this engine's backend.  ``fault_injector``
        and ``byzantine`` take pre-built injectors (scripted plans) in place
        of the config's, and ``codec`` a registry name or a pre-built
        :class:`~repro.fl.communication.Codec` (``None``/``"none"`` keeps the
        dense fast path, bit-identical to the historical engines).
        """
        if isinstance(codec, str):
            settings["codec"] = codec
        elif codec is not None and not isinstance(codec, Codec):
            raise TypeError(f"codec must be a registry name or a Codec, got {codec!r}")
        config = replace(config or EngineConfig(), backend=self.name, **settings)
        if fault_injector is None and config.fault_config.enabled:
            fault_injector = FaultInjector(config.fault_config)
        if byzantine is None and config.byzantine_config.enabled:
            byzantine = ByzantineInjector(config.byzantine_config)
        if not isinstance(codec, Codec):
            codec = make_codec(
                config.codec,
                topk_fraction=config.topk_fraction,
                qsgd_levels=config.qsgd_levels,
                seed=config.codec_seed,
            )
        self.config = config
        self.fault_injector = fault_injector
        self.byzantine = byzantine
        self.codec: Optional[Codec] = codec
        self.max_retries = config.max_retries
        self.backoff = config.backoff
        self.client_timeout = config.client_timeout
        self.min_participation = config.min_participation
        self._ledger: Optional[CommunicationLedger] = None

    @property
    def ledger(self) -> CommunicationLedger:
        """Cumulative wire-traffic ledger, fed with every executed round's
        actual payload sizes (post-codec uploads)."""
        if self._ledger is None:
            self._ledger = CommunicationLedger()
        return self._ledger

    def _wire_reference(self, server) -> Optional[StateDict]:
        """The broadcast state reference-coding codecs encode against.

        Fetched once per round, coordinator-side, so encode and decode use
        the identical reference on every backend.
        """
        if self.codec is None or not self.codec.needs_reference:
            return None
        return server.global_state()

    @property
    def _wire_faults(self) -> bool:
        """Whether the injector's wire fault channel can fire."""
        return self.fault_injector is not None and self.fault_injector.wire_enabled

    def _encode_collected(
        self,
        round_index: int,
        update: ClientUpdate,
        wire_reference: Optional[StateDict],
        client: Optional[FLClient],
        raw_payload: Optional[bytes] = None,
    ) -> Tuple[ClientUpdate, int, int]:
        """Run one collected update through the configured wire codec.

        Called at the single point a (possibly corrupted) update enters the
        round, on every backend.  Returns ``(update, wire_bytes,
        dense_bytes)``: the update carrying the *decoded* state — so
        screening, robust aggregation, and the global model see exactly what
        crossed the wire — plus the (cumulative) wire payload size and the
        dense baseline.  For lossy codecs with error feedback the client's
        residual is consumed and replaced here — committed only once a
        transmission decodes, so retransmissions re-encode identically.

        This is also where the injector's *wire fault channel* fires: each
        transmission draws its corruption fate from
        ``(seed, "wire", round, client, transmission)`` — a counter of its
        own, independent of training-fault attempts, so the corruption
        schedule is identical on every backend.  A corrupted transmission
        raises :class:`~repro.fl.communication.WireFormatError` inside
        ``decode_update`` and is retransmitted (with no backoff: the client
        re-sends the same encoded bytes, it does not re-train) up to
        ``max_retries`` times; exhaustion raises :class:`WireDeliveryError`
        for the caller to quarantine.  ``wire_bytes`` sums every
        transmission, matching real wire traffic.

        ``raw_payload`` lets the process backend reuse the payload its
        worker already packed (identical bytes to packing ``update.state``
        here) instead of re-packing.  Only its size is used unless a wire
        fault fires, so it may be stale (e.g. after Byzantine corruption)
        when wire faults are off; otherwise pass ``None`` whenever
        ``update.state`` no longer matches the packed bytes.
        """
        dense_bytes = state_dict_nbytes(update.state)
        injector = self.fault_injector
        wire_active = self._wire_faults
        cid = update.client_id
        if self.codec is None:
            if not wire_active or injector.wire_fault(round_index, cid, 0) == "none":
                # Dense fast path: the (first) transmission arrives intact,
                # so skip the pack/decode round trip — bitwise identical to
                # the wire-faults-off path.
                wire_bytes = len(raw_payload) if raw_payload is not None else dense_bytes
                return update, wire_bytes, dense_bytes
            payload = (
                raw_payload
                if raw_payload is not None
                else pack_state_dict(update.state)
            )
            next_residual = None
            commit_residual = False
        else:
            residual = getattr(client, "_wire_residual", None)
            payload, next_residual = self.codec.encode_update(
                round_index,
                update.client_id,
                update.state,
                reference=wire_reference,
                residual=residual,
            )
            commit_residual = client is not None
        wire_bytes = 0
        attempt = 0
        while True:
            if wire_active:
                sent, kind = injector.corrupt_wire(payload, round_index, cid, attempt)
            else:
                sent, kind = payload, "none"
            wire_bytes += len(sent)
            try:
                decoded = decode_update(sent, reference=wire_reference)
            except WireFormatError as exc:
                if attempt < self.max_retries:
                    _log.info(
                        "client %d transmission %d corrupted (%s); retransmitting",
                        cid,
                        attempt + 1,
                        kind,
                    )
                    attempt += 1
                    continue
                raise WireDeliveryError(
                    cid,
                    attempt + 1,
                    f"update payload of client {cid} failed to decode on "
                    f"{attempt + 1} transmission(s) (last fault: {kind}): {exc}",
                    wire_bytes=wire_bytes,
                    dense_bytes=dense_bytes,
                ) from exc
            if commit_residual:
                client._wire_residual = next_residual
            return replace(update, state=decoded), wire_bytes, dense_bytes

    def _byzantine_reference(self, server) -> Optional[StateDict]:
        """The honest pre-round global state the delta attacks operate on.

        Fetched once per round (coordinator side, never through the
        ``broadcast_hook``) so corruption is identical on every backend.
        """
        return server.global_state() if self.byzantine is not None else None

    def _corrupt_update(
        self,
        round_index: int,
        update: ClientUpdate,
        reference: Optional[StateDict],
    ) -> ClientUpdate:
        """Apply the client's scheduled Byzantine attack to its update.

        Called at the single point a successful update is collected — after
        honest local training, after any retries — so the attack is a pure
        function of ``(round, client)`` and the honest result.  The client
        object's own mutable state stays honest.
        """
        if self.byzantine is None:
            return update
        state = self.byzantine.corrupt(
            round_index, update.client_id, update.state, reference
        )
        if state is update.state:
            return update
        return replace(update, state=state)

    @property
    def _tolerant(self) -> bool:
        """Whether any graceful-degradation path is enabled.

        When false the executor keeps the historical contract: the first
        client failure raises :class:`RoundExecutionError` immediately.
        """
        return (
            self.fault_injector is not None
            or self.max_retries > 0
            or self.min_participation < 1.0
            or self.client_timeout is not None
        )

    def _profile_begin(self):
        """Snapshot the op counters when profiling is on (else ``None``)."""
        return _get_op_stats() if _op_profiling_enabled() else None

    def _profile_end(self, token) -> Dict[str, "OpStat"]:
        """The round's op-stat delta (empty when profiling is off)."""
        return {} if token is None else op_stats_delta(token)

    def _decide(self, round_index: int, client_id: int, attempt: int) -> FaultDecision:
        if self.fault_injector is None:
            return NO_FAULT
        return self.fault_injector.decide(round_index, client_id, attempt)

    # -- the client lifecycle ---------------------------------------------
    def _attempt_step(self, decision: FaultDecision, attempt: int) -> AttemptStep:
        """This executor's attempt policy (:func:`attempt_step`)."""
        return attempt_step(
            decision, attempt, self.max_retries, self.backoff, self.client_timeout
        )

    def _next_attempt(
        self,
        key: int,
        client_id: int,
        attempt: int,
        outcome: ClientOutcome,
        step: Optional[AttemptStep] = None,
    ) -> Tuple[int, AttemptStep]:
        """Walk the attempt policy from ``attempt`` to a train or fail step.

        ``step`` is the verdict on an attempt that already failed for real
        (see :func:`retry_step`); otherwise the attempt's injected fault
        decides.  ``key`` is the round index (the async engine passes the
        client's task counter).  Waits and backoffs accumulate on
        ``outcome.latency`` as virtual seconds, never slept; a fail step
        records the client's :class:`ClientFailure` on ``outcome``.
        """
        while True:
            if step is None:
                step = self._attempt_step(self._decide(key, client_id, attempt), attempt)
                if step.action != "train":
                    outcome.message = f"injected {step.kind}"
            outcome.latency += step.waited
            if step.action == "fail":
                outcome.failure = ClientFailure(
                    client_id, step.kind, attempt + 1, outcome.message
                )
            if step.action != "retry":
                return attempt, step
            _log.info(
                "client %d attempt %d failed (%s); retrying after %.2fs (virtual)",
                client_id,
                attempt + 1,
                step.kind,
                step.backoff,
            )
            outcome.latency += step.backoff
            attempt, step = attempt + 1, None

    def _run_client(
        self,
        client: FLClient,
        server,
        key: int,
        reference: Optional[StateDict],
        wire_reference: Optional[StateDict],
    ) -> ClientOutcome:
        """One client's whole lifecycle, in-process.

        A train step broadcasts (every attempt's broadcast is billed,
        matching real wire traffic), runs ``local_update`` and collects the
        update (:meth:`_collect`).  A genuine exception in training rolls
        the client back to its pre-round snapshot — model, optimizer, CIP
        perturbation, RNG — and counts as a retriable ``"error"``, so a
        retried round is bit-identical to an untroubled one.  Without fault
        tolerance the exception aborts the round instead.
        """
        cid = client.client_id
        outcome = ClientOutcome(cid)
        # Deep-copied so the failed attempt's mid-training mutation of the
        # live state cannot reach it.
        snapshot = client.get_mutable_state().clone() if self._tolerant else None
        attempt, step = self._next_attempt(key, cid, 0, outcome)
        while step.action == "train":
            try:
                state = server.broadcast(cid)
                outcome.bytes_broadcast += state_dict_nbytes(state)
                client.receive_global(state)
                with Stopwatch() as watch:
                    update = client.local_update()
            except Exception as exc:
                if snapshot is None:
                    raise RoundExecutionError(
                        f"client {cid} failed during local_update: {exc!r}"
                    ) from exc
                client.set_mutable_state(snapshot.clone())
                outcome.message = repr(exc)
                failed = retry_step("error", attempt, self.max_retries, self.backoff)
                attempt, step = self._next_attempt(key, cid, attempt, outcome, failed)
                continue
            outcome.compute_seconds = watch.elapsed
            jitter = (
                self.fault_injector.jitter(key, cid, attempt)
                if self.fault_injector is not None
                else 0.0
            )
            outcome.delay = step.delay + jitter
            return self._collect(
                key, update, reference, wire_reference, client, outcome, attempt
            )
        return outcome

    def _collect(
        self,
        key: int,
        update: ClientUpdate,
        reference: Optional[StateDict],
        wire_reference: Optional[StateDict],
        client: FLClient,
        outcome: ClientOutcome,
        attempt: int,
        raw_payload: Optional[bytes] = None,
    ) -> ClientOutcome:
        """Deliver a trained update: Byzantine corruption, then the wire.

        A payload that never decodes quarantines the client as
        ``"wire_corrupt"``.  The client trained fine and its local state
        stays advanced, as on a real device; only delivery failed.
        """
        update = self._corrupt_update(key, update, reference)
        try:
            update, outcome.wire_bytes, outcome.dense_bytes = self._encode_collected(
                key, update, wire_reference, client, raw_payload
            )
        except WireDeliveryError as exc:
            outcome.wire_bytes, outcome.dense_bytes = exc.wire_bytes, exc.dense_bytes
            outcome.rejected = "wire_corrupt"
            _log.warning("client %d quarantined: %s", outcome.client_id, exc)
            return outcome
        outcome.update, outcome.attempts = update, attempt
        return outcome

    def _finish_round(
        self, execution: RoundExecution, participants: int, profile_token
    ) -> RoundExecution:
        """Enforce the ``min_participation`` quorum, then close the round.

        ``participants`` is the quorum base: the cohort size, or an async
        step's attempted deliveries.  Closing attaches the round's op stats
        and bills its traffic to the ledger.
        """
        required = max(1, math.ceil(self.min_participation * participants))
        survived = len(execution.results)
        lost = (
            [
                f"client {f.client_id}: {f.kind} after {f.attempts} attempt(s): "
                f"{f.message}"
                for f in execution.failures
            ]
            + [
                f"client {cid}: quarantined ({why})"
                for cid, why in execution.rejected.items()
            ]
            + [f"client {cid}: stale (lag {lag})" for cid, lag in execution.stale.items()]
        )
        if survived < required:
            raise RoundExecutionError(
                f"only {survived}/{participants} clients survived the round but "
                f"min_participation={self.min_participation:g} requires {required}: "
                + "; ".join(lost)
            )
        if lost:
            _log.warning(
                "round degraded: %d/%d clients dropped (%s)",
                len(lost),
                participants,
                "; ".join(lost),
            )
        execution.op_stats = self._profile_end(profile_token)
        self.ledger.record_traffic(execution.bytes_broadcast, execution.bytes_aggregated)
        return execution

    #: Client registry bound by the simulation (``None`` for standalone
    #: executor use).  A *virtual* registry (see :mod:`repro.fl.registry`)
    #: materializes only the sampled cohort; the engines hand members back
    #: via :meth:`_release_collected` so their mutable state returns to the
    #: state store (where it can be LRU-evicted or spilled) as soon as it is
    #: no longer needed.
    registry = None

    def bind_registry(self, registry) -> None:
        """Attach the simulation's client registry (live or virtual)."""
        self.registry = registry

    def _release_collected(self, client: FLClient) -> None:
        """Return a cohort member's mutable state to the registry store.

        No-op unless a virtual registry is bound: live-object populations
        keep every client resident (the historical contract), and standalone
        executor use has no registry at all.  Safe to call once per client —
        the simulation's end-of-round ``release_all()`` sweep covers any
        member an engine-specific path (failure, quarantine, timeout) left
        checked out.
        """
        if self.registry is not None and self.registry.is_virtual:
            self.registry.release(client)

    def prepare(self, clients: Sequence[FLClient]) -> None:
        """Register the full client population before the first round.

        Called once by :class:`~repro.fl.simulation.FederatedSimulation`
        for live-object populations; lets pooled executors ship the heavy
        immutable client definitions to workers a single time instead of
        every round.  Virtual registries call it per round with the
        materialized cohort instead.
        """

    @abstractmethod
    def execute(self, participants: Sequence[FLClient], server) -> RoundExecution:
        """Run ``local_update`` for every participant, in participant order.

        On return the surviving participant objects reflect their post-round
        state, exactly as if they had trained in-process; dropped clients
        keep their pre-round state.
        """

    def export_state(self) -> Optional[Dict[str, object]]:
        """Evolving executor state a checkpoint must capture (or ``None``).

        Synchronous engines are stateless between rounds and return ``None``.
        The async engine returns its stream state — in-flight updates, the
        virtual clock, per-client task counters, and the screening window —
        so a restored run replays bit-identically (see
        :mod:`repro.fl.checkpoint`).
        """
        return None

    def import_state(self, state: Optional[Dict[str, object]]) -> None:
        """Adopt state exported by :meth:`export_state` (no-op by default)."""

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "RoundExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SequentialExecutor(RoundExecutor):
    """The classic single-process path: clients run one after another.

    Each client runs the shared lifecycle (:meth:`RoundExecutor._run_client`).
    ``worker_death`` injections are terminal like crashes — there is no
    worker process to kill — and ``client_timeout`` can only time out
    *injected* straggler delays, never preempt a genuinely slow in-process
    client.
    """

    name = "sequential"

    def execute(self, participants: Sequence[FLClient], server) -> RoundExecution:
        key = server.round
        reference = self._byzantine_reference(server)
        wire_reference = self._wire_reference(server)
        profile_token = self._profile_begin()
        outcomes: Dict[int, ClientOutcome] = {}
        for client in participants:
            if client.client_id in outcomes:
                continue
            for member, outcome in self._train(
                client, server, key, reference, wire_reference
            ):
                outcomes[member.client_id] = outcome
                # The member's update is collected, so its mutable state can
                # go back to the store now: a virtual run holds at most one
                # hot client (or stacked group) beyond the store's budget.
                self._release_collected(member)
        execution = RoundExecution()
        for client in participants:
            execution.record(outcomes[client.client_id])
        return self._finish_round(execution, len(participants), profile_token)

    def _train(
        self,
        client: FLClient,
        server,
        key: int,
        reference: Optional[StateDict],
        wire_reference: Optional[StateDict],
    ) -> List[Tuple[FLClient, ClientOutcome]]:
        """Run ``client`` and whatever the engine trains with it.

        Returns ``(member, outcome)`` pairs; the batched engine overrides
        this to train a client's whole stacked group at once.
        """
        outcome = self._run_client(client, server, key, reference, wire_reference)
        return [(client, outcome)]


# ----------------------------------------------------------------------
# Worker-process side of the parallel engine
# ----------------------------------------------------------------------
# Populated once per worker by the pool initializer; workers are persistent
# across rounds, so the heavy client definitions cross the process boundary
# exactly once per pool lifetime.
_WORKER_CLIENTS: Dict[int, FLClient] = {}


def _worker_init(payload: bytes, compute_dtype: str) -> None:
    global _WORKER_CLIENTS
    # Activate the coordinator's dtype policy BEFORE unpickling: client
    # state (parameters, buffers) must materialize under the same policy
    # the coordinator trained it with.
    set_compute_dtype(compute_dtype)
    _WORKER_CLIENTS = pickle.loads(payload)


@dataclass
class _WorkerResult:
    update_payload: bytes
    num_samples: int
    train_loss: float
    mutable_state: ClientMutableState
    compute_seconds: float


def _worker_run_client(
    client_id: int,
    mutable_state: ClientMutableState,
    broadcast_payload: bytes,
    kill: bool = False,
) -> _WorkerResult:
    if kill:
        # An injected worker death.  A real one (OOM kill, segfault) gives
        # the runtime no chance to clean up; os._exit reproduces that.  It
        # fires before any state is touched, so the retry is bit-identical.
        os._exit(13)
    client = _WORKER_CLIENTS.get(client_id)
    if client is None:
        raise RuntimeError(
            f"worker holds no definition for client {client_id}; pool out of sync"
        )
    client.set_mutable_state(mutable_state)
    client.receive_global(unpack_state_dict(broadcast_payload))
    with Stopwatch() as watch:
        update = client.local_update()
    return _WorkerResult(
        update_payload=pack_state_dict(update.state),
        num_samples=update.num_samples,
        train_loss=update.train_loss,
        mutable_state=client.get_mutable_state(),
        compute_seconds=watch.elapsed,
    )


class ParallelExecutor(RoundExecutor):
    """Process-pool round engine with a persistent worker population.

    Reads three knobs of its :class:`~repro.core.config.EngineConfig` that
    no other engine does: ``num_workers`` (``None`` resolves to
    ``os.cpu_count()``); ``round_timeout``, a wall-clock budget for one
    whole round, on whose expiry the pool is terminated and
    :class:`RoundExecutionError` raised instead of hanging the simulation;
    and ``max_pool_respawns``, the respawn budget per round when the worker
    pool dies (the clients whose results were lost re-run on the fresh
    pool, completed clients do not).  ``client_timeout`` is also a real
    wall-clock budget per task here: a worker that stalls past it is
    abandoned as a straggler and the pool is recycled after the wave.
    """

    name = "process"

    def __init__(self, config: Optional[EngineConfig] = None, **kwargs: object) -> None:
        super().__init__(config, **kwargs)
        self.num_workers = self.config.num_workers or os.cpu_count() or 1
        self.round_timeout = self.config.round_timeout
        self.max_pool_respawns = self.config.max_pool_respawns
        self._clients: Dict[int, FLClient] = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle -------------------------------------------------
    def prepare(self, clients: Sequence[FLClient]) -> None:
        fresh = {client.client_id: client for client in clients}
        if len(fresh) != len(clients):
            raise ValueError("client ids must be unique")
        if fresh.keys() != self._clients.keys() or any(
            fresh[cid] is not self._clients[cid] for cid in fresh
        ):
            self._terminate_pool()
            self._clients = fresh

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                payload = pickle.dumps(self._clients, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise RoundExecutionError(
                    "clients are not picklable and cannot be shipped to worker "
                    "processes (closures in augment pipelines are a common "
                    f"cause); use the sequential backend instead: {exc!r}"
                ) from exc
            _log.info(
                "starting %d worker processes (%d clients, %.1f MB payload)",
                self.num_workers,
                len(self._clients),
                len(payload) / 1e6,
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_worker_init,
                initargs=(payload, active_compute_dtype()),
            )
        return self._pool

    def _terminate_pool(self) -> None:
        if self._pool is None:
            return
        # A hung worker never finishes its task, so a graceful shutdown
        # would block forever; kill the processes outright.
        for process in getattr(self._pool, "_processes", {}).values():
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def close(self) -> None:
        self._terminate_pool()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self._terminate_pool()
        except Exception:
            pass

    # -- round execution ------------------------------------------------
    def _attempt_step(self, decision: FaultDecision, attempt: int) -> AttemptStep:
        if decision.kind == "worker_death":
            # Enacted for real: the shipped task kills its worker process,
            # and the lost pool makes the fault retriable.
            return AttemptStep("train", decision.kind)
        return super()._attempt_step(decision, attempt)

    def _broadcast_payloads(
        self, participants: Sequence[FLClient], server
    ) -> Tuple[List[bytes], int]:
        """Per-participant packed broadcasts, packing the shared state once.

        Without a ``broadcast_hook`` every client receives the identical
        global state, so it is packed a single time and the same read-only
        buffer is handed to every worker task.  With a hook (malicious-server
        experiments) each client's tampered state is packed individually.
        """
        if server.broadcast_hook is None:
            shared = pack_state_dict(server.global_state())
            return [shared] * len(participants), len(shared) * len(participants)
        payloads = [
            pack_state_dict(server.broadcast(client.client_id))
            for client in participants
        ]
        return payloads, sum(len(payload) for payload in payloads)

    def execute(self, participants: Sequence[FLClient], server) -> RoundExecution:
        if not self._clients:
            self.prepare(participants)
        unknown = [c.client_id for c in participants if c.client_id not in self._clients]
        if unknown:
            raise RoundExecutionError(
                f"participants {unknown} were not registered via prepare(); "
                "the worker pool only holds the population it was built with"
            )
        key = server.round
        tolerant = self._tolerant
        reference = self._byzantine_reference(server)
        wire_reference = self._wire_reference(server)
        profile_token = self._profile_begin()
        by_id = {client.client_id: client for client in participants}
        payloads, bytes_broadcast = self._broadcast_payloads(participants, server)
        payload_by_id = dict(zip(by_id, payloads))
        outcomes = {cid: ClientOutcome(cid) for cid in by_id}
        # The worker's packed update doubles as its wire payload unless a
        # Byzantine attack detached the update from those bytes; without
        # wire faults only their size is billed.
        reuse_payload = self.byzantine is None or not self._wire_faults
        deadline = None if self.round_timeout is None else monotonic() + self.round_timeout
        # Clients still owed a result: the attempt to resume from, and the
        # verdict on that attempt if it failed for real (``None``: decide
        # afresh).  A client whose result was lost with the pool keeps its
        # attempt number, and hence its fault schedule.
        pending: Dict[int, Tuple[int, Optional[AttemptStep]]] = {
            cid: (0, None) for cid in by_id
        }
        respawns_left = self.max_pool_respawns

        def requeue(cid: int, attempt: int, kind: str = "", message: str = "") -> None:
            # A failure of the task's own (``kind``) is charged to the
            # client's retry budget; a lost result is not.
            verdict = None
            if kind:
                outcomes[cid].message = message
                verdict = retry_step(kind, attempt, self.max_retries, self.backoff)
            pending[cid] = (attempt, verdict)

        while pending:
            # Injected faults resolve here, on the coordinator: only
            # attempts that train are shipped.
            tasks = deque()
            for cid, (attempt, step) in list(pending.items()):
                attempt, step = self._next_attempt(key, cid, attempt, outcomes[cid], step)
                if step.action == "train":
                    tasks.append((cid, attempt, step.kind == "worker_death"))
            pending.clear()
            window = deque()  # ((cid, attempt, kill), future, submit time)
            stuck = 0
            broken = False
            while tasks or window:
                # At most one task per unstuck worker is outstanding, so
                # each starts (essentially) on submission and its
                # client_timeout runs from its *own* submit time: a client
                # queued behind a genuinely stalled one is never timed out
                # without having run.
                while tasks and not broken and len(window) < self.num_workers - stuck:
                    cid, attempt, kill = tasks[0]
                    try:
                        future = self._ensure_pool().submit(
                            _worker_run_client,
                            cid,
                            by_id[cid].get_mutable_state(),
                            payload_by_id[cid],
                            kill,
                        )
                    except BrokenProcessPool:
                        broken = True
                        break
                    window.append((tasks.popleft(), future, monotonic()))
                if not window:
                    break  # the pool broke, or stalled workers fill it
                (cid, attempt, kill), future, submitted = window.popleft()
                budget = deadline
                if self.client_timeout is not None:
                    budget = min(budget or math.inf, submitted + self.client_timeout)
                try:
                    if broken and not future.done():
                        # The pool died earlier this wave: whatever had not
                        # finished was lost with the workers.
                        raise BrokenProcessPool("lost with the pool")
                    result = future.result(
                        timeout=None
                        if broken or budget is None
                        else max(budget - monotonic(), 0.001)
                    )
                except FutureTimeoutError:
                    if deadline is not None and monotonic() >= deadline:
                        self._terminate_pool()
                        raise RoundExecutionError(
                            f"round timed out after {self.round_timeout:.1f}s waiting "
                            f"for client {cid}; worker pool terminated"
                        ) from None
                    # Past client_timeout.  A task that never started
                    # cancels and re-runs uncharged; one that did really
                    # stalled its worker, so the window shrinks and the
                    # pool is recycled after this wave (without charging
                    # the respawn budget: the pool is healthy, just busy).
                    if future.cancel():
                        requeue(cid, attempt)
                    else:
                        stuck += 1
                        requeue(
                            cid,
                            attempt,
                            "straggler",
                            f"no result within client_timeout={self.client_timeout:.1f}s",
                        )
                except BrokenProcessPool as exc:
                    broken = True
                    if not tolerant:
                        self._terminate_pool()
                        raise RoundExecutionError(
                            f"worker process died while training client {cid} "
                            "(out-of-memory or hard crash); pool terminated"
                        ) from exc
                    # The task that killed its worker is charged; a
                    # bystander's result was merely lost with the pool.
                    requeue(cid, attempt, "worker_death" if kill else "", repr(exc))
                except Exception as exc:
                    if not tolerant:
                        self._terminate_pool()
                        raise RoundExecutionError(
                            f"client {cid} failed in worker: {exc!r}"
                        ) from exc
                    requeue(cid, attempt, "error", repr(exc))
                else:
                    # The returned mutable state makes the coordinator's
                    # client indistinguishable from one that trained
                    # in-process (its wire residual included, so the codec
                    # sees the residual a sequential run would).
                    client = by_id[cid]
                    client.set_mutable_state(result.mutable_state)
                    outcomes[cid].compute_seconds = result.compute_seconds
                    update = ClientUpdate(
                        client_id=cid,
                        state=unpack_state_dict(result.update_payload),
                        num_samples=result.num_samples,
                        train_loss=result.train_loss,
                    )
                    raw = result.update_payload if reuse_payload else None
                    self._collect(
                        key, update, reference, wire_reference, client, outcomes[cid],
                        attempt, raw,
                    )
            for cid, attempt, _ in tasks:  # never submitted: re-run uncharged
                requeue(cid, attempt)
            if broken or stuck:
                # A broken pool is useless, and a stalled worker would leak
                # into the next wave or round.
                self._terminate_pool()
            if broken:
                if respawns_left <= 0:
                    raise RoundExecutionError(
                        f"worker pool died and the respawn budget "
                        f"(max_pool_respawns={self.max_pool_respawns}) is exhausted "
                        f"with {len(pending)} client(s) still owed a result"
                    )
                respawns_left -= 1
                _log.warning(
                    "worker pool died; respawning to re-run %d client(s)", len(pending)
                )
        # Every result has been applied to its coordinator-side client;
        # hand the cohort's state back to the registry store in one sweep.
        execution = RoundExecution(bytes_broadcast=bytes_broadcast)
        for client in participants:
            self._release_collected(client)
            execution.record(outcomes[client.client_id])
        return self._finish_round(execution, len(participants), profile_token)


def executor_class(backend: str) -> type:
    """The round engine that runs ``backend``."""
    if backend == "batched":
        from repro.fl.batched import BatchedExecutor

        return BatchedExecutor
    if backend == "async":
        from repro.fl.async_engine import AsyncExecutor

        return AsyncExecutor
    engines = {"sequential": SequentialExecutor, "process": ParallelExecutor}
    if backend not in engines:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {EXECUTION_BACKENDS}"
        )
    return engines[backend]


def make_executor(
    backend: str = EngineConfig.backend,
    fault_injector: Optional[FaultInjector] = None,
    byzantine_injector: Optional[ByzantineInjector] = None,
    **settings: object,
) -> RoundExecutor:
    """Build a round executor from :class:`~repro.core.config.EngineConfig`
    fields, validated for ``backend``.

    A keyword that is not an :class:`EngineConfig` field (``aggregator=``,
    say) raises :class:`TypeError`; a knob ``backend`` never reads raises
    :class:`~repro.core.config.UnreadKnobError`.  ``fault_config`` and
    ``byzantine_config`` build seeded injectors; pass ``fault_injector`` /
    ``byzantine_injector`` instead for a scripted plan (tests).  ``codec``
    names the update-compression codec (see :mod:`repro.fl.communication`)
    or passes a pre-built :class:`~repro.fl.communication.Codec`.
    """
    return executor_class(backend)(
        fault_injector=fault_injector, byzantine=byzantine_injector, **settings
    )
