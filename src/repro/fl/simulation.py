"""Federated training orchestration.

:class:`FederatedSimulation` runs the synchronous FedAvg protocol of the
paper: every round the server broadcasts, every client trains locally for
``local_epochs``, and the server aggregates.  The simulation records the
history the evaluation needs:

* per-round, per-client training losses — the inputs to the Figure 7 EMD
  analysis;
* snapshots of client updates and global states at requested rounds — what a
  *passive* malicious server observes (Nasr et al.), consumed by the internal
  attacks in :mod:`repro.attacks.internal`;
* per-round global test accuracy when an evaluation set is provided.
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CheckpointConfig
from repro.data.dataset import Dataset
from repro.fl import checkpoint as ckpt
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.executor import RoundExecutionError, RoundExecutor, SequentialExecutor
from repro.fl.registry import ClientRegistry
from repro.fl.server import FLServer
from repro.fl.training import evaluate_model
from repro.nn.diagnostics import OpStat
from repro.nn.serialization import clone_state_dict
from repro.utils.logging import get_logger
from repro.utils.timer import Stopwatch

StateDict = Dict[str, np.ndarray]
_log = get_logger("fl.simulation")


def peak_memory_bytes() -> Tuple[int, int]:
    """``(ru_maxrss_bytes, tracemalloc_peak_bytes)`` for the process.

    ``ru_maxrss`` is the process-lifetime high-water RSS (monotone — it
    never decreases, so per-round values plateau once the peak is hit);
    the tracemalloc peak is 0 unless tracing is active.  Callers that want
    a *per-round* tracemalloc peak should ``tracemalloc.reset_peak()``
    between rounds (``run_round`` does when tracing).
    """
    rss = 0
    try:
        import resource

        rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if sys.platform != "darwin":
            rss *= 1024  # Linux reports kilobytes, macOS bytes.
    except Exception:  # pragma: no cover - platforms without getrusage
        pass
    traced = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
    return rss, int(traced)


@dataclass
class RoundSnapshot:
    """Everything a passive malicious server sees in one recorded round."""

    round_index: int
    global_state_before: StateDict
    client_states: Dict[int, StateDict]
    global_state_after: StateDict


@dataclass
class RoundMetrics:
    """Execution-engine telemetry for one round (Table XI / RQ5).

    ``wall_clock_seconds`` is the coordinator-observed duration of the full
    round (broadcast + local training + aggregation); ``client_compute_
    seconds`` is each participant's own local-training time, measured where
    it ran (so with the process backend their sum can exceed the wall
    clock — that excess is the parallel speedup).  Byte counts follow the
    FedAvg wire model: every participant downloads the global state and
    uploads its update.
    """

    round_index: int
    backend: str
    wall_clock_seconds: float
    client_compute_seconds: Dict[int, float]
    bytes_broadcast: int
    bytes_aggregated: int
    #: Dense baseline of the round's uploads (sum of raw array bytes).
    #: Equals ``bytes_aggregated`` without a wire codec; with a lossy codec
    #: ``bytes_aggregated`` reports the actual compressed payload sizes and
    #: this field keeps the uncompressed cost for compression-ratio
    #: telemetry (see :mod:`repro.fl.communication`).
    bytes_aggregated_dense: int = 0
    #: Clients dropped from the round after exhausting their retry budget,
    #: mapped to the failure kind ("crash", "straggler", "worker_death", ...).
    dropped_clients: Dict[int, str] = field(default_factory=dict)
    #: Surviving clients that needed retries, mapped to the retry count.
    retried_clients: Dict[int, int] = field(default_factory=dict)
    #: Clients quarantined by server-side update screening this round,
    #: mapped to the rejection reason (see ``repro.fl.robust.REJECT_REASONS``).
    rejected_clients: Dict[int, str] = field(default_factory=dict)
    #: Anomaly score of every *screened* client (not just rejected ones) —
    #: distance to the round's median delta over the median such distance;
    #: ``inf`` flags non-finite updates.  Empty when screening is off.
    anomaly_scores: Dict[int, float] = field(default_factory=dict)
    #: Async engine only: clients whose update arrived with a version lag
    #: beyond the staleness budget and was discarded, mapped to the lag.
    stale_clients: Dict[int, int] = field(default_factory=dict)
    #: Async engine only: mean version lag of the *admitted* updates this
    #: aggregation step (0.0 on synchronous engines, where lag is always 0).
    mean_staleness: float = 0.0
    #: Per-op counter deltas for the round when op profiling is enabled
    #: (see :mod:`repro.nn.diagnostics`); empty otherwise.
    op_stats: Dict[str, "OpStat"] = field(default_factory=dict)
    #: Process high-water RSS (``ru_maxrss``, bytes) measured right after
    #: the round's aggregation — the flat-memory evidence for virtualized
    #: populations.  Monotone across rounds by construction (the OS never
    #: lowers the high-water mark); 0 on platforms without ``getrusage``.
    peak_rss_bytes: int = 0
    #: Python-allocation peak (bytes) over this round, when ``tracemalloc``
    #: tracing is active for the process; 0 otherwise.  Unlike the RSS
    #: high-water this resets every round, so it *can* show per-round
    #: flatness directly.
    tracemalloc_peak_bytes: int = 0

    @property
    def total_compute_seconds(self) -> float:
        return float(sum(self.client_compute_seconds.values()))


@dataclass
class FLHistory:
    """Record of a federated run.

    ``test_accuracy`` holds ``(round_index, accuracy)`` pairs, where the
    round index is the number of completed rounds at measurement time —
    with ``eval_every > 1`` every accuracy still maps back to the exact
    round it measured.

    Every per-client structure here is keyed by client id in plain dicts —
    never indexed into dense arrays — so sparse id spaces (a 10^6-device
    registry where one round samples ids ``{3, 1_000_003, ...}``) cost
    memory proportional to the *participants seen*, not the maximum id
    (pinned by ``tests/fl/test_virtualization.py``).
    """

    train_losses: List[Dict[int, float]] = field(default_factory=list)
    test_accuracy: List[Tuple[int, float]] = field(default_factory=list)
    snapshots: List[RoundSnapshot] = field(default_factory=list)
    round_metrics: List[RoundMetrics] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.train_losses)

    def client_loss_series(self, client_id: int) -> np.ndarray:
        """This client's training-loss trajectory over the rounds it joined.

        With partial participation (or fault-dropped rounds), rounds the
        client sat out are skipped.
        """
        return np.array(
            [
                round_losses[client_id]
                for round_losses in self.train_losses
                if client_id in round_losses
            ]
        )

    def participating_clients(self) -> List[int]:
        """Sorted ids of every client that delivered at least one update."""
        seen = set()
        for round_losses in self.train_losses:
            seen.update(round_losses)
        return sorted(seen)

    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1][1] if self.test_accuracy else float("nan")

    def test_accuracy_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluation rounds and their accuracies as aligned arrays."""
        if not self.test_accuracy:
            return np.array([], dtype=int), np.array([])
        rounds, accuracies = zip(*self.test_accuracy)
        return np.array(rounds, dtype=int), np.array(accuracies)

    def mean_round_seconds(self) -> float:
        """Mean wall-clock seconds per round (NaN before any round ran)."""
        if not self.round_metrics:
            return float("nan")
        return float(
            np.mean([metrics.wall_clock_seconds for metrics in self.round_metrics])
        )

    def dropped_client_rounds(self) -> Dict[int, int]:
        """How many rounds each client was dropped from (fault tolerance)."""
        counts: Dict[int, int] = {}
        for metrics in self.round_metrics:
            for client_id in metrics.dropped_clients:
                counts[client_id] = counts.get(client_id, 0) + 1
        return counts

    def stale_client_rounds(self) -> Dict[int, int]:
        """How many aggregation steps each client's update arrived too stale
        to admit (async engine's staleness budget)."""
        counts: Dict[int, int] = {}
        for metrics in self.round_metrics:
            for client_id in metrics.stale_clients:
                counts[client_id] = counts.get(client_id, 0) + 1
        return counts

    def rejected_client_rounds(self) -> Dict[int, int]:
        """How many rounds each client was quarantined by update screening.

        A client repeatedly rejected across rounds is the signal a real
        deployment would act on (eviction, audit); honest clients should
        appear here rarely if at all.
        """
        counts: Dict[int, int] = {}
        for metrics in self.round_metrics:
            for client_id in metrics.rejected_clients:
                counts[client_id] = counts.get(client_id, 0) + 1
        return counts


class FederatedSimulation:
    """Synchronous FedAvg simulation over a fixed client population.

    The population is either an eager client list (``clients=...``, the
    historical cross-silo mode: every client stays a live object) or a
    :class:`~repro.fl.registry.ClientRegistry` (``registry=...``, the
    cross-device mode: the executor materializes only the clients it
    trains, dirty state lives in the registry's state store).  Both run
    through the identical round path and produce bit-identical results for
    the same sampled cohorts.  The simulation samples the cohort as ids;
    the executor checks the clients out.
    """

    def __init__(
        self,
        server: FLServer,
        clients: Optional[Sequence[FLClient]] = None,
        eval_dataset: Optional[Dataset] = None,
        eval_every: int = 0,
        snapshot_rounds: Sequence[int] = (),
        clients_per_round: Optional[int] = None,
        sampling_seed: Optional[int] = None,
        executor: Optional[RoundExecutor] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        registry: Optional[ClientRegistry] = None,
    ) -> None:
        """``clients_per_round`` enables partial participation: each round a
        uniform random subset of that size trains; the rest sit out (the
        cross-device FedAvg setting).  ``None`` means full participation
        (the paper's cross-silo setting).

        Exactly one of ``clients`` and ``registry`` must be given; an eager
        ``clients`` list is wrapped in a zero-copy live-mode registry.

        ``executor`` selects the round-execution engine (see
        :mod:`repro.fl.executor`); the default trains clients sequentially
        in-process.  Pooled executors hold worker processes — call
        :meth:`close` (or use the simulation as a context manager) when
        done.

        ``checkpoint`` enables periodic checkpointing (see
        :mod:`repro.fl.checkpoint`): every ``checkpoint.every`` completed
        rounds the full resumable state lands in ``checkpoint.directory``,
        and :meth:`resume` restarts a killed run from the newest one."""
        if (registry is None) == (clients is None):
            raise ValueError("pass exactly one of clients or registry")
        if registry is None:
            if not clients:
                raise ValueError("simulation needs at least one client")
            registry = ClientRegistry.from_clients(clients)
        if clients_per_round is not None and not 1 <= clients_per_round <= len(registry):
            raise ValueError("clients_per_round must be in [1, population]")
        self.server = server
        self.registry = registry
        #: Eager mode: the live client list (id order), unchanged contract.
        #: Virtual mode: ``None`` — clients exist only while checked out.
        self.clients = registry.live_clients
        self.eval_dataset = eval_dataset
        self.eval_every = eval_every
        self.snapshot_rounds = set(snapshot_rounds)
        self.clients_per_round = clients_per_round
        self._sampling_rng = np.random.default_rng(sampling_seed)
        self.executor = executor if executor is not None else SequentialExecutor()
        self.executor.bind_registry(registry)
        self.checkpoint = checkpoint
        self.history = FLHistory()

    def close(self) -> None:
        """Release the executor's pooled resources (no-op when sequential)."""
        self.executor.close()

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _select_participant_ids(self) -> List[int]:
        """Draw the round's cohort as *ids* — no client is materialized.

        The draw is positional over the sorted id list, so for contiguous
        ``0..n-1`` populations the sequence of sampled cohorts is
        bit-identical to the historical object-index draw.
        """
        ids = self.registry.client_ids
        if self.clients_per_round is None:
            return list(ids)
        picks = self._sampling_rng.choice(
            len(ids), size=self.clients_per_round, replace=False
        )
        return [ids[i] for i in sorted(picks)]

    def run(self, rounds: int) -> FLHistory:
        """Run ``rounds`` communication rounds, extending the history.

        An unrecoverable :class:`RoundExecutionError` releases the
        executor's pooled workers before propagating — a failed multi-hour
        run must not leak a process pool.  With checkpointing enabled the
        state saved before the failure remains on disk for :meth:`resume`.
        """
        try:
            for _ in range(rounds):
                self.run_round()
                if (
                    self.checkpoint is not None
                    and self.checkpoint.enabled
                    and self.server.round % self.checkpoint.every == 0
                ):
                    path = self.save_checkpoint()
                    injector = getattr(self.executor, "fault_injector", None)
                    if (
                        injector is not None
                        and injector.checkpoint_enabled
                        and injector.corrupt_checkpoint(path, self.server.round)
                    ):
                        # Chaos channel: rot the bytes we just wrote, exactly
                        # as a torn write or bad sector would.  resume() falls
                        # back to the newest checkpoint that still verifies.
                        _log.warning("chaos: corrupted checkpoint %s", path)
        except RoundExecutionError:
            self.close()
            raise
        return self.history

    def run_round(self) -> List[ClientUpdate]:
        """One synchronous round: broadcast -> local train -> aggregate."""
        round_index = self.server.round
        record = round_index in self.snapshot_rounds
        before = self.server.global_state() if record else None

        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        participant_ids = self._select_participant_ids()
        try:
            with Stopwatch() as round_watch:
                execution = self.executor.execute(participant_ids, self.server)
                updates = execution.updates
                # The executor already enforced its min_participation quorum;
                # re-asserting it here guards the aggregation against any
                # executor handing over a pathologically small survivor set.
                # The async engine reports its own quorum base (one execute()
                # call is one buffer flush, not one full cohort).
                after = self.server.aggregate(
                    updates,
                    expected_participants=(
                        len(participant_ids)
                        if execution.expected_participants is None
                        else execution.expected_participants
                    ),
                    min_participation=self.executor.min_participation,
                    staleness=execution.staleness_weights or None,
                )
        finally:
            # Executors check their clients out and release them at their
            # collection points; this sweep is the safety net (idempotent)
            # and covers mid-round failures.
            self.registry.release_all()
        peak_rss, traced_peak = peak_memory_bytes()
        screening = self.server.last_screening
        # Quarantines can come from server-side screening (synchronous
        # engines), from the async engine's streaming admission screener, or
        # from the executor's wire-delivery quarantine; a client lands in at
        # most one of those per round, so merging loses nothing.  The
        # aggregate sanity gate's drops ride along under their own reasons.
        rejected = dict(execution.rejected)
        anomaly_scores = dict(execution.anomaly_scores)
        if screening is not None:
            rejected.update(screening.rejected)
            anomaly_scores.update(screening.scores)
        rejected.update(self.server.last_gate)
        round_losses = {u.client_id: u.train_loss for u in updates}
        self.history.train_losses.append(round_losses)
        self.history.round_metrics.append(
            RoundMetrics(
                round_index=round_index,
                backend=self.executor.name,
                wall_clock_seconds=round_watch.elapsed,
                client_compute_seconds={
                    result.update.client_id: result.compute_seconds
                    for result in execution.results
                },
                bytes_broadcast=execution.bytes_broadcast,
                bytes_aggregated=execution.bytes_aggregated,
                bytes_aggregated_dense=execution.bytes_aggregated_dense,
                dropped_clients={
                    failure.client_id: failure.kind for failure in execution.failures
                },
                retried_clients=dict(execution.retries),
                rejected_clients=rejected,
                anomaly_scores=anomaly_scores,
                stale_clients=dict(execution.stale),
                mean_staleness=(
                    float(np.mean(execution.staleness_lags))
                    if execution.staleness_lags
                    else 0.0
                ),
                op_stats=execution.op_stats,
                peak_rss_bytes=peak_rss,
                tracemalloc_peak_bytes=traced_peak,
            )
        )

        if record:
            assert before is not None
            self.history.snapshots.append(
                RoundSnapshot(
                    round_index=round_index,
                    global_state_before=before,
                    client_states={u.client_id: clone_state_dict(u.state) for u in updates},
                    global_state_after=clone_state_dict(after),
                )
            )

        if (
            self.eval_dataset is not None
            and self.eval_every > 0
            and self.server.round % self.eval_every == 0
        ):
            result = evaluate_model(self.server.model, self.eval_dataset)
            self.history.test_accuracy.append((self.server.round, result.accuracy))
            _log.info(
                "round %d: test acc %.4f", self.server.round, result.accuracy
            )
        return updates

    # -- checkpoint / resume ----------------------------------------------
    def save_checkpoint(self, directory: Optional[str] = None) -> str:
        """Persist the full resumable state now; returns the file path."""
        if directory is None:
            if self.checkpoint is None or self.checkpoint.directory is None:
                raise ValueError(
                    "no checkpoint directory: pass one or configure "
                    "CheckpointConfig(directory=...)"
                )
            directory = self.checkpoint.directory
        keep = self.checkpoint.keep if self.checkpoint is not None else 0
        return ckpt.save_checkpoint(self, directory, keep=keep)

    def restore(self, path: str) -> int:
        """Load a checkpoint file into this simulation (see
        :func:`repro.fl.checkpoint.restore_simulation`)."""
        return ckpt.restore_simulation(self, path)

    def resume(self, rounds: int) -> FLHistory:
        """Run to ``rounds`` *total* rounds, restarting from the newest
        checkpoint when one exists.

        A freshly-constructed simulation (same population, seeds, and
        configuration as the interrupted run) that calls ``resume(n)``
        produces a history bit-identical to an uninterrupted ``run(n)``.
        Without any checkpoint on disk this is exactly ``run(rounds)``.

        Checkpoints whose integrity digest fails to verify (torn writes,
        bit rot, chaos-injected corruption) are skipped with a warning and
        the next-newest one is tried — the last-good chain.  Resume starts
        from scratch only when *no* checkpoint on disk verifies.
        """
        if self.checkpoint is None or self.checkpoint.directory is None:
            raise ValueError("resume requires CheckpointConfig(directory=...)")
        ckpt.restore_latest_good(self, self.checkpoint.directory)
        remaining = rounds - self.server.round
        if remaining > 0:
            self.run(remaining)
        return self.history

    def evaluate_global(self, dataset: Dataset):
        """Evaluate the current global model (used for final reporting)."""
        return evaluate_model(self.server.model, dataset)

    def evaluate_clients(
        self,
        dataset: Dataset,
        sample: Optional[int] = None,
        sample_seed: int = 0,
    ) -> List[float]:
        """Each client's accuracy on ``dataset`` using its *own* view.

        Standard clients all evaluate the same global model; CIP clients
        blend the evaluation inputs with their private perturbation, so this
        is the per-client accuracy the paper reports.

        ``sample`` caps the evaluation cohort: at most that many clients
        (drawn uniformly with ``sample_seed``, independent of the training
        sampler so evaluation never perturbs replay) are materialized — one
        at a time on virtual registries, so evaluating a 10^5-population
        run never builds more than one throwaway client.  ``None``
        evaluates the full population (the historical behavior).
        """
        ids = self.registry.client_ids
        if sample is not None:
            if sample < 1:
                raise ValueError("sample must be at least 1")
            if sample < len(ids):
                # A dedicated generator: drawing from the training sampler
                # here would desynchronize checkpoint replay.
                rng = np.random.default_rng(sample_seed)
                picks = rng.choice(len(ids), size=sample, replace=False)
                ids = [ids[i] for i in sorted(picks)]
        # One global-state fetch serves every client: receive_global copies
        # the arrays into the model, so sharing the dict is safe.
        state = self.server.global_state()
        accuracies = []
        for cid in ids:
            client = self.registry.materialize_for_read(cid)
            client.receive_global(state)
            accuracies.append(client.evaluate(dataset).accuracy)
        return accuracies
