"""CIP hyperparameters (paper Tables I and II) and execution settings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Round-execution backends understood by :class:`ExecutionConfig`.
EXECUTION_BACKENDS = ("sequential", "process", "batched", "async")

#: Staleness-weighting families of the buffered async engine (see
#: :func:`repro.fl.aggregation.staleness_weight`).
STALENESS_POLICIES = ("constant", "polynomial", "hinge")

#: Aggregation rules understood by :class:`ExecutionConfig` and the server
#: (implemented in :mod:`repro.fl.aggregation`).
AGGREGATORS = ("fedavg", "median", "trimmed_mean", "norm_clip", "krum", "multi_krum")

#: Update-compression codecs understood by :class:`ExecutionConfig` (the wire
#: protocol and codec implementations live in :mod:`repro.fl.communication`).
WIRE_CODECS = ("none", "topk", "qsgd", "delta")

#: Malicious-client behaviours understood by :class:`ByzantineConfig`
#: (implemented in :mod:`repro.fl.malicious`; ``"none"`` means honest).
BYZANTINE_ATTACKS = (
    "none",
    "sign_flip",
    "model_replacement",
    "gaussian_noise",
    "nan_bomb",
)


@dataclass
class ExecutionConfig:
    """How FedAvg rounds are executed (see :mod:`repro.fl.executor`).

    Attributes
    ----------
    backend:
        ``"sequential"`` trains clients one after another in-process;
        ``"process"`` fans the round out over a persistent worker pool;
        ``"batched"`` stacks same-architecture plain-SGD clients along a
        leading client axis and trains the whole cohort through grouped
        kernels (clients it cannot stack fall back to the sequential
        path per client, see :mod:`repro.fl.batched`).  All three produce
        bitwise-identical results for seeded runs (as long as
        ``wire_dtype`` stays ``None``).
    num_workers:
        Worker-process count for the ``process`` backend; ``None`` uses all
        CPU cores.  More workers than selected clients per round is wasted.
    wire_dtype:
        Optional ``"float32"`` compression of broadcast/update payloads.
        Halves wire bytes, but the lossy cast forfeits bitwise equality
        with the sequential path.
    round_timeout:
        Optional wall-clock budget (seconds) for one round on the
        ``process`` backend; expiry raises instead of hanging.
    client_timeout:
        Optional per-client budget (seconds).  On every backend an
        *injected* straggler delay beyond it times out on the virtual clock
        and is retried (or dropped), see :class:`FaultConfig`.  On the
        process backend it is also a real wall-clock budget: a worker that
        genuinely stalls past it is abandoned as a straggler.  In-process
        backends cannot preempt a running client.
    max_retries:
        Bounded retry budget per client per round for transient failures.
        ``0`` (default) preserves the historical fail-fast behaviour.
    retry_backoff_seconds / retry_backoff_factor / retry_backoff_max_seconds:
        Exponential-backoff schedule between retry attempts: failed attempt
        ``k`` waits ``min(base * factor**k, max)`` seconds of *virtual* time
        before the next one.  Nothing sleeps; the async engine's arrival
        schedule is the only consumer of the delay.
    min_participation:
        Fraction of the round's selected participants that must deliver an
        update for the round to aggregate; survivors are FedAvg-combined
        (re-weighted by ``num_samples``) and dropped clients are recorded in
        the history.  ``1.0`` (default) aborts the round on any drop,
        matching the paper's all-participants protocol.
    max_pool_respawns:
        How many times per round the process backend may respawn a worker
        pool that died (e.g. a worker was OOM-killed) before giving up.
        Only the clients whose results were lost with the pool re-run.
    nn_debug:
        Turn on the :mod:`repro.nn.diagnostics` invariant guards (grad
        shape/dtype checks, NaN/Inf anomaly detection) for the run.
        Equivalent to setting ``REPRO_NN_DEBUG=1``; noticeably slower, so
        off by default.  Once enabled, the guards stay on for the process
        lifetime (a later config without the flag does not disable them).
    profile_ops:
        Collect per-op call/time/bytes counters during the run (see
        ``repro.nn.diagnostics.get_op_stats``); per-round deltas appear in
        ``RoundMetrics.op_stats``.  Same enable-only lifetime as
        ``nn_debug``.
    aggregator:
        Aggregation rule the server applies to the round's accepted updates
        (see :mod:`repro.fl.aggregation`).  ``"fedavg"`` (default) is the
        paper's sample-weighted mean; the robust alternatives (``median``,
        ``trimmed_mean``, ``norm_clip``, ``krum``, ``multi_krum``) bound
        the influence any single — possibly Byzantine — client has on the
        global model.
    trim_fraction:
        Fraction of extreme values trimmed from *each* end per coordinate
        by the ``trimmed_mean`` aggregator.  ``0.0`` degenerates to the
        plain (unweighted) mean.
    clip_norm:
        Per-update L2 delta bound of the ``norm_clip`` aggregator; ``None``
        clips at the round's median delta norm.
    krum_byzantine:
        Byzantine-client count ``f`` assumed by ``krum``/``multi_krum``;
        ``None`` uses the maximal tolerable ``f = (n - 3) // 2``.
    screen_updates:
        Screen every incoming client update before aggregation (NaN/Inf
        rejection, delta-norm bounds, distance-based outlier scores; see
        :mod:`repro.fl.robust`).  Rejected clients count against the
        ``min_participation`` quorum, so screening is normally combined
        with ``min_participation < 1``.
    nn_backend:
        Array backend driving every ``repro.nn`` op for the run (see
        :mod:`repro.nn.backend`).  ``"numpy"`` (default) is the
        bit-identical reference; ``"accelerated"`` reuses im2col/GEMM
        workspaces across steps.  Process-pool workers activate the same
        backend, so coordinator and workers always agree.
    compute_dtype:
        Dtype policy for ``repro.nn``: ``"float64"`` (default, the paper's
        precision) or ``"float32"`` (half the memory traffic; losses still
        accumulate in float64).  Recorded in checkpoints together with
        ``nn_backend`` — resume refuses a mismatched configuration.
    buffer_size:
        ``async`` backend only: how many admitted client updates the server
        buffers before it aggregates them into the global model (FedBuff's
        ``K``).  One :meth:`AsyncExecutor.execute` call corresponds to one
        buffer flush, i.e. one aggregation step.
    concurrency:
        ``async`` backend only: cap on simultaneously in-flight client
        trainings in the virtual-time simulation; ``None`` lets every
        participant train concurrently.
    staleness_policy / staleness_alpha / staleness_hinge:
        ``async`` backend only: staleness-weight family applied to a
        buffered delta whose base model is ``lag`` versions old (see
        :func:`repro.fl.aggregation.staleness_weight`): ``constant`` keeps
        weight 1, ``polynomial`` uses ``(1 + lag) ** -alpha``, ``hinge``
        keeps weight 1 up to ``staleness_hinge`` and decays
        ``1 / (alpha * (lag - hinge) + 1)`` beyond it.
    staleness_budget:
        ``async`` backend only: admission policy — an arriving update whose
        version lag exceeds this budget is discarded as stale (recorded in
        ``RoundMetrics.stale_clients``) instead of entering the buffer.
        ``None`` admits any lag (down-weighted by the staleness policy).
    screen_window:
        ``async`` backend only: length of the sliding window of recently
        accepted deltas that the streaming Byzantine screener uses as its
        median reference (see :class:`repro.fl.robust.StreamingScreener`).
    client_latency:
        ``async`` backend only: baseline virtual training latency (seconds
        of virtual time) per client task.  A task arrives at its dispatch
        time plus the virtual cost of its failed attempts (timeouts and
        backoffs), this latency, and the injected straggler delay and
        lognormal jitter of the attempt that trained.  Only shapes arrival
        *order*; no engine sleeps virtual time.
    codec:
        Update-compression codec applied at the executors' collection point
        (see :mod:`repro.fl.communication`): ``"none"`` (dense, default),
        ``"topk"`` (sparsification with error feedback), ``"qsgd"``
        (stochastic quantization), or ``"delta"`` (float32 delta encoding).
        Updates are decoded before screening/aggregation, so robust rules
        always see real (post-wire) deltas.
    topk_fraction:
        ``topk`` codec: fraction of each float leaf's coordinates kept per
        round (at least one per leaf).
    qsgd_levels:
        ``qsgd`` codec: quantization levels per sign, in ``[1, 127]``
        (levels are shipped as signed int8).
    gate_aggregate:
        Server-side aggregate sanity gate: after the aggregation rule
        merges the round's accepted updates, reject the flush when the
        merged state is non-finite or its delta norm explodes past
        ``gate_norm_multiplier`` times the round's median accepted delta
        norm, re-aggregate without the offending updates, and record the
        offenders in ``RoundMetrics.rejected_clients``.  The last line of
        defense when screening is off or an attack slips through it.
    gate_norm_multiplier:
        Norm-explosion threshold of the aggregate gate, as a multiple of
        the median accepted delta norm.
    checkpoint_dir:
        Directory for periodic run checkpoints (see
        :mod:`repro.fl.checkpoint`); ``None`` (default) disables
        checkpointing for experiment-driven simulations.
    checkpoint_every:
        Checkpoint cadence in completed rounds (with ``checkpoint_dir``).
    checkpoint_keep:
        Retain only the newest ``checkpoint_keep`` checkpoints — the
        last-good chain that corruption recovery falls back along
        (``0`` keeps all).
    population:
        Virtualized-federation client count (see
        :class:`repro.fl.registry.ClientRegistry`).  ``None`` (default)
        keeps the historical live-object path; setting it builds clients
        lazily from ``(seed, client_id)`` so memory scales with the
        *cohort*, not the population.
    cohort_fraction:
        Fraction of the population sampled per round under
        virtualization; ``None`` selects every client (only sensible for
        small populations).
    shards:
        Hierarchical-aggregation shard count (see
        :class:`repro.fl.aggregation.ShardAggregator`).  ``1`` (default)
        keeps flat aggregation; ``> 1`` folds the cohort edge → region →
        root.  Sharded FedAvg is bitwise identical to flat; robust rules
        apply shard-locally.
    state_store:
        Where virtualized per-client mutable state lives between rounds:
        ``"memory"`` (default, everything resident) or ``"lru"`` (hot
        cache of ``state_cache_size`` clients, rest spilled to disk;
        evict/rehydrate is bit-identical).
    state_cache_size:
        Hot-tier capacity (client count) of the ``lru`` state store.
    """

    backend: str = "sequential"
    num_workers: Optional[int] = None
    wire_dtype: Optional[str] = None
    round_timeout: Optional[float] = None
    client_timeout: Optional[float] = None
    max_retries: int = 0
    retry_backoff_seconds: float = 0.05
    retry_backoff_factor: float = 2.0
    retry_backoff_max_seconds: float = 5.0
    min_participation: float = 1.0
    max_pool_respawns: int = 2
    nn_debug: bool = False
    profile_ops: bool = False
    aggregator: str = "fedavg"
    trim_fraction: float = 0.1
    clip_norm: Optional[float] = None
    krum_byzantine: Optional[int] = None
    screen_updates: bool = False
    nn_backend: str = "numpy"
    compute_dtype: str = "float64"
    buffer_size: int = 4
    concurrency: Optional[int] = None
    staleness_policy: str = "polynomial"
    staleness_alpha: float = 0.5
    staleness_hinge: int = 4
    staleness_budget: Optional[int] = None
    screen_window: int = 16
    client_latency: float = 1.0
    codec: str = "none"
    topk_fraction: float = 0.05
    qsgd_levels: int = 16
    gate_aggregate: bool = False
    gate_norm_multiplier: float = 10.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    checkpoint_keep: int = 3
    population: Optional[int] = None
    cohort_fraction: Optional[float] = None
    shards: int = 1
    state_store: str = "memory"
    state_cache_size: int = 64

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise ValueError(f"backend must be one of {EXECUTION_BACKENDS}")
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.wire_dtype not in (None, "float32", "float64"):
            raise ValueError("wire_dtype must be None, 'float32' or 'float64'")
        if self.round_timeout is not None and self.round_timeout <= 0:
            raise ValueError("round_timeout must be positive")
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise ValueError("client_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_seconds < 0 or self.retry_backoff_max_seconds < 0:
            raise ValueError("retry backoff delays must be non-negative")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if not 0.0 < self.min_participation <= 1.0:
            raise ValueError("min_participation must be in (0, 1]")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be non-negative")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.krum_byzantine is not None and self.krum_byzantine < 0:
            raise ValueError("krum_byzantine must be non-negative")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        if self.concurrency is not None and self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.staleness_policy not in STALENESS_POLICIES:
            raise ValueError(
                f"staleness_policy must be one of {STALENESS_POLICIES}"
            )
        if self.staleness_alpha < 0:
            raise ValueError("staleness_alpha must be non-negative")
        if self.staleness_hinge < 0:
            raise ValueError("staleness_hinge must be non-negative")
        if self.staleness_budget is not None and self.staleness_budget < 0:
            raise ValueError("staleness_budget must be non-negative")
        if self.screen_window < 1:
            raise ValueError("screen_window must be at least 1")
        if self.client_latency < 0:
            raise ValueError("client_latency must be non-negative")
        if self.codec not in WIRE_CODECS:
            raise ValueError(f"codec must be one of {WIRE_CODECS}")
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValueError("topk_fraction must be in (0, 1]")
        if not 1 <= self.qsgd_levels <= 127:
            raise ValueError("qsgd_levels must be in [1, 127]")
        if self.gate_norm_multiplier <= 0:
            raise ValueError("gate_norm_multiplier must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.checkpoint_keep < 0:
            raise ValueError("checkpoint_keep must be non-negative")
        if self.population is not None and self.population < 1:
            raise ValueError("population must be at least 1")
        if self.cohort_fraction is not None and not 0.0 < self.cohort_fraction <= 1.0:
            raise ValueError("cohort_fraction must be in (0, 1]")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        # Imported lazily to keep repro.core free of an import-time cycle
        # with the fl package.
        from repro.fl.registry import STATE_STORES

        if self.state_store not in STATE_STORES:
            raise ValueError(f"state_store must be one of {STATE_STORES}")
        if self.state_cache_size < 1:
            raise ValueError("state_cache_size must be at least 1")
        # Imported lazily: repro.nn.backend must stay importable without
        # repro.core (the nn substrate has no core dependency).
        from repro.nn.backend import available_backends, available_dtype_policies

        if self.nn_backend not in available_backends():
            raise ValueError(f"nn_backend must be one of {available_backends()}")
        if self.compute_dtype not in available_dtype_policies():
            raise ValueError(
                f"compute_dtype must be one of {available_dtype_policies()}"
            )


@dataclass
class FaultConfig:
    """Deterministic client-fault injection (see :mod:`repro.fl.faults`).

    Each rate is the per-(round, client, attempt) probability of that fault;
    a single uniform draw per attempt makes the faults mutually exclusive,
    so the rates must sum to at most 1.  Decisions are derived statelessly
    from ``(seed, round, client, attempt)``, so the same config produces the
    same fault schedule on every backend and on resumed runs.

    Attributes
    ----------
    crash_rate:
        Probability a client fails permanently for the round (no retry).
    transient_rate:
        Probability of a retriable failure (succeeds on a later attempt if
        the retry budget allows).
    straggler_rate / straggler_delay_seconds:
        Probability a client stalls for ``straggler_delay_seconds`` (virtual
        seconds, never slept) before training.  Combined with
        ``client_timeout`` this exercises the drop-slow-clients path.
    worker_death_rate:
        Probability the worker *process* hosting the client dies mid-round
        (``os._exit``, on the process backend).  In-process backends treat
        it as a crash (killing the only process would kill the simulation
        itself).
    jitter_scale / jitter_sigma:
        Heavy-tailed (lognormal) per-attempt arrival jitter sampled by
        :meth:`repro.fl.faults.FaultInjector.delay_for`:
        ``jitter_scale * exp(jitter_sigma * N(0, 1))`` seconds, so
        ``jitter_scale`` is the *median* extra latency and ``jitter_sigma``
        controls the tail weight.  ``jitter_scale == 0`` (default)
        disables jitter.  The async engine uses it for replayable arrival
        order; decisions are stateless in ``(seed, round, client, attempt)``
        like every other fault draw.
    wire_corrupt_rate:
        Per-*transmission* probability that a client's encoded update
        payload is corrupted in flight (bit flip, truncation, or header
        garbling of the RFW1 frame — the kind is drawn from the same seeded
        stream).  Unlike the client-fault rates above, this is a separate
        channel: it is drawn independently of the training-fault draw and
        does not count toward the rates-sum-to-1 constraint.  Each
        retransmission gets a fresh draw keyed
        ``(seed, "wire", round, client, attempt)``, so the corruption
        schedule replays bit-identically on every backend.
    checkpoint_corrupt_rate:
        Per-checkpoint probability that a just-written checkpoint file is
        corrupted on disk (simulated storage rot), keyed
        ``(seed, "ckpt", round)``.  Exercises the digest-verified
        last-good recovery chain in :mod:`repro.fl.checkpoint`.
    seed:
        Root seed of the fault stream.
    """

    crash_rate: float = 0.0
    transient_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay_seconds: float = 0.0
    worker_death_rate: float = 0.0
    jitter_scale: float = 0.0
    jitter_sigma: float = 0.75
    wire_corrupt_rate: float = 0.0
    checkpoint_corrupt_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        rates = (
            self.crash_rate,
            self.transient_rate,
            self.straggler_rate,
            self.worker_death_rate,
        )
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must be in [0, 1]")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")
        if self.straggler_delay_seconds < 0:
            raise ValueError("straggler_delay_seconds must be non-negative")
        if self.jitter_scale < 0:
            raise ValueError("jitter_scale must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if not 0.0 <= self.wire_corrupt_rate <= 1.0:
            raise ValueError("wire_corrupt_rate must be in [0, 1]")
        if not 0.0 <= self.checkpoint_corrupt_rate <= 1.0:
            raise ValueError("checkpoint_corrupt_rate must be in [0, 1]")

    @property
    def enabled(self) -> bool:
        return self.jitter_scale > 0.0 or any(
            rate > 0.0
            for rate in (
                self.crash_rate,
                self.transient_rate,
                self.straggler_rate,
                self.worker_death_rate,
                self.wire_corrupt_rate,
                self.checkpoint_corrupt_rate,
            )
        )


@dataclass
class ByzantineConfig:
    """Deterministic malicious-client update corruption (see
    :mod:`repro.fl.malicious`).

    Unlike :class:`FaultConfig`'s benign failures, Byzantine clients train
    honestly and then corrupt the state dict they *return* — the adversarial
    threat model robust aggregation and update screening defend against.
    Corruption is a pure function of ``(seed, round, client)``, so the attack
    schedule is bit-identical across backends and across checkpoint resume.

    Attributes
    ----------
    attack:
        Behaviour of the listed clients: ``sign_flip`` reflects the update
        about the broadcast state (the returned delta is the honest delta
        negated), ``model_replacement`` scales the honest delta by ``scale``
        (the boosted replacement attack of Bagdasaryan et al.),
        ``gaussian_noise`` adds seed-derived N(0, ``noise_std``) noise, and
        ``nan_bomb`` returns an all-NaN/Inf state.  ``"none"`` disables.
    clients:
        Ids of the malicious clients.
    scale:
        Delta amplification of ``model_replacement``.
    noise_std:
        Noise level of ``gaussian_noise``.
    start_round:
        Rounds before this are honest (sleeper-agent attacks).
    seed:
        Root seed of the attack's noise stream.
    """

    attack: str = "none"
    clients: Tuple[int, ...] = ()
    scale: float = 10.0
    noise_std: float = 1.0
    start_round: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attack not in BYZANTINE_ATTACKS:
            raise ValueError(f"attack must be one of {BYZANTINE_ATTACKS}")
        self.clients = tuple(int(c) for c in self.clients)
        if any(c < 0 for c in self.clients):
            raise ValueError("client ids must be non-negative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.start_round < 0:
            raise ValueError("start_round must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.attack != "none" and bool(self.clients)


@dataclass
class ScreeningConfig:
    """Server-side update screening (see :mod:`repro.fl.robust`).

    Every rule is independent and deterministic; an update failing any rule
    is quarantined before aggregation and counted against the
    ``min_participation`` quorum.  Statistical rules (relative norm, outlier
    score, cosine) need a population to compare against and are skipped when
    fewer than ``min_updates`` finite updates arrived.

    Attributes
    ----------
    max_delta_norm:
        Absolute L2 bound on an update's delta from the broadcast state;
        ``None`` disables the absolute rule.
    norm_multiplier:
        Relative bound: reject updates whose delta norm exceeds
        ``norm_multiplier`` times the round's median delta norm.  ``0``
        disables.
    outlier_threshold:
        Distance-based outlier rule: each update's anomaly score is its
        distance to the coordinate-wise median delta, normalized by the
        median of those distances; scores above the threshold are rejected.
        ``0`` disables.
    min_cosine:
        Direction rule: reject updates whose delta's cosine similarity to
        the coordinate-wise median delta falls below this (sign-flipped
        updates score near -1).  ``None`` disables.
    min_updates:
        Minimum finite updates required before the statistical rules apply
        (NaN/Inf and absolute-norm rejection always apply).
    """

    max_delta_norm: Optional[float] = None
    norm_multiplier: float = 4.0
    outlier_threshold: float = 4.0
    min_cosine: Optional[float] = None
    min_updates: int = 3

    def __post_init__(self) -> None:
        if self.max_delta_norm is not None and self.max_delta_norm <= 0:
            raise ValueError("max_delta_norm must be positive")
        if self.norm_multiplier < 0:
            raise ValueError("norm_multiplier must be non-negative")
        if self.outlier_threshold < 0:
            raise ValueError("outlier_threshold must be non-negative")
        if self.min_cosine is not None and not -1.0 <= self.min_cosine <= 1.0:
            raise ValueError("min_cosine must be in [-1, 1]")
        if self.min_updates < 2:
            raise ValueError("min_updates must be at least 2")


@dataclass
class CheckpointConfig:
    """Periodic simulation checkpointing (see :mod:`repro.fl.checkpoint`).

    Attributes
    ----------
    directory:
        Where checkpoint files land; ``None`` disables checkpointing.
    every:
        Checkpoint cadence in completed rounds; ``0`` disables.
    keep:
        Retain only the newest ``keep`` checkpoints (``0`` keeps all).
    """

    directory: Optional[str] = None
    every: int = 0
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("every must be non-negative")
        if self.keep < 0:
            raise ValueError("keep must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.directory is not None and self.every > 0


@dataclass
class CIPConfig:
    """Configuration of the CIP defense.

    Attributes
    ----------
    alpha:
        Blending parameter of Eq. (2).  The paper sweeps 0.1-0.9 and deploys
        0.9 for strong privacy (RQ3 take-away); 0.5 is used in the internal
        comparison of RQ1.
    lambda_t:
        L1-magnitude weight in the perturbation objective (Eq. 3).  Paper:
        1e-8 internal, 1e-3..1e-12 external depending on dataset.
    lambda_m:
        Weight of the *maximize loss on original data* term in the model
        objective (Eq. 4).  Kept small (paper: 1e-6 internal, 1e-12
        external) so original-data loss stays unremarkable — the property
        that defeats the inverse-MI adaptive attack (RQ4 Knowledge-4).
    perturbation_lr:
        SGD step size for Step I (paper: 1e-2 internal, 1e-3 external).
    perturbation_steps:
        Step-I gradient steps per training round.
    clip_range:
        Blended inputs are clipped to the range of the original data
        (paper Section III-A); all our datasets live in [0, 1].
    seed_scale:
        Magnitude of the random initialization of ``t`` ("some random
        input", Section III-B1).
    original_loss_cap:
        Optional saturation level for the maximized original-data loss term.
        The paper motivates ``lambda_m`` as a balance "to avoid abnormally
        high loss on original data"; the cap implements that balance
        explicitly — ascent on the original-data loss stops once it reaches
        the cap (a non-member-typical level, e.g. ``log(num_classes)``) —
        which keeps larger ``lambda_m`` values numerically stable.  ``None``
        (default) is the literal Eq. (4).
    """

    alpha: float = 0.5
    lambda_t: float = 1e-8
    lambda_m: float = 1e-6
    perturbation_lr: float = 1e-2
    perturbation_steps: int = 1
    clip_range: Optional[Tuple[float, float]] = (0.0, 1.0)
    seed_scale: float = 1.0
    original_loss_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.lambda_t < 0 or self.lambda_m < 0:
            raise ValueError("lambda weights must be non-negative")
        if self.perturbation_lr <= 0:
            raise ValueError("perturbation_lr must be positive")
        if self.perturbation_steps < 0:
            raise ValueError("perturbation_steps must be non-negative")
