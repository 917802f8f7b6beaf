"""CIP hyperparameters (paper Tables I and II) and execution settings.

Every execution knob is declared once, as a field of a frozen dataclass
made with :func:`knob`.  The field's annotation, default, help text, CLI
flag and range check all live there, and everything else derives from it:
the experiments CLI generates its flags from :func:`iter_knobs`,
:func:`repro.fl.executor.make_executor` validates its keywords through
:class:`EngineConfig`, and :meth:`EngineConfig.validate` holds the
compatibility matrix that rejects a knob set on a path that never reads it.
"""

from __future__ import annotations

import typing
from dataclasses import Field, dataclass, field, fields, is_dataclass
from functools import reduce
from typing import Any, Callable, Dict, Iterator, Mapping, NamedTuple, Optional, Tuple

from repro.nn.backend import available_dtype_policies

#: Round-execution backends understood by :class:`ExecutionConfig`.
EXECUTION_BACKENDS = ("sequential", "process", "batched", "async")

#: Staleness-weighting families of the buffered async engine (see
#: :func:`repro.fl.aggregation.staleness_weight`).
STALENESS_POLICIES = ("constant", "polynomial")

#: Aggregation rules understood by :class:`ExecutionConfig` and the server
#: (implemented in :mod:`repro.fl.aggregation`).
AGGREGATORS = ("fedavg", "median", "trimmed_mean", "krum")

#: Update-compression codecs understood by :class:`ExecutionConfig` (the wire
#: protocol and codec implementations live in :mod:`repro.fl.communication`).
WIRE_CODECS = ("none", "topk", "qsgd")

#: Malicious-client behaviours understood by :class:`ByzantineConfig`
#: (implemented in :mod:`repro.fl.malicious`; ``"none"`` means honest).
BYZANTINE_ATTACKS = (
    "none",
    "sign_flip",
    "model_replacement",
    "gaussian_noise",
    "nan_bomb",
)

#: Client-state stores of a virtual federation (see
#: :func:`repro.fl.registry.make_state_store`).
STATE_STORES = ("memory", "lru")

#: Sections of the experiments CLI's help, keyed by a knob's ``group``:
#: ``(title, description)``.  Knobs without a group are top-level flags.
KNOB_GROUPS = {
    "nn": (
        "nn precision",
        "compute precision of the repro.nn substrate (see repro.nn.backend)",
    ),
    "diagnostics": (
        "diagnostics",
        "autograd correctness guards and op-level profiling "
        "(see repro.nn.diagnostics)",
    ),
    "faults": (
        "fault tolerance",
        "graceful degradation of federated rounds (defaults preserve the "
        "paper's fail-fast all-participants protocol)",
    ),
    "chaos": (
        "chaos engineering",
        "seeded wire/checkpoint corruption and recovery knobs for chaos drills "
        "(see DESIGN.md's fault taxonomy; replays bit-identically under the "
        "same --fault-seed)",
    ),
    "async": (
        "asynchronous execution",
        "buffered streaming aggregation for --backend async "
        "(see repro.fl.async_engine)",
    ),
    "wire": (
        "communication compression",
        "update-compression codecs applied at the executors' collection point "
        "(see repro.fl.communication); defaults ship dense updates",
    ),
    "scaling": (
        "scaling",
        "client virtualization and hierarchical aggregation for large "
        "populations (see repro.fl.registry; memory scales with the cohort, "
        "not the population)",
    ),
    "robust": (
        "Byzantine robustness",
        "malicious-client update attacks and the server-side defenses "
        "(defaults preserve plain FedAvg over trusted clients)",
    ),
}

#: A range check of :func:`knob`: ``(predicate, message)``.
Check = Tuple[Callable[[Any], bool], str]
_POSITIVE: Check = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE: Check = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE: Check = (lambda v: v >= 1, "must be at least 1")
_RATE: Check = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
_FRACTION: Check = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")


def knob(
    default: Any,
    help: Optional[str] = None,
    group: Optional[str] = None,
    *,
    flag: Optional[str] = None,
    metavar: Optional[str] = None,
    choices: Any = None,
    check: Optional[Check] = None,
    option: Optional[str] = None,
) -> Any:
    """A config field declaring one knob.

    ``help`` gives the knob a CLI flag in section ``group`` of
    :data:`KNOB_GROUPS`: ``--`` plus the field name in dashes, unless
    ``flag`` renames it.  ``choices`` (a tuple, or a callable returning one)
    and ``check`` (skipped for ``None``) are enforced at construction by
    :func:`check_fields`.  ``option`` renames the knob where it is handed on
    as a keyword (see :attr:`ExecutionConfig.aggregator_options`).
    """
    metadata = dict(help=help, group=group, flag=flag, metavar=metavar)
    metadata.update(choices=choices, check=check, option=option)
    return field(default=default, metadata=metadata)


def check_fields(config: Any) -> None:
    """Enforce every field's declared ``choices`` and range ``check``."""
    for f in fields(config):
        value, check = getattr(config, f.name), f.metadata.get("check")
        choices = f.metadata.get("choices")
        choices = choices() if callable(choices) else choices
        if choices is not None and value not in choices:
            raise ValueError(f"{f.name} must be one of {choices}")
        if check is not None and value is not None and not check[0](value):
            raise ValueError(f"{f.name} {check[1]}")


class _Knobs:
    """Base of the config dataclasses: field checks run at construction."""

    def __post_init__(self) -> None:
        check_fields(self)


def _strip_optional(hint: Any) -> Any:
    if typing.get_origin(hint) is typing.Union:
        return next(arg for arg in typing.get_args(hint) if arg is not type(None))
    return hint


class Knob(NamedTuple):
    """A knob with a CLI flag: its dotted path from the root config, its
    flag, its field, and the field's type (``Optional`` stripped)."""

    path: str
    flag: str
    field: Field
    kind: Any

    @property
    def dest(self) -> str:
        """The argparse destination of :attr:`flag`."""
        return self.flag[2:].replace("-", "_")


def iter_knobs(cls: type, prefix: str = "") -> Iterator[Knob]:
    """Every knob of ``cls`` that has a CLI flag, in declaration order.

    A sub-config field without help text of its own contributes its
    sub-config's knobs; one with help text is a switch that turns the
    sub-config on at its defaults (``--screen-updates``).
    """
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        kind = _strip_optional(hints[f.name])
        if f.metadata.get("help"):
            flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
            yield Knob(prefix + f.name, flag, f, kind)
        elif is_dataclass(kind):
            yield from iter_knobs(kind, f"{prefix}{f.name}.")


def _get(config: Any, path: str) -> Any:
    return reduce(getattr, path.split("."), config)


def _default(config: Any, path: str) -> Any:
    head, _, rest = path.partition(".")
    value = config.__dataclass_fields__[head].default
    return _get(value, rest) if rest else value


class UnreadKnobError(ValueError):
    """A knob is set away from its default on a path that never reads it.

    ``knob`` and ``reader`` are dotted field paths; the knob is read only
    while ``reader`` holds one of ``values`` (``None``: any value but its
    default).
    """

    def __init__(self, knob: str, reader: str, values: Optional[tuple]) -> None:
        wanted = "set" if values is None else " or ".join(map(repr, values))
        super().__init__(f"{knob} is only read when {reader} is {wanted}")
        self.knob, self.reader, self.values = knob, reader, values


@dataclass(frozen=True)
class RetryBackoff(_Knobs):
    """Exponential backoff schedule between retry attempts (virtual seconds).

    Failed attempt ``k`` waits ``min(base_seconds * factor**k, max_seconds)``
    virtual seconds before the next one.  Nothing sleeps; the async engine's
    arrival schedule is the only consumer of the delay.
    """

    base_seconds: float = knob(0.05, check=_NON_NEGATIVE)
    factor: float = knob(2.0, check=(lambda v: v >= 1.0, "must be >= 1"))
    max_seconds: float = knob(5.0, check=_NON_NEGATIVE)

    def delay(self, attempt: int) -> float:
        """Virtual seconds between failed attempt ``attempt`` (0-based) and the next."""
        return min(self.base_seconds * self.factor ** attempt, self.max_seconds)


@dataclass(frozen=True)
class FaultConfig(_Knobs):
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

    The experiments CLI sets the first four through ``--inject-faults``.
    """

    crash_rate: float = knob(0.0, check=_RATE)
    transient_rate: float = knob(0.0, check=_RATE)
    straggler_rate: float = knob(0.0, check=_RATE)
    straggler_delay_seconds: float = knob(0.0, check=_NON_NEGATIVE)
    worker_death_rate: float = knob(0.0, check=_RATE)
    jitter_scale: float = knob(
        0.0, "median of the heavy-tailed lognormal arrival jitter in simulated "
        "seconds; 0 disables it", "async", metavar="SCALE", check=_NON_NEGATIVE,
    )
    jitter_sigma: float = knob(
        0.75, "log-scale spread of the arrival jitter", "async",
        metavar="SIGMA", check=_NON_NEGATIVE,
    )
    wire_corrupt_rate: float = knob(
        0.0, "per-transmission probability of corrupting an uploaded update "
        "payload (bit flip / truncation / header garbling); corrupted deliveries "
        "are retried under --max-retries, then quarantined",
        "chaos", flag="--chaos-wire", metavar="RATE", check=_RATE,
    )
    checkpoint_corrupt_rate: float = knob(
        0.0, "per-checkpoint probability of corrupting the file just written; "
        "resume falls back along the last-good chain",
        "chaos", flag="--chaos-checkpoint", metavar="RATE", check=_RATE,
    )
    seed: int = knob(
        0, "root seed of the injected fault schedule", "faults",
        flag="--fault-seed", metavar="SEED",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if sum(self._client_rates) > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")

    @property
    def _client_rates(self) -> Tuple[float, ...]:
        return (
            self.crash_rate,
            self.transient_rate,
            self.straggler_rate,
            self.worker_death_rate,
        )

    @property
    def enabled(self) -> bool:
        channels = (self.wire_corrupt_rate, self.checkpoint_corrupt_rate)
        return self.jitter_scale > 0.0 or any(
            rate > 0.0 for rate in self._client_rates + channels
        )


@dataclass(frozen=True)
class ByzantineConfig(_Knobs):
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
        Ids of the malicious clients (``--byzantine-clients`` on the CLI).
    scale:
        Delta amplification of ``model_replacement``.
    noise_std:
        Noise level of ``gaussian_noise``.
    start_round:
        Rounds before this are honest (sleeper-agent attacks).
    seed:
        Root seed of the attack's noise stream.
    """

    attack: str = knob(
        "none", "attack the malicious clients mount on their returned updates",
        "robust", flag="--byzantine-attack", choices=BYZANTINE_ATTACKS,
    )
    clients: Tuple[int, ...] = ()
    scale: float = knob(
        10.0, "boost factor of the model_replacement attack", "robust",
        flag="--byzantine-scale", metavar="SCALE", check=_POSITIVE,
    )
    noise_std: float = knob(1.0, check=_NON_NEGATIVE)
    start_round: int = knob(0, check=_NON_NEGATIVE)
    seed: int = knob(
        0, "root seed of the gaussian_noise attack stream", "robust",
        flag="--byzantine-seed", metavar="SEED",
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "clients", tuple(int(c) for c in self.clients))
        if any(c < 0 for c in self.clients):
            raise ValueError("client ids must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.attack != "none" and bool(self.clients)


@dataclass(frozen=True)
class ScreeningConfig(_Knobs):
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

    max_delta_norm: Optional[float] = knob(None, check=_POSITIVE)
    norm_multiplier: float = knob(4.0, check=_NON_NEGATIVE)
    outlier_threshold: float = knob(4.0, check=_NON_NEGATIVE)
    min_cosine: Optional[float] = knob(
        None, check=(lambda v: -1.0 <= v <= 1.0, "must be in [-1, 1]")
    )
    min_updates: int = knob(3, check=(lambda v: v >= 2, "must be at least 2"))


@dataclass(frozen=True)
class CheckpointConfig(_Knobs):
    """Periodic simulation checkpointing (see :mod:`repro.fl.checkpoint`).

    Attributes
    ----------
    directory:
        Where checkpoint files land; ``None`` disables checkpointing.
    every:
        Checkpoint cadence in completed rounds; ``0`` disables.
    keep:
        Retain only the newest ``keep`` checkpoints — the last-good chain
        that corruption recovery falls back along (``0`` keeps all).
    """

    directory: Optional[str] = knob(
        None, "checkpoint federated runs into DIR, one subdirectory per "
        "federation (periodic, digest-protected; resume skips corrupted files)",
        "chaos", flag="--checkpoint-dir", metavar="DIR",
    )
    every: int = knob(
        1, "checkpoint cadence in completed rounds", "chaos",
        flag="--checkpoint-every", metavar="ROUNDS", check=_NON_NEGATIVE,
    )
    keep: int = knob(
        3, "retain the newest K checkpoints as the last-good fallback chain; "
        "0 keeps all", "chaos", flag="--checkpoint-keep", metavar="K",
        check=_NON_NEGATIVE,
    )

    @property
    def enabled(self) -> bool:
        return self.directory is not None and self.every > 0


@dataclass(frozen=True)
class EngineConfig(_Knobs):
    """The knobs a round executor reads (see :mod:`repro.fl.executor`).

    Its fields are exactly the knob keywords of :func:`repro.fl.executor.
    make_executor` (which also takes pre-built injectors), so an engine
    rejects a keyword it never reads (``aggregator=``, say) as an unexpected
    argument.  Knobs without help text have no CLI flag:

    * ``round_timeout`` — the process engine's wall-clock budget for one
      round; expiry raises instead of hanging;
    * ``max_pool_respawns`` — how many times per round the process engine
      respawns a worker pool that died before giving up;
    * ``backoff`` — the virtual-time retry schedule (:class:`RetryBackoff`);
    * ``codec_seed`` — root seed of the ``qsgd`` codec's stochastic rounding.

    The sequential, process and batched engines are bitwise identical on
    seeded runs.
    """

    backend: str = knob(
        "sequential", "round-execution engine for federated experiments "
        "(process = parallel clients via a persistent worker pool; batched = "
        "same-architecture clients stacked into grouped kernels, "
        "bitwise-identical to sequential; async = buffered streaming "
        "aggregation with staleness weighting over a simulated arrival "
        "schedule)", choices=EXECUTION_BACKENDS,
    )
    num_workers: Optional[int] = knob(
        None, "worker processes for --backend process (default: all cores)",
        metavar="N", check=_AT_LEAST_ONE,
    )
    round_timeout: Optional[float] = knob(None, check=_POSITIVE)
    max_pool_respawns: int = knob(2, check=_NON_NEGATIVE)
    max_retries: int = knob(
        0, "retry a transiently-failing client up to N times per round with "
        "exponential backoff; 0 fails fast", "faults", metavar="N",
        check=_NON_NEGATIVE,
    )
    backoff: RetryBackoff = RetryBackoff()
    client_timeout: Optional[float] = knob(
        None, "per-client straggler budget: an injected straggler delay past "
        "it times out and retries, and the process backend abandons a "
        "genuinely stalled worker (default: none)", "faults",
        metavar="SECONDS", check=_POSITIVE,
    )
    min_participation: float = knob(
        1.0, "fraction of the round's clients that must survive for the round "
        "to aggregate over the survivors; 1.0 aborts on any drop", "faults",
        metavar="FRACTION", check=_FRACTION,
    )
    fault_config: FaultConfig = FaultConfig()
    byzantine_config: ByzantineConfig = ByzantineConfig()
    screening: Optional[ScreeningConfig] = knob(
        None, "quarantine anomalous client updates before aggregation "
        "(NaN/Inf, norm bounds, distance/direction outliers); rejected "
        "clients count against --min-participation",
        "robust", flag="--screen-updates",
    )
    buffer_size: int = knob(
        4, "admitted updates per aggregation step", "async", metavar="K",
        check=_AT_LEAST_ONE,
    )
    concurrency: Optional[int] = knob(
        None, "max clients training at once in the simulated schedule "
        "(default: all idle participants)", "async", metavar="N",
        check=_AT_LEAST_ONE,
    )
    staleness_policy: str = knob(
        "polynomial", "decay of an update's weight with its version lag",
        "async", choices=STALENESS_POLICIES,
    )
    staleness_alpha: float = knob(
        0.5, "decay exponent of the polynomial staleness policy", "async",
        metavar="ALPHA", check=_NON_NEGATIVE,
    )
    staleness_budget: Optional[int] = knob(
        None, "discard updates older than this many versions instead of "
        "down-weighting them (default: keep everything)", "async",
        metavar="LAG", check=_NON_NEGATIVE,
    )
    screen_window: int = knob(
        16, "sliding reference window of the streaming screener "
        "(with --screen-updates)", "async", metavar="N", check=_AT_LEAST_ONE,
    )
    client_latency: float = knob(
        1.0, "baseline simulated training latency per client", "async",
        metavar="SECONDS", check=_NON_NEGATIVE,
    )
    codec: str = knob(
        "none", "wire codec for client uploads: none (dense), topk "
        "(sparsification with error feedback), qsgd (stochastic quantization)",
        "wire", choices=WIRE_CODECS,
    )
    topk_fraction: float = knob(
        0.05, "fraction of coordinates the topk codec keeps per leaf", "wire",
        metavar="FRACTION", check=_FRACTION,
    )
    qsgd_levels: int = knob(
        16, "quantization levels per sign for the qsgd codec, 1-127", "wire",
        metavar="LEVELS", check=(lambda v: 1 <= v <= 127, "must be in [1, 127]"),
    )
    codec_seed: int = 0

    #: The compatibility matrix, one rule per row: the ``knobs`` are read
    #: only while field ``reader`` holds one of ``values`` (``None``: any
    #: value but its default).  See :meth:`validate`.
    READ_BY = (
        (("num_workers", "round_timeout", "max_pool_respawns"), "backend", ("process",)),
        (
            ("buffer_size", "concurrency", "staleness_policy", "staleness_alpha",
             "staleness_budget", "screen_window", "client_latency"),
            "backend", ("async",),
        ),
        (("topk_fraction",), "codec", ("topk",)),
        (("qsgd_levels", "codec_seed"), "codec", ("qsgd",)),
        (("byzantine_config.attack",), "byzantine_config.clients", None),
        (("byzantine_config.clients",), "byzantine_config.attack", None),
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        self.validate()

    def validate(self) -> None:
        """Reject a knob set away from its default on a path that never
        reads it (:attr:`READ_BY`), raising :class:`UnreadKnobError`."""
        for knobs, reader, values in self.READ_BY:
            current = _get(self, reader)
            if values is None:
                read = current != _default(self, reader)
            else:
                read = current in values
            if read:
                continue
            for name in knobs:
                if _get(self, name) != _default(self, name):
                    raise UnreadKnobError(name, reader, values)


@dataclass(frozen=True)
class ExecutionConfig(EngineConfig):
    """How the experiments run federated rounds: the one execution config.

    Extends :class:`EngineConfig` with the knobs the server, the nn
    substrate and the simulation read, and holds every sub-config: faults
    (:class:`FaultConfig`), attacks (:class:`ByzantineConfig`), screening
    (:class:`ScreeningConfig`), retry backoff (:class:`RetryBackoff`) and
    checkpoints (:class:`CheckpointConfig`).  Each knob's meaning is its
    field's help text; :meth:`from_flags` builds one from the parsed
    command line.  Where screening happens is decided in one place: the
    async engine screens each arrival at admission, and
    :func:`repro.experiments.common.configure_server_robustness` hands
    screening to the server for the synchronous engines.
    """

    compute_dtype: str = knob(
        "float64", "nn compute precision (float32 halves memory traffic; "
        "losses still accumulate in float64, but results are no longer bitwise "
        "comparable to the float64 baseline)", "nn",
        choices=available_dtype_policies,
    )
    nn_debug: bool = knob(
        False, "enable autograd invariant guards (grad shape/dtype checks, "
        "NaN/Inf anomaly detection); equivalent to REPRO_NN_DEBUG=1",
        "diagnostics",
    )
    profile_ops: bool = knob(
        False, "collect per-op call/time/bytes counters and print a table "
        "after the selected experiments", "diagnostics",
    )
    aggregator: str = knob(
        "fedavg", "server aggregation rule; the robust rules bound a "
        "Byzantine minority's influence", "robust", choices=AGGREGATORS,
    )
    trim_fraction: float = knob(
        0.1, "per-end trim fraction for --aggregator trimmed_mean", "robust",
        metavar="FRACTION", check=(lambda v: 0.0 <= v < 0.5, "must be in [0, 0.5)"),
    )
    krum_byzantine: Optional[int] = knob(
        None, "assumed Byzantine count f for --aggregator krum "
        "(default: the maximum tolerable (n-3)//2)", "robust", metavar="F",
        check=_NON_NEGATIVE, option="num_byzantine",
    )
    gate_aggregate: bool = knob(
        False, "enable the server-side aggregate sanity gate: reject "
        "non-finite or norm-exploded flushes and re-aggregate without the "
        "offending updates", "chaos",
    )
    gate_norm_multiplier: float = knob(
        10.0, "norm-explosion threshold of the aggregate gate, as a multiple "
        "of the round's median accepted delta norm", "chaos", metavar="X",
        check=_POSITIVE,
    )
    checkpoint: CheckpointConfig = CheckpointConfig()
    population: Optional[int] = knob(
        None, "virtualize the federation to N lazily-materialized clients "
        "(default: live client objects, the historical path)", "scaling",
        metavar="N", check=_AT_LEAST_ONE,
    )
    cohort_fraction: Optional[float] = knob(
        None, "fraction of the population sampled per round under "
        "--population (default: every client)", "scaling", metavar="FRACTION",
        check=_FRACTION,
    )
    state_store: str = knob(
        "memory", "where virtualized per-client state lives between rounds: "
        "memory (all resident) or lru (hot cache + disk spill)", "scaling",
        choices=STATE_STORES,
    )
    state_cache_size: int = knob(
        64, "hot-tier client capacity of --state-store lru", "scaling",
        metavar="N", check=_AT_LEAST_ONE,
    )

    READ_BY = EngineConfig.READ_BY + (
        (("trim_fraction",), "aggregator", ("trimmed_mean",)),
        (("krum_byzantine",), "aggregator", ("krum",)),
        (("gate_norm_multiplier",), "gate_aggregate", (True,)),
        (("checkpoint.every", "checkpoint.keep"), "checkpoint.directory", None),
    )

    @classmethod
    def from_flags(
        cls, flags: Mapping[str, Any], **extra: Mapping[str, Any]
    ) -> "ExecutionConfig":
        """Build a config from parsed CLI flags (``dest -> value``, e.g.
        ``vars(args)``).  ``extra`` adds keywords to a sub-config field, e.g.
        ``fault_config={"crash_rate": 0.1}`` from a composite flag."""
        kwargs: Dict[str, Dict[str, Any]] = {"": {}}
        for knob_ in iter_knobs(cls):
            owner, _, name = knob_.path.rpartition(".")
            value = flags[knob_.dest]
            if is_dataclass(knob_.kind):
                value = knob_.kind() if value else None
            kwargs.setdefault(owner, {})[name] = value
        for owner, values in extra.items():
            kwargs.setdefault(owner, {}).update(values)
        top, hints = kwargs.pop(""), typing.get_type_hints(cls)
        for owner, values in kwargs.items():
            top[owner] = _strip_optional(hints[owner])(**values)
        return cls(**top)

    @property
    def aggregator_options(self) -> Dict[str, Any]:
        """``FLServer.set_aggregator`` keywords for the selected rule: the
        knobs :attr:`READ_BY` has it read."""
        declared = self.__dataclass_fields__
        return {
            declared[name].metadata["option"] or name: getattr(self, name)
            for names, reader, values in self.READ_BY
            if reader == "aggregator" and self.aggregator in values
            for name in names
        }


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
