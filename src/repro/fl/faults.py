"""Deterministic client-fault injection for the FedAvg executors.

Cross-device federations are defined by stragglers, dropouts, and worker
crashes, but those failure paths are exactly the ones a simulation never
exercises by accident.  :class:`FaultInjector` makes them testable on
demand: given a :class:`~repro.core.config.FaultConfig` it decides, for
every ``(round, client, attempt)`` triple, whether that execution attempt
crashes, fails transiently, stalls, or kills its worker process.

Decisions are derived *statelessly* from ``(seed, round, client, attempt)``
via :func:`repro.utils.rng.derive_rng`, so the fault schedule is identical
regardless of execution order, backend, or how often it is queried — the
properties that let a faulty parallel round be compared bit-for-bit against
a faulty sequential one, and let a resumed run replay the same faults.

The injector only decides; nothing here sleeps or raises.  Every engine
feeds the decisions to one pure attempt policy
(:func:`repro.fl.executor.attempt_step`) before any client state is
touched, so a failed attempt leaves nothing behind and a retry is
bit-identical to a first try.  Straggler delays, timeouts and backoffs are
virtual seconds: the async engine schedules arrivals on them and the
synchronous engines only account for them.  The one fault enacted for real
is ``worker_death`` on the process engine, whose task kills its worker so
the pool respawn path runs; in-process engines treat it as a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

# RetryBackoff is declared with the other execution configs and re-exported here.
from repro.core.config import FaultConfig, RetryBackoff
from repro.utils.rng import derive_rng

#: Every fault kind an injector can decide on ("none" means healthy).
FAULT_KINDS = ("none", "crash", "transient", "straggler", "worker_death")

#: Wire-level corruption kinds applied to encoded update payloads
#: ("none" means the transmission arrives intact).
WIRE_FAULT_KINDS = ("none", "bit_flip", "truncate", "garble_header")


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one ``(round, client, attempt)`` execution."""

    kind: str = "none"
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")

    @property
    def is_fault(self) -> bool:
        return self.kind != "none"


#: Shared healthy decision (frozen, so safe to share).
NO_FAULT = FaultDecision()


@dataclass
class ClientFailure:
    """One client's terminal failure within a round (post-retries)."""

    client_id: int
    kind: str  # "crash" | "transient" | "straggler" | "worker_death" | "error"
    attempts: int
    message: str


PlanKey = Tuple[int, int, int]  # (round_index, client_id, attempt)
PlanValue = Union[str, FaultDecision]


def corrupt_payload(payload: bytes, kind: str, rng) -> bytes:
    """Apply one wire-corruption ``kind`` to an encoded update payload.

    Pure in ``(payload, kind, rng state)``: the same rng (normally a
    ``derive_rng``-seeded generator) mangles the same bytes the same way,
    which is what makes chaos runs replay bit-identically.

    * ``bit_flip`` flips a single random bit somewhere in the payload;
    * ``truncate`` cuts the payload at a random interior offset;
    * ``garble_header`` overwrites a byte in the first 12 bytes — the RFW1
      magic/version/codec header (or the npz ZIP magic for dense payloads).
    """
    if kind == "none":
        return payload
    if kind not in WIRE_FAULT_KINDS:
        raise ValueError(f"kind must be one of {WIRE_FAULT_KINDS}")
    if not payload:
        return payload
    data = bytearray(payload)
    if kind == "bit_flip":
        index = int(rng.integers(0, len(data)))
        data[index] ^= 1 << int(rng.integers(0, 8))
    elif kind == "truncate":
        # Keep at least one byte and drop at least one so the cut is real.
        if len(data) == 1:
            return b""
        cut = int(rng.integers(1, len(data)))
        del data[cut:]
    else:  # garble_header
        span = min(12, len(data))
        index = int(rng.integers(0, span))
        # XOR with a random non-zero byte so the header always changes.
        data[index] ^= int(rng.integers(1, 256))
    return bytes(data)


class FaultInjector:
    """Seeded, stateless fault oracle for the round executors.

    Parameters
    ----------
    config:
        Fault rates and the root seed of the fault stream.
    plan:
        Optional explicit overrides: ``{(round, client, attempt): decision}``
        where the decision is a :class:`FaultDecision` or a bare kind string
        (``"crash"``, ``"transient"``, ...; stragglers default to the
        config's delay).  Triples absent from the plan fall back to the
        seeded sampling — pass ``FaultConfig()`` (all rates zero) for a
        fully scripted schedule.
    wire_plan:
        Optional explicit wire-corruption overrides keyed like ``plan`` but
        on *transmission* attempts: ``{(round, client, attempt): kind}``
        with a kind from :data:`WIRE_FAULT_KINDS`.  Triples absent from the
        plan fall back to the seeded ``wire_corrupt_rate`` sampling.
    """

    def __init__(
        self,
        config: Optional[FaultConfig] = None,
        plan: Optional[Mapping[PlanKey, PlanValue]] = None,
        wire_plan: Optional[Mapping[PlanKey, str]] = None,
    ) -> None:
        self.config = config or FaultConfig()
        self.plan = dict(plan) if plan else {}
        self.wire_plan = dict(wire_plan) if wire_plan else {}

    def decide(self, round_index: int, client_id: int, attempt: int) -> FaultDecision:
        """The (deterministic) fate of this execution attempt."""
        planned = self.plan.get((round_index, client_id, attempt))
        if planned is not None:
            return self._coerce(planned)
        config = self.config
        if not config.enabled:
            return NO_FAULT
        draw = float(
            derive_rng(config.seed, "fault", round_index, client_id, attempt).random()
        )
        edge = config.crash_rate
        if draw < edge:
            return FaultDecision(kind="crash")
        edge += config.transient_rate
        if draw < edge:
            return FaultDecision(kind="transient")
        edge += config.straggler_rate
        if draw < edge:
            return FaultDecision(
                kind="straggler", delay_seconds=config.straggler_delay_seconds
            )
        edge += config.worker_death_rate
        if draw < edge:
            return FaultDecision(kind="worker_death")
        return NO_FAULT

    def delay_for(self, round_index: int, client_id: int, attempt: int) -> float:
        """Total injected latency (seconds) for this execution attempt.

        The straggler delay of :meth:`decide` (zero for healthy attempts)
        plus the attempt's :meth:`jitter`.  Like every fault draw it is
        stateless in ``(seed, round, client, attempt)``, so arrival
        schedules built from it replay identically across backends and
        across resume.  These are virtual seconds: nothing sleeps them.
        """
        decision = self.decide(round_index, client_id, attempt)
        base = decision.delay_seconds if decision.kind == "straggler" else 0.0
        return base + self.jitter(round_index, client_id, attempt)

    def jitter(self, round_index: int, client_id: int, attempt: int) -> float:
        """Heavy-tailed latency jitter of one attempt (0 when disabled).

        ``jitter_scale * exp(jitter_sigma * N(0, 1))``, drawn from
        ``derive_rng(seed, "delay", round, client, attempt)``.
        """
        config = self.config
        if config.jitter_scale <= 0.0:
            return 0.0
        rng = derive_rng(config.seed, "delay", round_index, client_id, attempt)
        return config.jitter_scale * math.exp(
            config.jitter_sigma * float(rng.standard_normal())
        )

    @property
    def wire_enabled(self) -> bool:
        """Whether any wire corruption can occur (rate or scripted plan)."""
        return self.config.wire_corrupt_rate > 0.0 or bool(self.wire_plan)

    @property
    def checkpoint_enabled(self) -> bool:
        """Whether checkpoint corruption can occur."""
        return self.config.checkpoint_corrupt_rate > 0.0

    def wire_fault(self, round_index: int, client_id: int, attempt: int) -> str:
        """Corruption kind for one payload transmission ("none" = intact).

        ``attempt`` counts *transmissions* of this client's update within
        the round — its own counter, independent of the training-fault
        attempt counter, so retransmission schedules are identical on every
        backend regardless of how training retries interleave.
        """
        planned = self.wire_plan.get((round_index, client_id, attempt))
        if planned is not None:
            if planned not in WIRE_FAULT_KINDS:
                raise ValueError(f"planned wire fault must be one of {WIRE_FAULT_KINDS}")
            return planned
        rate = self.config.wire_corrupt_rate
        if rate <= 0.0:
            return "none"
        rng = derive_rng(self.config.seed, "wire", round_index, client_id, attempt)
        if float(rng.random()) >= rate:
            return "none"
        # Same stream picks the kind, so (fires?, kind) replays together.
        kinds = WIRE_FAULT_KINDS[1:]
        return kinds[int(rng.integers(0, len(kinds)))]

    def corrupt_wire(
        self, payload: bytes, round_index: int, client_id: int, attempt: int
    ) -> Tuple[bytes, str]:
        """Possibly-corrupted copy of one transmission, plus the kind applied.

        Byte positions are drawn from a dedicated ``"wire-bytes"`` stream so
        adding kinds never perturbs the fires-or-not schedule above.
        """
        kind = self.wire_fault(round_index, client_id, attempt)
        if kind == "none":
            return payload, kind
        rng = derive_rng(
            self.config.seed, "wire-bytes", round_index, client_id, attempt
        )
        return corrupt_payload(payload, kind, rng), kind

    def checkpoint_fault(self, round_index: int) -> bool:
        """Whether the checkpoint written after ``round_index`` rots on disk."""
        rate = self.config.checkpoint_corrupt_rate
        if rate <= 0.0:
            return False
        rng = derive_rng(self.config.seed, "ckpt", round_index)
        return float(rng.random()) < rate

    def corrupt_checkpoint(self, path: str, round_index: int) -> bool:
        """Corrupt the checkpoint file at ``path`` if this round's draw fires.

        Returns whether corruption was applied.  The mangling reuses
        :func:`corrupt_payload` over the file bytes (seeded from the round),
        simulating storage rot *after* a successful atomic write — exactly
        the failure the digest-verified last-good recovery chain exists for.
        """
        if not self.checkpoint_fault(round_index):
            return False
        rng = derive_rng(self.config.seed, "ckpt-bytes", round_index)
        with open(path, "rb") as handle:
            data = handle.read()
        kinds = ("bit_flip", "truncate", "garble_header")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        with open(path, "wb") as handle:
            handle.write(corrupt_payload(data, kind, rng))
        return True

    def _coerce(self, planned: PlanValue) -> FaultDecision:
        if isinstance(planned, FaultDecision):
            return planned
        if planned == "straggler":
            return FaultDecision(
                kind="straggler",
                delay_seconds=self.config.straggler_delay_seconds,
            )
        return FaultDecision(kind=planned)

