"""The FL parameter server.

Holds the canonical global model, aggregates client updates (FedAvg by
default, or one of the robust rules in :mod:`repro.fl.aggregation`), and
exposes a ``broadcast_hook`` so the malicious-server attacks of Nasr et al.
(see :mod:`repro.fl.malicious`) can tamper with what a victim client receives
without changing the honest code path.

Against *malicious clients* the server has two optional defenses that
compose:

* **update screening** (:mod:`repro.fl.robust`) — every incoming state dict
  is validated against the round's broadcast state before aggregation;
  quarantined clients count against the ``min_participation`` quorum and
  the report lands in :attr:`FLServer.last_screening` for telemetry;
* **robust aggregation** — the ``aggregator`` knob swaps FedAvg for
  coordinate-wise median, trimmed mean or Krum (``AGGREGATORS``), bounding
  a Byzantine minority's influence even when it slips past screening.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import ScreeningConfig
from repro.fl.aggregation import Aggregator, make_aggregator
from repro.fl.client import ClientUpdate, ModelFactory
from repro.fl.robust import ScreeningReport, screen_updates
from repro.nn.layers import Module
from repro.nn.serialization import clone_state_dict

StateDict = Dict[str, np.ndarray]
BroadcastHook = Callable[[int, int, StateDict], StateDict]

_log = logging.getLogger(__name__)


def _flatten_state(state: StateDict) -> np.ndarray:
    return np.concatenate(
        [np.asarray(value, dtype=np.float64).ravel() for value in state.values()]
    )


class FLServer:
    """Parameter server with pluggable (optionally Byzantine-robust)
    aggregation and optional update screening.

    ``aggregator`` is a name from :data:`repro.core.config.AGGREGATORS`
    (options via ``aggregator_options``, see
    :func:`repro.fl.aggregation.make_aggregator`).
    ``screening=None`` (default) trusts every update, preserving the paper's
    behaviour.
    """

    def __init__(
        self,
        model_factory: ModelFactory,
        aggregator: str = "fedavg",
        aggregator_options: Optional[Dict[str, object]] = None,
        screening: Optional[ScreeningConfig] = None,
        gate_aggregate: bool = False,
        gate_norm_multiplier: float = 10.0,
    ) -> None:
        if gate_norm_multiplier <= 0:
            raise ValueError("gate_norm_multiplier must be positive")
        self.model: Module = model_factory()
        self._round = 0
        self.broadcast_hook: Optional[BroadcastHook] = None
        self.screening = screening
        #: Screening outcome of the most recent :meth:`aggregate` call
        #: (``None`` when screening is disabled); consumed by the
        #: simulation's round telemetry.
        self.last_screening: Optional[ScreeningReport] = None
        self.gate_aggregate = gate_aggregate
        self.gate_norm_multiplier = float(gate_norm_multiplier)
        #: Clients dropped by the aggregate sanity gate in the most recent
        #: :meth:`aggregate` call (client id -> reason); consumed by the
        #: simulation's round telemetry alongside screening quarantines.
        self.last_gate: Dict[int, str] = {}
        self.set_aggregator(aggregator, **(aggregator_options or {}))

    def set_aggregator(self, aggregator: str, **options: object) -> None:
        """Swap the aggregation rule by registry name, binding its options."""
        self._aggregate: Aggregator = make_aggregator(aggregator, **options)
        self.aggregator_name = aggregator

    @property
    def round(self) -> int:
        return self._round

    def global_state(self) -> StateDict:
        return clone_state_dict(self.model.state_dict())

    def broadcast(self, client_id: int) -> StateDict:
        """State sent to one client this round (hook may tamper with it)."""
        state = self.global_state()
        if self.broadcast_hook is not None:
            state = self.broadcast_hook(self._round, client_id, state)
        return state

    def aggregate(
        self,
        updates: Sequence[ClientUpdate],
        expected_participants: Optional[int] = None,
        min_participation: float = 1.0,
        staleness: Optional[Dict[int, float]] = None,
    ) -> StateDict:
        """Aggregate the round's client updates into the global model.

        The update set may be a *subset* of the round's selected clients
        (fault-tolerant rounds drop stragglers and crashed clients); FedAvg
        re-weights the survivors by ``num_samples``, so partial aggregation
        stays a correctly-weighted average.  With screening enabled, updates
        are validated against this round's broadcast state first and
        quarantined clients are excluded.  When ``expected_participants`` is
        given, the server additionally enforces the ``min_participation``
        quorum over the *accepted* set — both benign drops and adversarial
        quarantines count against it.

        ``staleness`` maps client id -> the server-side staleness weight
        ``s(lag)`` the async engine applied to that client's effective state
        (missing clients default to ``1.0``, i.e. fresh).  The mapping is
        forwarded to staleness-aware robust aggregators so selection rules
        (median / trimmed mean / Krum) can discount lag-decayed states that
        would otherwise masquerade as geometrically central; ``fedavg``
        ignores it.

        With ``gate_aggregate`` enabled, the merged global state must be
        finite and within ``gate_norm_multiplier`` times the median accepted
        delta norm of the broadcast reference.  A failing flush is rejected:
        offending updates (non-finite, or norm beyond the same multiplier of
        the median) are recorded in :attr:`last_gate`, the round is
        re-aggregated without them, and gate + quorum are re-checked — a
        second failure raises loudly rather than silently shipping a
        poisoned global model.
        """
        if not updates:
            raise ValueError("no updates to aggregate")
        if not 0.0 < min_participation <= 1.0:
            raise ValueError("min_participation must be in (0, 1]")
        reference = self.global_state()
        self.last_gate = {}
        if self.screening is not None:
            self.last_screening = screen_updates(updates, reference, self.screening)
            accepted = self.last_screening.accepted
        else:
            self.last_screening = None
            accepted = list(updates)
        required: Optional[int] = None
        if expected_participants is not None:
            required = max(1, math.ceil(min_participation * expected_participants))
            if len(accepted) < required:
                rejected = (
                    self.last_screening.rejected if self.last_screening else {}
                )
                detail = (
                    "; screening rejected "
                    + ", ".join(
                        f"client {cid}: {reason}"
                        for cid, reason in sorted(rejected.items())
                    )
                    if rejected
                    else ""
                )
                raise ValueError(
                    f"refusing to aggregate {len(accepted)}/{expected_participants} "
                    f"updates: min_participation={min_participation:g} requires "
                    f"{required}{detail}"
                )
        if not accepted:
            raise ValueError(
                "screening rejected every update this round; nothing to aggregate"
            )
        merged = self._merge(accepted, reference, staleness)
        if self.gate_aggregate:
            merged = self._gate_flush(
                merged, accepted, reference, staleness, required
            )
        self.model.load_state_dict(merged)
        self._round += 1
        return merged

    def _merge(
        self,
        accepted: Sequence[ClientUpdate],
        reference: StateDict,
        staleness: Optional[Dict[int, float]],
    ) -> StateDict:
        kwargs: Dict[str, object] = {}
        if staleness is not None:
            kwargs["staleness"] = [
                float(staleness.get(update.client_id, 1.0)) for update in accepted
            ]
        return self._aggregate(
            [update.state for update in accepted],
            weights=[update.num_samples for update in accepted],
            reference=reference,
            **kwargs,
        )

    def _gate_flush(
        self,
        merged: StateDict,
        accepted: Sequence[ClientUpdate],
        reference: StateDict,
        staleness: Optional[Dict[int, float]],
        required: Optional[int],
    ) -> StateDict:
        """Sanity-check the merged global state; re-aggregate on failure.

        Returns the (possibly re-aggregated) merged state, or raises when
        the flush cannot be salvaged.
        """
        flat_reference = _flatten_state(reference)
        norms: Dict[int, float] = {}
        offenders: Dict[int, str] = {}
        for update in accepted:
            delta = _flatten_state(update.state) - flat_reference
            if not np.all(np.isfinite(delta)):
                offenders[update.client_id] = "gate_non_finite"
            else:
                norms[update.client_id] = float(np.linalg.norm(delta))

        def check(candidate: StateDict, median_norm: float) -> Optional[str]:
            flat = _flatten_state(candidate)
            if not np.all(np.isfinite(flat)):
                return "non-finite global state"
            if median_norm > 0.0:
                drift = float(np.linalg.norm(flat - flat_reference))
                limit = self.gate_norm_multiplier * median_norm
                if drift > limit:
                    return (
                        f"global drift {drift:.6g} exceeds "
                        f"{self.gate_norm_multiplier:g} x median delta norm "
                        f"({median_norm:.6g})"
                    )
            return None

        median_norm = float(np.median(list(norms.values()))) if norms else 0.0
        failure = check(merged, median_norm)
        if failure is None:
            return merged
        if median_norm > 0.0:
            limit = self.gate_norm_multiplier * median_norm
            for cid, norm in norms.items():
                if norm > limit:
                    offenders[cid] = "gate_norm_exploded"
        if not offenders:
            raise RuntimeError(
                f"aggregate sanity gate rejected the flush ({failure}) but no "
                "offending update could be identified; refusing to update the "
                "global model"
            )
        self.last_gate = dict(offenders)
        _log.warning(
            "aggregate gate rejected flush (%s); re-aggregating without %s",
            failure,
            sorted(offenders),
        )
        survivors: List[ClientUpdate] = [
            update for update in accepted if update.client_id not in offenders
        ]
        if not survivors:
            raise RuntimeError(
                f"aggregate sanity gate rejected every update ({failure}); "
                "nothing left to aggregate"
            )
        if required is not None and len(survivors) < required:
            detail = ", ".join(
                f"client {cid}: {reason}"
                for cid, reason in sorted(offenders.items())
            )
            raise ValueError(
                f"aggregate gate quarantined {len(offenders)} update(s) "
                f"({detail}), leaving {len(survivors)} < required {required}"
            )
        merged = self._merge(survivors, reference, staleness)
        surviving_norms = [norms[u.client_id] for u in survivors if u.client_id in norms]
        median_norm = float(np.median(surviving_norms)) if surviving_norms else 0.0
        failure = check(merged, median_norm)
        if failure is not None:
            raise RuntimeError(
                "aggregate sanity gate still failing after dropping "
                f"{sorted(offenders)}: {failure}"
            )
        return merged

    def restore(self, state: StateDict, round_index: int) -> None:
        """Adopt checkpointed global weights and round counter (resume path)."""
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        self.model.load_state_dict(state)
        self._round = int(round_index)
