"""Model aggregation rules.

The paper uses the averaging aggregation of McMahan et al. (FedAvg): the
server replaces the global weights by the sample-size-weighted mean of the
clients' local weights.  Aggregation operates on state dicts so it is
architecture-agnostic; BatchNorm running statistics are averaged the same
way, which is the standard FedAvg-with-BN behaviour.

FedAvg trusts every update, so a single Byzantine client controls the
average.  The robust alternatives bound that influence:

* :func:`coordinate_median` — coordinate-wise median; a minority of
  arbitrarily-corrupted updates cannot move any coordinate past the honest
  majority's values.
* :func:`trimmed_mean` — coordinate-wise mean after trimming the
  ``trim_fraction`` most extreme values from each end.
* :func:`norm_clipped_fedavg` — FedAvg over per-update deltas clipped to a
  bounded L2 norm, capping how far any one client can drag the model.
* :func:`krum` / :func:`multi_krum` — select the update(s) closest to their
  ``n - f - 2`` nearest neighbours (Blanchard et al.), discarding geometric
  outliers entirely.

All aggregators share a signature ``(states, weights=None, *,
reference=None, ...)`` so the server can swap them via
:func:`make_aggregator`.  The robust rules are *unweighted* by design —
honoring attacker-controlled ``num_samples`` weights would hand back the
influence they exist to bound — and every aggregator preserves the incoming
floating dtype (a ``--compute-dtype float32`` run must not round-trip its
parameters through an unintended ``float64`` upcast).

The robust rules additionally accept a keyword-only ``staleness`` sequence:
the async engine's per-update decay weights ``s(lag)``.  Unlike
``num_samples`` these are **server-derived** — the server computes the lag
from its own version counter, an attacker cannot inflate them — so honoring
them is safe, and it closes a real gap: a stale effective state sits close
to the current global (its delta was decayed toward zero), which the
selection geometry of median/Krum would otherwise read as *central*, i.e.
maximally trustworthy.  Staleness-aware selection discounts such updates
instead: the weighted median/trimmed-mean treat ``s`` as voting mass, and
Krum penalizes scores by ``1 / s²`` (distances scale quadratically).  When
``staleness`` is ``None`` or every weight is ``1.0`` — every synchronous
round, and async at lag 0 — the rules dispatch to the plain code path and
degenerate bitwise to the sync behavior.

Computation-cost note: ``median``/``trimmed_mean`` sort ``O(n·d log n)``,
``krum`` computes all pairwise distances ``O(n²·d)`` — see
``benchmarks/bench_robust_agg.py`` for measured costs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import AGGREGATORS, STALENESS_POLICIES

StateDict = Dict[str, np.ndarray]
#: Uniform aggregator signature used by the server (see make_aggregator).
Aggregator = Callable[..., StateDict]

__all__ = [
    "AGGREGATORS",
    "STALENESS_POLICIES",
    "staleness_weight",
    "fedavg",
    "coordinate_median",
    "trimmed_mean",
    "norm_clipped_fedavg",
    "krum",
    "multi_krum",
    "make_aggregator",
    "shard_partition",
    "ShardAggregator",
    "state_delta",
    "apply_delta",
    "flatten_state",
]


def _check_compatible(states: Sequence[StateDict]) -> None:
    """All state dicts must agree on keys *and* per-key shapes."""
    if not states:
        raise ValueError("aggregation needs at least one state dict")
    first = states[0]
    keys = set(first)
    for state in states[1:]:
        if set(state) != keys:
            raise ValueError("state dicts have mismatched keys")
        for key in first:
            if state[key].shape != first[key].shape:
                raise ValueError(
                    f"state dicts have mismatched shapes for key {key!r}: "
                    f"{first[key].shape} vs {state[key].shape}"
                )


def _normalized_weights(
    weights: Optional[Sequence[float]], count: int
) -> np.ndarray:
    if weights is None:
        return np.full(count, 1.0 / count)
    weights_arr = np.asarray(weights, dtype=np.float64)
    if len(weights_arr) != count:
        raise ValueError("one weight per state dict required")
    if (weights_arr < 0).any() or weights_arr.sum() <= 0:
        raise ValueError("weights must be non-negative and sum to > 0")
    return weights_arr / weights_arr.sum()


def _staleness_array(
    staleness: Optional[Sequence[float]], count: int
) -> Optional[np.ndarray]:
    """Validate staleness weights; ``None`` means "all fresh, plain rule".

    Returns ``None`` both for absent weights and for the all-ones case so
    callers dispatch to the unweighted code path — the bitwise lag-0
    degeneration guarantee.
    """
    if staleness is None:
        return None
    arr = np.asarray(staleness, dtype=np.float64)
    if len(arr) != count:
        raise ValueError("one staleness weight per state dict required")
    if (arr <= 0).any() or (arr > 1.0 + 1e-12).any():
        raise ValueError("staleness weights must be in (0, 1]")
    if np.all(arr == 1.0):
        return None
    return arr


def _sorted_with_weights(
    stacked: np.ndarray, weights: np.ndarray
) -> tuple:
    """Sort a ``(n, ...)`` stack along axis 0, carrying per-row weights."""
    order = np.argsort(stacked, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(stacked, order, axis=0)
    broadcast = np.broadcast_to(
        weights.reshape((-1,) + (1,) * (stacked.ndim - 1)), stacked.shape
    )
    sorted_weights = np.take_along_axis(np.ascontiguousarray(broadcast), order, axis=0)
    return sorted_vals, sorted_weights


def _weighted_median(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinate-wise weighted median of a ``(n, ...)`` stack.

    Per coordinate: sort the values, accumulate the (staleness) weights,
    and pick the first value where the cumulative mass reaches half the
    total; an exact half-mass tie averages with the next value, matching
    ``np.median``'s even-``n`` convention under uniform weights.
    """
    sorted_vals, sorted_weights = _sorted_with_weights(stacked, weights)
    cum = np.cumsum(sorted_weights, axis=0)
    half = 0.5 * cum[-1]
    index = (cum >= half).argmax(axis=0)
    lower = np.take_along_axis(sorted_vals, index[None], axis=0)[0]
    mass_at = np.take_along_axis(cum, index[None], axis=0)[0]
    tie = np.isclose(mass_at, half, rtol=1e-12, atol=0.0)
    upper_index = np.minimum(index + 1, stacked.shape[0] - 1)
    upper = np.take_along_axis(sorted_vals, upper_index[None], axis=0)[0]
    return np.where(tie, 0.5 * (lower + upper), lower)


def _cast_back(value: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Return ``value`` in ``like``'s dtype when it is floating.

    Aggregation math runs in float64 for accuracy; the result must come back
    in the parameters' own dtype so e.g. a float32 federation stays float32.
    Non-floating arrays keep the float64 mean (an integer mean is generally
    not representable in the input dtype).
    """
    if np.issubdtype(like.dtype, np.floating):
        return value.astype(like.dtype)
    return value


def fedavg(states: Sequence[StateDict], weights: Optional[Sequence[float]] = None) -> StateDict:
    """Weighted average of state dicts.

    ``weights`` default to uniform; they are normalized internally, so
    callers may pass raw sample counts.  The merged arrays keep the incoming
    floating dtype.
    """
    _check_compatible(states)
    weights_arr = _normalized_weights(weights, len(states))
    merged: StateDict = {}
    for key in states[0]:
        acc = np.zeros(states[0][key].shape, dtype=np.float64)
        for w, state in zip(weights_arr, states):
            acc += w * state[key].astype(np.float64, copy=False)
        merged[key] = _cast_back(acc, states[0][key])
    return merged


def coordinate_median(
    states: Sequence[StateDict],
    weights: Optional[Sequence[float]] = None,
    *,
    reference: Optional[StateDict] = None,
    staleness: Optional[Sequence[float]] = None,
) -> StateDict:
    """Coordinate-wise median of the client states.

    Robust to up to ``(n - 1) // 2`` arbitrarily-corrupted updates per
    coordinate.  ``weights`` and ``reference`` are ignored (accepted for
    signature uniformity): a robust rule must not honor attacker-controlled
    sample counts.  For two states the median equals the unweighted mean.

    ``staleness`` (server-derived ``s(lag)`` weights, see the module
    docstring) switches to the *weighted* median: stale updates carry less
    voting mass per coordinate.  ``None`` or all-ones is the plain
    ``np.median``, bitwise.
    """
    _check_compatible(states)
    staleness_arr = _staleness_array(staleness, len(states))
    merged: StateDict = {}
    for key in states[0]:
        stacked = np.stack(
            [state[key].astype(np.float64, copy=False) for state in states]
        )
        if staleness_arr is None:
            merged[key] = _cast_back(np.median(stacked, axis=0), states[0][key])
        else:
            merged[key] = _cast_back(
                _weighted_median(stacked, staleness_arr), states[0][key]
            )
    return merged


def trimmed_mean(
    states: Sequence[StateDict],
    weights: Optional[Sequence[float]] = None,
    *,
    trim_fraction: float = 0.1,
    reference: Optional[StateDict] = None,
    staleness: Optional[Sequence[float]] = None,
) -> StateDict:
    """Coordinate-wise mean after trimming the extremes.

    Per coordinate, the ``floor(trim_fraction * n)`` smallest and largest
    values are dropped and the rest averaged (unweighted; see
    :func:`coordinate_median` for why).  ``trim_fraction=0`` degenerates to
    the plain mean.

    With ``staleness`` the surviving values are averaged weighted by their
    update's ``s(lag)`` — trimming is unchanged (positional, per
    coordinate), but stale survivors pull the mean less.  ``None`` or
    all-ones is the plain trimmed mean, bitwise.
    """
    _check_compatible(states)
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError("trim_fraction must be in [0, 0.5)")
    n = len(states)
    k = int(trim_fraction * n)
    if n - 2 * k < 1:
        raise ValueError(
            f"trim_fraction={trim_fraction:g} trims all {n} updates; "
            "need at least one survivor per coordinate"
        )
    staleness_arr = _staleness_array(staleness, n)
    merged: StateDict = {}
    for key in states[0]:
        stacked = np.stack(
            [state[key].astype(np.float64, copy=False) for state in states]
        )
        if staleness_arr is None:
            trimmed = np.sort(stacked, axis=0)[k : n - k] if k else stacked
            merged[key] = _cast_back(trimmed.mean(axis=0), states[0][key])
            continue
        sorted_vals, sorted_weights = _sorted_with_weights(stacked, staleness_arr)
        surviving_vals = sorted_vals[k : n - k] if k else sorted_vals
        surviving_weights = sorted_weights[k : n - k] if k else sorted_weights
        weighted = (surviving_vals * surviving_weights).sum(axis=0)
        merged[key] = _cast_back(
            weighted / surviving_weights.sum(axis=0), states[0][key]
        )
    return merged


def norm_clipped_fedavg(
    states: Sequence[StateDict],
    weights: Optional[Sequence[float]] = None,
    *,
    reference: Optional[StateDict] = None,
    clip_norm: Optional[float] = None,
) -> StateDict:
    """FedAvg over per-update deltas clipped to a bounded L2 norm.

    Each update's delta from ``reference`` (the broadcast global state) is
    scaled down to at most ``clip_norm`` before the weighted average, so no
    single client can move the model further than the bound.  ``clip_norm=
    None`` clips at the round's *median* delta norm — scale-free, and a
    boosted replacement attack is cut to a typical honest magnitude.
    """
    _check_compatible(states)
    if reference is None:
        raise ValueError("norm_clipped_fedavg requires the reference (global) state")
    if clip_norm is not None and clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    _check_compatible([states[0], reference])
    weights_arr = _normalized_weights(weights, len(states))
    deltas = [
        {
            key: state[key].astype(np.float64, copy=False)
            - reference[key].astype(np.float64, copy=False)
            for key in state
        }
        for state in states
    ]
    norms = np.array([np.linalg.norm(flatten_state(delta)) for delta in deltas])
    bound = float(np.median(norms)) if clip_norm is None else float(clip_norm)
    factors = np.ones(len(states))
    positive = norms > 0
    factors[positive] = np.minimum(1.0, bound / norms[positive])
    merged: StateDict = {}
    for key in states[0]:
        acc = reference[key].astype(np.float64, copy=False).copy()
        for w, factor, delta in zip(weights_arr, factors, deltas):
            acc += w * factor * delta[key]
        merged[key] = _cast_back(acc, states[0][key])
    return merged


def _krum_scores(states: Sequence[StateDict], num_byzantine: Optional[int]) -> np.ndarray:
    """Krum score per state: sum of its ``n - f - 2`` smallest squared
    distances to the other states (lower is better)."""
    n = len(states)
    f = (max(0, (n - 3) // 2)) if num_byzantine is None else int(num_byzantine)
    if f < 0:
        raise ValueError("num_byzantine must be non-negative")
    if f > max(0, n - 3):
        raise ValueError(
            f"krum with {n} updates tolerates at most f={max(0, n - 3)} "
            f"Byzantine clients (needs n >= f + 3), got f={f}"
        )
    flat = np.stack([flatten_state(state).astype(np.float64) for state in states])
    # Pairwise squared distances via the Gram expansion (O(n^2 d)).
    squared_norms = np.einsum("ij,ij->i", flat, flat)
    distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * flat @ flat.T
    np.fill_diagonal(distances, np.inf)
    distances = np.maximum(distances, 0.0)
    neighbors = max(0, n - f - 2)
    if neighbors == 0:
        return np.zeros(n)
    sorted_distances = np.sort(distances, axis=1)
    return sorted_distances[:, :neighbors].sum(axis=1)


def krum(
    states: Sequence[StateDict],
    weights: Optional[Sequence[float]] = None,
    *,
    num_byzantine: Optional[int] = None,
    reference: Optional[StateDict] = None,
    staleness: Optional[Sequence[float]] = None,
) -> StateDict:
    """Krum (Blanchard et al.): adopt the single most central update.

    ``num_byzantine`` is the assumed Byzantine count ``f``; ``None`` uses
    the maximal tolerable ``f = (n - 3) // 2``.  ``weights``/``reference``
    are ignored.

    With ``staleness`` each update's score is penalized by ``1 / s²``
    (squared, because Krum scores are sums of *squared* distances), so a
    decayed-toward-global stale update cannot win on artificial centrality
    over a fresh honest one.  ``None``/all-ones selects exactly as plain
    Krum.
    """
    _check_compatible(states)
    scores = _krum_scores(states, num_byzantine)
    staleness_arr = _staleness_array(staleness, len(states))
    if staleness_arr is not None:
        scores = scores / np.square(staleness_arr)
    winner = int(np.argmin(scores))
    return {key: value.copy() for key, value in states[winner].items()}


def multi_krum(
    states: Sequence[StateDict],
    weights: Optional[Sequence[float]] = None,
    *,
    num_byzantine: Optional[int] = None,
    num_selected: Optional[int] = None,
    reference: Optional[StateDict] = None,
    staleness: Optional[Sequence[float]] = None,
) -> StateDict:
    """Multi-Krum: average the ``m`` best-scored updates.

    ``num_selected=None`` uses ``m = max(1, n - f - 2)``, the selection-set
    bound of the Krum paper.  Selected updates are averaged *unweighted*.

    With ``staleness`` the selection scores carry the same ``1 / s²``
    penalty as :func:`krum` and the selected updates are averaged weighted
    by ``s`` — a fresh selection counts more than a stale one.
    ``None``/all-ones is plain Multi-Krum, bitwise.
    """
    _check_compatible(states)
    scores = _krum_scores(states, num_byzantine)
    n = len(states)
    staleness_arr = _staleness_array(staleness, n)
    if staleness_arr is not None:
        scores = scores / np.square(staleness_arr)
    f = (max(0, (n - 3) // 2)) if num_byzantine is None else int(num_byzantine)
    m = max(1, n - f - 2) if num_selected is None else int(num_selected)
    if not 1 <= m <= n:
        raise ValueError(f"num_selected must be in [1, {n}]")
    selected = np.argsort(scores, kind="stable")[:m]
    if staleness_arr is None:
        return fedavg([states[i] for i in selected])
    return fedavg(
        [states[i] for i in selected], weights=[staleness_arr[i] for i in selected]
    )


def make_aggregator(
    name: str,
    *,
    trim_fraction: float = 0.1,
    clip_norm: Optional[float] = None,
    num_byzantine: Optional[int] = None,
) -> Aggregator:
    """Bind an aggregator name and its options into a uniform callable.

    The result accepts ``(states, weights=None, reference=None,
    staleness=None)`` — the server's calling convention — with the
    rule-specific options closed over.  The selection rules pass
    ``staleness`` through; ``fedavg`` and ``norm_clip`` ignore it, because
    the async engine already lag-discounts the *effective states* they
    average (weighting again would double-discount).  Unknown names raise
    ``ValueError`` (valid names: ``AGGREGATORS``).
    """
    if name == "fedavg":
        return lambda states, weights=None, reference=None, staleness=None: fedavg(
            states, weights
        )
    if name == "median":
        return (
            lambda states, weights=None, reference=None, staleness=None:
            coordinate_median(states, staleness=staleness)
        )
    if name == "trimmed_mean":
        return (
            lambda states, weights=None, reference=None, staleness=None:
            trimmed_mean(states, trim_fraction=trim_fraction, staleness=staleness)
        )
    if name == "norm_clip":
        return (
            lambda states, weights=None, reference=None, staleness=None:
            norm_clipped_fedavg(
                states, weights, reference=reference, clip_norm=clip_norm
            )
        )
    if name == "krum":
        return lambda states, weights=None, reference=None, staleness=None: krum(
            states, num_byzantine=num_byzantine, staleness=staleness
        )
    if name == "multi_krum":
        return lambda states, weights=None, reference=None, staleness=None: multi_krum(
            states, num_byzantine=num_byzantine, staleness=staleness
        )
    raise ValueError(f"unknown aggregator {name!r}; expected one of {AGGREGATORS}")


def shard_partition(count: int, shards: int) -> List[tuple]:
    """Contiguous, balanced ``(start, stop)`` bounds over ``count`` members.

    The first ``count % shards`` shards carry one extra member; ``shards``
    beyond ``count`` clamps to one member per shard.  Contiguity in the
    *canonical cohort order* (the participant order the server sees) is the
    property the sharded FedAvg bit-identity rests on: every member keeps
    its global fold position.
    """
    if count < 1:
        raise ValueError("shard_partition needs at least one member")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    bounds: List[tuple] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class ShardAggregator:
    """Hierarchical (edge → region → root) aggregation over cohort shards.

    Models the cross-device topology where edge aggregators each serve a
    contiguous slice of the sampled cohort and forward a single result
    upward.  The arithmetic depends on the rule:

    * ``rule="fedavg"`` — an **ordered continuation fold**: the float64
      accumulator threads through the shards in canonical cohort order, so
      each edge node continues exactly where the previous one stopped.  The
      resulting float sequence per coordinate is *identical* to flat
      :func:`fedavg`'s left fold — bit-identical by construction, not by
      hoping float addition associates (it does not).  This matches a real
      chain/ring of edge aggregators each folding its members into the
      running partial before passing it on.
    * robust rules (``median``/``trimmed_mean``/``krum``/``multi_krum``/
      ``norm_clip``) — **shard-local semantics**: each edge shard applies
      the rule to its own members, producing one representative; the root
      (optionally via a region tier of ``region_fanout`` shards each)
      applies the same rule over the representatives.  Breakdown points are
      therefore *per shard*: a shard whose own Byzantine fraction exceeds
      the rule's tolerance is lost even if the global fraction is fine, and
      conversely a poisoned minority confined to one shard is contained at
      that shard's edge.  Representative weights at upper tiers are the
      shard's total sample mass; staleness weights apply at the edge tier
      only (upper tiers see already-discounted representatives and treating
      them as stale again would double-discount).

    The instance is a drop-in :data:`Aggregator` — ``(states, weights=None,
    *, reference=None, staleness=None)`` — so ``FLServer.set_aggregator``
    accepts it like any registry rule; ``__name__`` reads
    ``"sharded_<rule>"`` for telemetry.
    """

    def __init__(
        self,
        rule: str = "fedavg",
        shards: int = 2,
        region_fanout: Optional[int] = None,
        *,
        trim_fraction: float = 0.1,
        clip_norm: Optional[float] = None,
        num_byzantine: Optional[int] = None,
    ) -> None:
        if rule not in AGGREGATORS:
            raise ValueError(f"unknown rule {rule!r}; expected one of {AGGREGATORS}")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if region_fanout is not None and region_fanout < 2:
            raise ValueError("region_fanout must be at least 2")
        self.rule = rule
        self.shards = int(shards)
        self.region_fanout = None if region_fanout is None else int(region_fanout)
        self.__name__ = f"sharded_{rule}"
        self._edge_rule = (
            None
            if rule == "fedavg"
            else make_aggregator(
                rule,
                trim_fraction=trim_fraction,
                clip_norm=clip_norm,
                num_byzantine=num_byzantine,
            )
        )

    def __call__(
        self,
        states: Sequence[StateDict],
        weights: Optional[Sequence[float]] = None,
        *,
        reference: Optional[StateDict] = None,
        staleness: Optional[Sequence[float]] = None,
    ) -> StateDict:
        _check_compatible(states)
        if self.rule == "fedavg":
            return self._fedavg_tree(states, weights)
        return self._robust_tree(states, weights, reference, staleness)

    def _fedavg_tree(
        self, states: Sequence[StateDict], weights: Optional[Sequence[float]]
    ) -> StateDict:
        # Normalization uses the *cohort-wide* weight total (each edge node
        # knows the global sum — one scalar broadcast), then the accumulator
        # threads through the shards in order.  Same multiplies, same adds,
        # same order as flat fedavg => bitwise-equal result.
        bounds = shard_partition(len(states), self.shards)
        weights_arr = _normalized_weights(weights, len(states))
        merged: StateDict = {}
        for key in states[0]:
            acc = np.zeros(states[0][key].shape, dtype=np.float64)
            for start, stop in bounds:
                for w, state in zip(weights_arr[start:stop], states[start:stop]):
                    acc += w * state[key].astype(np.float64, copy=False)
            merged[key] = _cast_back(acc, states[0][key])
        return merged

    def _reduce_tier(
        self,
        states: Sequence[StateDict],
        weights: Optional[Sequence[float]],
        reference: Optional[StateDict],
        staleness: Optional[Sequence[float]],
        shards: int,
    ) -> tuple:
        """Apply the rule shard-locally; return (representatives, masses)."""
        bounds = shard_partition(len(states), shards)
        representatives: List[StateDict] = []
        masses: List[float] = []
        for start, stop in bounds:
            members = list(states[start:stop])
            member_weights = (
                None if weights is None else list(weights[start:stop])
            )
            member_staleness = (
                None if staleness is None else list(staleness[start:stop])
            )
            representatives.append(
                self._edge_rule(
                    members,
                    member_weights,
                    reference=reference,
                    staleness=member_staleness,
                )
            )
            masses.append(
                float(sum(member_weights))
                if member_weights is not None
                else float(stop - start)
            )
        return representatives, masses

    def _robust_tree(
        self,
        states: Sequence[StateDict],
        weights: Optional[Sequence[float]],
        reference: Optional[StateDict],
        staleness: Optional[Sequence[float]],
    ) -> StateDict:
        # Edge tier: the only tier that sees raw member updates (and hence
        # the only one staleness weights apply to).
        representatives, masses = self._reduce_tier(
            states, weights, reference, staleness, self.shards
        )
        # Optional region tier between edge and root.
        if (
            self.region_fanout is not None
            and len(representatives) > self.region_fanout
        ):
            regions = math.ceil(len(representatives) / self.region_fanout)
            representatives, masses = self._reduce_tier(
                representatives, masses, reference, None, regions
            )
        if len(representatives) == 1:
            return representatives[0]
        return self._edge_rule(
            representatives, masses, reference=reference, staleness=None
        )


def state_delta(new: StateDict, old: StateDict) -> StateDict:
    """Per-parameter update ``new - old`` (what a gradient-leakage adversary sees)."""
    _check_compatible([new, old])
    return {key: new[key] - old[key] for key in new}


def apply_delta(base: StateDict, delta: StateDict, scale: float = 1.0) -> StateDict:
    """Return ``base + scale * delta``."""
    _check_compatible([base, delta])
    return {key: base[key] + scale * delta[key] for key in base}


def staleness_weight(
    lag: int,
    policy: str = "polynomial",
    alpha: float = 0.5,
    hinge: int = 4,
) -> float:
    """Down-weight for an async update whose base model is ``lag`` versions old.

    FedAsync/FedBuff-style staleness decay ``s(lag)``; every policy satisfies
    ``s(0) == 1``, ``s(lag) in (0, 1]``, and monotone non-increasing in lag
    (properties pinned by ``tests/fl/test_async_engine.py``):

    * ``constant`` — ``1`` regardless of lag (FedBuff's unweighted buffer).
    * ``polynomial`` — ``(1 + lag) ** -alpha`` (Xie et al., FedAsync).
    * ``hinge`` — ``1`` while ``lag <= hinge``, then
      ``1 / (alpha * (lag - hinge) + 1)``.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if policy not in STALENESS_POLICIES:
        raise ValueError(f"policy must be one of {STALENESS_POLICIES}")
    if policy == "constant":
        return 1.0
    if policy == "polynomial":
        return float((1.0 + lag) ** -alpha)
    if lag <= hinge:
        return 1.0
    return float(1.0 / (alpha * (lag - hinge) + 1.0))


def flatten_state(state: StateDict) -> np.ndarray:
    """Concatenate all arrays (sorted by key) into one vector.

    Used by parameter-based attacks, the Krum distance geometry, update
    screening, and by tests asserting aggregation linearity.
    """
    return np.concatenate([state[key].reshape(-1) for key in sorted(state)])
