"""Scaling drill: virtualized cross-device rounds with flat memory.

Not a paper table — an engineering experiment for the client-virtualization
subsystem (see :mod:`repro.fl.registry` and DESIGN.md's scaling section).
It runs FedAvg over a population that is never fully materialized: each
round samples a cohort of ids, builds only those clients from
``(seed, client_id)``, trains them, and parks their dirty state in the
configured state store.  The result table reports the memory evidence
(peak RSS, store-resident bytes, high-water live-client count) alongside
the usual round telemetry.

CLI knobs (``--population --cohort-fraction --state-store
--state-cache-size``) override the profile-scaled defaults; the optional
``REPRO_SCALE_RSS_CEILING_MB`` environment variable turns the peak-RSS
report into a hard assertion (CI's scale matrix uses it).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.data.synthetic import TabularSpec, generate_tabular_dataset
from repro.experiments.common import get_execution_config, run_federated
from repro.experiments.profiles import Profile
from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.fl.client import ClientConfig, FLClient
from repro.fl.registry import ClientRegistry, make_state_store
from repro.fl.server import FLServer
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

#: Per-client synthetic shard shape: tiny on purpose — the experiment
#: measures the *round machinery's* memory, not model quality.
_SPEC = TabularSpec(num_classes=4, num_features=16, flip_probability=0.1)
_SAMPLES_PER_CLASS = 4
_HIDDEN = (16,)


def _model_factory(seed: int):
    def factory():
        return build_model(
            "mlp",
            _SPEC.num_classes,
            in_features=_SPEC.num_features,
            hidden=_HIDDEN,
            seed=derive_rng(seed, "scale-model"),
        )

    return factory


def build_scale_registry(
    population: int,
    seed: int = 0,
    store_name: str = "memory",
    cache_size: int = 64,
    spill_dir: Optional[str] = None,
    lr: float = 5e-2,
) -> Tuple[ClientRegistry, FLServer]:
    """A virtualized synthetic federation of ``population`` clients.

    Every client is derivable from ``(seed, client_id)`` alone: its data
    shard, model init, and training stream all come from
    :func:`repro.utils.rng.derive_rng`, so a cold materialization in round
    40 is bit-identical to one in round 1.
    """
    model_factory = _model_factory(seed)

    def client_factory(cid: int) -> FLClient:
        shard = generate_tabular_dataset(
            _SPEC,
            samples_per_class=_SAMPLES_PER_CLASS,
            seed=derive_rng(seed, "scale-data", cid),
        )
        return FLClient(
            cid,
            shard,
            model_factory,
            ClientConfig(lr=lr, batch_size=8),
            seed=derive_rng(seed, "scale-client", cid),
        )

    store = make_state_store(store_name, cache_size=cache_size, spill_dir=spill_dir)
    registry = ClientRegistry(
        client_factory,
        population=population,
        store=store,
        spec={"kind": "scale-synthetic", "seed": seed, "population": population},
    )
    return registry, FLServer(model_factory)


@register("scale", "Client virtualization: flat-memory rounds", "Scaling drill")
def scale(profile: Profile) -> ExperimentResult:
    config = get_execution_config()
    population = config.population or {"smoke": 200, "quick": 1000}.get(
        profile.name, 2000
    )
    fraction = config.cohort_fraction if config.cohort_fraction is not None else 0.01
    cohort = max(2, min(population, int(round(population * fraction))))
    rounds = max(2, min(profile.fl_rounds, 3))
    seed = 0

    result = ExperimentResult(
        experiment_id="scale",
        title="Virtualized federation: memory stays flat in the population",
        columns=[
            "population",
            "cohort",
            "rounds",
            "backend",
            "state_store",
            "peak_rss_mb",
            "store_resident_mb",
            "max_live_clients",
            "materializations",
        ],
    )

    registry, server = build_scale_registry(
        population,
        seed=seed,
        store_name=config.state_store,
        cache_size=config.state_cache_size,
    )
    simulation = run_federated(
        server,
        None,
        rounds,
        registry=registry,
        clients_per_round=cohort,
        sampling_seed=seed,
    )
    metrics = simulation.history.round_metrics
    peak_rss = max((m.peak_rss_bytes or 0) for m in metrics)
    store_resident = registry.store.resident_bytes()
    max_live = registry.max_live
    materializations = registry.materialized_total
    registry.close()

    result.add_row(
        population=population,
        cohort=cohort,
        rounds=rounds,
        backend=config.backend,
        state_store=config.state_store,
        peak_rss_mb=peak_rss / 1e6,
        store_resident_mb=store_resident / 1e6,
        max_live_clients=max_live,
        materializations=materializations,
    )
    result.add_note(f"cohort fraction {fraction:.4f}")

    ceiling_mb = os.environ.get("REPRO_SCALE_RSS_CEILING_MB")
    if ceiling_mb:
        ceiling = float(ceiling_mb) * 1e6
        if peak_rss > ceiling:
            raise RuntimeError(
                f"peak RSS {peak_rss / 1e6:.1f} MB exceeds the "
                f"REPRO_SCALE_RSS_CEILING_MB={ceiling_mb} ceiling"
            )
        result.add_note(f"peak RSS under the {ceiling_mb} MB CI ceiling")
    return result
