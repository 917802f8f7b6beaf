"""Experiment harness: one registered experiment per paper table/figure.

Importing this package loads every experiment module, populating the
registry.  Usage::

    from repro.experiments import run_experiment, QUICK, format_table
    print(format_table(run_experiment("table5", QUICK)))
"""

from repro.experiments.profiles import FULL, QUICK, SMOKE, Profile, get_profile
from repro.experiments.registry import (
    ExperimentSpec,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from repro.experiments.results import ExperimentResult, format_table
from repro.experiments.common import (
    CIPArtifact,
    LegacyArtifact,
    attack_pools,
    clear_caches,
    get_bundle,
    make_cip_config,
    train_cip,
    train_legacy,
)

# Register all experiments.
from repro.experiments import (  # noqa: F401  (imported for registration side effect)
    exp_setup,
    exp_motivation,
    exp_internal,
    exp_external,
    exp_heterogeneity,
    exp_attacks,
    exp_adaptive,
    exp_overhead,
    exp_ablations,
    exp_memguard,
    exp_robustness,
    exp_scale,
)

__all__ = [
    "Profile",
    "QUICK",
    "FULL",
    "SMOKE",
    "get_profile",
    "ExperimentSpec",
    "register",
    "run_experiment",
    "get_experiment",
    "list_experiments",
    "ExperimentResult",
    "format_table",
    "CIPArtifact",
    "LegacyArtifact",
    "train_cip",
    "train_legacy",
    "get_bundle",
    "attack_pools",
    "make_cip_config",
    "clear_caches",
]
