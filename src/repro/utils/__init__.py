"""Shared utilities: deterministic RNG management, logging, timing."""

from repro.utils.rng import RngMixin, derive_rng, spawn_rngs
from repro.utils.logging import get_logger

__all__ = ["RngMixin", "derive_rng", "spawn_rngs", "get_logger"]
