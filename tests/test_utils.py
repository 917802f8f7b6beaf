"""Utility modules: RNG derivation, logging."""

import logging

import numpy as np

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import as_generator, derive_rng, spawn_rngs


class TestRng:
    def test_derive_is_stateless_and_deterministic(self):
        a = derive_rng(42, "clients", 3).random(5)
        b = derive_rng(42, "clients", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_rng(42, "clients", 3).random(5)
        b = derive_rng(42, "clients", 4).random(5)
        c = derive_rng(42, "servers", 3).random(5)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_string_keys_stable(self):
        # FNV-1a hashing: independent of PYTHONHASHSEED
        a = derive_rng(0, "alpha").random(3)
        b = derive_rng(0, "alpha").random(3)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(7, 3, "workers")
        draws = [rng.random(4) for rng in rngs]
        assert not np.allclose(draws[0], draws[1])
        again = spawn_rngs(7, 3, "workers")
        np.testing.assert_array_equal(draws[0], again[0].random(4))

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen
        assert isinstance(as_generator(5), np.random.Generator)
        assert isinstance(as_generator(None), np.random.Generator)


class TestLogging:
    def test_namespacing(self):
        assert get_logger("fl.server").name == "repro.fl.server"
        assert get_logger("repro.core").name == "repro.core"

    def test_console_logging_idempotent(self):
        enable_console_logging(logging.WARNING)
        enable_console_logging(logging.WARNING)
        root = logging.getLogger("repro")
        console = [h for h in root.handlers if getattr(h, "_repro_console", False)]
        assert len(console) == 1
