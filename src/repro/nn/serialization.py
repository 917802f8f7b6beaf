"""Model state persistence and wire serialization.

State dicts are flat ``{dotted.name: ndarray}`` mappings (see
:meth:`repro.nn.layers.Module.state_dict`); this module saves/loads them with
``numpy.savez`` so checkpoints are portable and dependency-free.

:func:`pack_state_dict` / :func:`unpack_state_dict` serialize a state dict to
a single ``bytes`` payload for inter-process transfer: the FL parallel
executor packs the global state **once per round** and hands every worker the
same read-only buffer instead of cloning the state dict per client.  The
round trip is bitwise: names, shapes and dtypes all survive it.
"""

from __future__ import annotations

import io
import os
from typing import Dict

import numpy as np


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> None:
    """Serialize a state dict to ``path`` (npz)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a state dict saved by :func:`save_state_dict`."""
    with np.load(path if path.endswith(".npz") else path + ".npz") as archive:
        return {name: archive[name] for name in archive.files}


def clone_state_dict(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep-copy a state dict (FL clients clone the global model each round)."""
    return {name: np.array(value, copy=True) for name, value in state.items()}


def state_dict_nbytes(state: Dict[str, np.ndarray]) -> int:
    """Payload size of a state dict in bytes (arrays only, no framing)."""
    return int(sum(value.nbytes for value in state.values()))


def pack_state_dict(state: Dict[str, np.ndarray]) -> bytes:
    """Serialize a state dict into one contiguous ``bytes`` payload.

    The payload is self-describing: :func:`unpack_state_dict` recovers
    names, shapes, and dtypes.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def unpack_state_dict(payload: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`pack_state_dict`."""
    with np.load(io.BytesIO(payload)) as archive:
        return {name: archive[name] for name in archive.files}


def state_dicts_allclose(
    a: Dict[str, np.ndarray], b: Dict[str, np.ndarray], atol: float = 1e-10
) -> bool:
    """Structural + numeric equality of two state dicts.

    Structure is compared strictly — same names, and per key the exact same
    shape and dtype — *before* any value comparison.  ``np.allclose`` alone
    would happily broadcast ``(3, 1)`` against ``(3,)`` and report equality,
    which let wire-corruption bugs that reshape a leaf slip past exactness
    tests.  NaNs never compare equal.
    """
    if set(a) != set(b):
        return False
    for name in a:
        va, vb = np.asarray(a[name]), np.asarray(b[name])
        if va.shape != vb.shape or va.dtype != vb.dtype:
            return False
        if not np.allclose(va, vb, atol=atol, equal_nan=False):
            return False
    return True
