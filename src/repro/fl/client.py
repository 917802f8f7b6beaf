"""Federated-learning clients.

:class:`FLClient` is the standard (no-defense) participant: it clones the
broadcast global model, runs local SGD epochs on its private shard, and
returns its new weights.  Defense clients (CIP in :mod:`repro.core`, DP in
:mod:`repro.defenses`) subclass it and override :meth:`local_update` or the
training objective.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.training import EvalResult, evaluate_model, train_supervised
from repro.nn.layers import Module
from repro.nn.optim import SGD
from repro.nn.serialization import clone_state_dict
from repro.utils.rng import SeedLike, derive_rng

StateDict = Dict[str, np.ndarray]
ModelFactory = Callable[[], Module]


@dataclass
class ClientConfig:
    """Local training hyperparameters (paper Section IV-A defaults)."""

    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 32
    local_epochs: int = 1  # paper default: 1 local epoch per round


@dataclass
class ClientUpdate:
    """What a client sends to the server after a round of local training."""

    client_id: int
    state: StateDict
    num_samples: int
    train_loss: float


@dataclass
class ClientMutableState:
    """Everything about a client that evolves across rounds.

    The parallel round executor ships this to a worker process, runs
    :meth:`FLClient.local_update` there, and applies the returned state back
    onto the authoritative client object in the coordinator process — so a
    worker-executed round leaves the client bit-for-bit identical to an
    in-process round.  Heavy immutable pieces (the data shard, the model
    architecture) are shipped once at pool start-up, not here.

    ``extra`` carries subclass state: :class:`repro.core.cip_client.CIPClient`
    stores its secret perturbation and the perturbation optimizer there.

    ``wire_residual`` is the client's error-feedback residual for lossy wire
    codecs (see :class:`repro.fl.communication.TopKCodec`): what previous
    rounds left untransmitted.  It lives here so worker round-trips and
    checkpoints carry it, making compressed runs resume bit-identically.
    """

    model_state: StateDict
    optimizer_state: Dict[str, object]
    round_index: int
    seed_rng: Optional[np.random.Generator] = None
    augment_rng: Optional[np.random.Generator] = None
    extra: Dict[str, object] = field(default_factory=dict)
    wire_residual: Optional[StateDict] = None

    def clone(self) -> "ClientMutableState":
        """A fully independent deep copy of this snapshot.

        :meth:`FLClient.get_mutable_state` clones the array state but keeps
        *live references* to the client's RNG generators (the cheap choice
        for the ship-to-worker path and the checkpoint writer, which pickle
        the snapshot at once).  In-process consumers that hold a snapshot
        across further training — the executors' retry rollback, read-only
        materialization — must clone it so the client's continued draws
        cannot mutate it.
        """
        return copy.deepcopy(self)


class FLClient:
    """A benign FL participant training the plain single-channel model.

    Virtualization contract (see :mod:`repro.fl.registry`): a client must
    be fully reconstructible from its constructor arguments plus a
    :class:`ClientMutableState` snapshot.  Everything that evolves across
    rounds has to round-trip through :meth:`get_mutable_state` /
    :meth:`set_mutable_state` — subclasses hook
    :meth:`_extra_mutable_state` / :meth:`_load_extra_state` for their own
    evolving state (e.g. the CIP perturbation) so lazy re-materialization
    in round *k* is bit-identical to an object that lived through rounds
    1..k-1.  State kept only as instance attributes outside the snapshot
    is silently lost when a registry releases the client.
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        model_factory: ModelFactory,
        config: Optional[ClientConfig] = None,
        augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        seed: SeedLike = None,
    ) -> None:
        self.client_id = client_id
        self.dataset = dataset
        self.config = config or ClientConfig()
        self.augment = augment
        self._seed = seed
        self.model = model_factory()
        self._optimizer = SGD(
            self.model.parameters(),
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self._round = 0
        self._wire_residual: Optional[StateDict] = None

    # -- FL protocol -----------------------------------------------------
    def receive_global(self, state: StateDict) -> None:
        """Adopt the server's broadcast weights."""
        self.model.load_state_dict(state)

    def local_update(self) -> ClientUpdate:
        """One round of local training; returns the new local weights."""
        self._round += 1
        losses = self._train_round()
        return ClientUpdate(
            client_id=self.client_id,
            state=clone_state_dict(self.model.state_dict()),
            num_samples=len(self.dataset),
            train_loss=losses[-1],
        )

    def _train_round(self) -> list:
        return train_supervised(
            self.model,
            self.dataset,
            self._optimizer,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            seed=derive_rng(self._seed, "round", self._round),
            augment=self.augment,
        )

    # -- state round-trip (parallel execution / checkpointing) -------------
    def get_mutable_state(self) -> ClientMutableState:
        """Snapshot the client state that evolves across rounds.

        Subclasses with extra per-round state (e.g. the CIP perturbation)
        override :meth:`_extra_mutable_state` / :meth:`_load_extra_state`
        rather than this pair.
        """
        seed_rng = self._seed if isinstance(self._seed, np.random.Generator) else None
        return ClientMutableState(
            model_state=clone_state_dict(self.model.state_dict()),
            optimizer_state=self._optimizer.state_dict(),
            round_index=self._round,
            seed_rng=seed_rng,
            augment_rng=getattr(self.augment, "_rng", None),
            extra=self._extra_mutable_state(),
            wire_residual=(
                clone_state_dict(self._wire_residual)
                if self._wire_residual is not None
                else None
            ),
        )

    def set_mutable_state(self, state: ClientMutableState) -> None:
        """Restore a snapshot taken by :meth:`get_mutable_state`."""
        self.model.load_state_dict(state.model_state)
        self._optimizer.load_state_dict(state.optimizer_state)
        self._round = state.round_index
        if state.seed_rng is not None:
            self._seed = state.seed_rng
        if state.augment_rng is not None and self.augment is not None:
            self.augment._rng = state.augment_rng
        self._wire_residual = state.wire_residual
        self._load_extra_state(state.extra)

    def _extra_mutable_state(self) -> Dict[str, object]:
        return {}

    def _load_extra_state(self, extra: Dict[str, object]) -> None:
        pass

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, dataset: Dataset) -> EvalResult:
        """Evaluate the client's current model on an arbitrary dataset."""
        return evaluate_model(self.model, dataset, batch_size=self.config.batch_size)

    def evaluate_train(self) -> EvalResult:
        return self.evaluate(self.dataset)
