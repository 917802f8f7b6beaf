"""Client-batched round execution.

:class:`BatchedExecutor` runs a cohort of *identically structured* clients as
one stacked computation: leaf parameters become ``[K, ...]`` arrays, every
forward/backward runs once over a ``[K, N, ...]`` batch (convolutions as one
grouped im2col + one batched GEMM, linears as one 3-D GEMM), and the per-client
SGD steps apply as vectorized updates over the leading client axis.  A round is
then a few large kernels instead of K small autograd graphs.

Plain FedAvg clients and CIP clients both stack, each kind in its own groups.
A CIP group runs ``CIPTrainer.train_epoch`` stacked: every member's secret
``t`` becomes a slice of one ``[K, 1, ...]`` leaf, and each batch runs the
Step-I updates of ``t`` (:func:`repro.core.perturbation.
stacked_perturbation_step`, parameters held constant) and then the Step-II
objective (:func:`repro.core.trainer.stacked_cip_model_loss`).  The
dual-channel model lowers to one plan: the two blended channels are joined
on the sample axis for the shared backbone, and the features of the two
halves are joined on the last axis for the head.

The batched path is **bitwise identical** to :class:`SequentialExecutor` per
dtype policy.  That holds because every stacked op reduces to
the same float sequence per client slice:

- ``np.matmul`` over a leading batch axis runs each slice through the same
  GEMM kernel as a 2-D call;
- elementwise ops and broadcasts pair the same operands;
- axis reductions (BatchNorm statistics, bias gradients, the loss mean,
  ``t``'s gradient and L1 norm) reduce the same element sequences per slice
  as their 2-D counterparts;
- the stacked graphs are built op for op like the per-client ones, so a
  tensor with several consumers (``t`` has three in Step I) accumulates
  their gradients in the same order;
- each client keeps its own RNG and derives its shuffle streams exactly as
  its ``local_update`` does: once per round for plain clients, once per
  epoch for CIP clients.

Clients that cannot be stacked — other client subclasses (defenses override
``local_update``), clients with data augmentation, CIP clients whose model
has BatchNorm (Step I runs the model in eval mode, and the stacked
BatchNorm step implements training mode only), heterogeneous architectures
or hyperparameters, non-SGD optimizers, models with a layer the plan
compiler does not lower (dropout, BatchNorm1d, tanh, sigmoid, a bare
flatten or identity), or a group of one — run the shared per-client lifecycle
(``RoundExecutor._run_client``), as does the whole round whenever fault
tolerance is enabled (fault decisions are keyed per-(round, client,
attempt) and must interleave exactly as the sequential engine does).  A
stacked member's update is collected through the same
``RoundExecutor._collect`` as every other client's, so Byzantine corruption
and the wire codec are preserved under batching.

Caveats:

- Within a round, protocol calls (``server.broadcast``, RNG derivation) for a
  batched group happen when the group's *first* member is reached in
  participant order; collected results are re-ordered back to participant
  order before aggregation, so FedAvg consumes them in the exact sequential
  order.
- A stacked member's parameters, momentum slots and ``t`` are views of its
  slice of the group's stacked arrays, which train in place.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cip_client import CIPClient
from repro.core.perturbation import stacked_perturbation_step
from repro.core.trainer import stacked_cip_model_loss
from repro.data.dataset import Dataset
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.executor import (
    ClientOutcome,
    RoundExecution,
    RoundExecutionError,
    SequentialExecutor,
)
from repro.nn import functional as F
from repro.nn.backend import get_dtype_policy
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn import tensor as T
from repro.nn.losses import stacked_cross_entropy
from repro.nn.models.heads import DualChannelClassifier, SingleChannelClassifier
from repro.nn.models.mlp import MLP, MLPBackbone
from repro.nn.models.vgg import MiniVGGBackbone
from repro.nn.optim import SGD
from repro.nn.serialization import state_dict_nbytes
from repro.nn.tensor import Tensor
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng
from repro.utils.timer import Stopwatch

_log = get_logger("fl.batched")

# Stacked activations/params dict: dotted parameter name -> [K, ...] leaf.
Params = Dict[str, Tensor]
# Stacked buffers dict: dotted buffer name -> [K, ...] plain array.
Buffers = Dict[str, np.ndarray]
Step = Callable[[Tensor, Params, Buffers], Tensor]
#: Leading signature entry of a dual-channel plan, whose input is the
#: blended channel pair.
_DUAL_CHANNEL = ("dual_channel",)


class _NotBatchable(Exception):
    """The model (or client) cannot be compiled to a stacked plan."""


# ----------------------------------------------------------------------
# Stacked-plan compilation
#
# A plan is a list of steps mapping a [K, N, ...] tensor through the model,
# reading stacked parameters by their dotted state-dict name.  Compilation
# also yields a structural signature: two models with equal signatures have
# identical parameter layout and identical forward arithmetic, which is the
# grouping key for batching.
# ----------------------------------------------------------------------
def _conv_step(conv: Conv2d, prefix: str, fuse_relu: bool) -> Step:
    weight_name = prefix + "weight"
    bias_name = prefix + "bias" if conv.bias is not None else None
    stride, padding = conv.stride, conv.padding

    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        clients, per = x.shape[0], x.shape[1]
        folded = x.reshape(clients * per, *x.shape[2:])
        out = F.conv2d_grouped(
            folded,
            params[weight_name],
            params[bias_name] if bias_name else None,
            stride=stride,
            padding=padding,
            relu=fuse_relu,
        )
        return out.reshape(clients, per, *out.shape[1:])

    return step


def _linear_step(linear: Linear, prefix: str, fuse_relu: bool) -> Step:
    weight_name = prefix + "weight"
    bias_name = prefix + "bias" if linear.bias is not None else None
    out_features = linear.out_features

    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        clients = x.shape[0]
        bias = (
            params[bias_name].reshape(clients, 1, out_features) if bias_name else None
        )
        if fuse_relu:
            return F.fused_linear_relu(x, params[weight_name], bias)
        out = x @ params[weight_name]
        if bias is not None:
            out = out + bias
        return out

    return step


def _batchnorm2d_step(bn: BatchNorm2d, prefix: str) -> Step:
    weight_name, bias_name = prefix + "weight", prefix + "bias"
    mean_name, var_name = prefix + "running_mean", prefix + "running_var"
    momentum, eps, channels = bn.momentum, bn.eps, bn.num_features

    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        clients = x.shape[0]
        axes = (1, 3, 4)
        mean = x.mean(axis=axes, keepdims=True)
        var = ((x - mean) * (x - mean)).mean(axis=axes, keepdims=True)
        dtype = get_dtype_policy().compute_dtype
        buffers[mean_name] = np.asarray(
            (1 - momentum) * buffers[mean_name]
            + momentum * mean.data.reshape(clients, channels),
            dtype=dtype,
        )
        buffers[var_name] = np.asarray(
            (1 - momentum) * buffers[var_name]
            + momentum * var.data.reshape(clients, channels),
            dtype=dtype,
        )
        normalized = (x - mean) / (var + eps).sqrt()
        scale = params[weight_name].reshape(clients, 1, channels, 1, 1)
        shift = params[bias_name].reshape(clients, 1, channels, 1, 1)
        return normalized * scale + shift

    return step


def _pool_step(kind: str, kernel: int, stride: int) -> Step:
    pool = F.max_pool2d if kind == "max" else F.avg_pool2d

    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        clients, per = x.shape[0], x.shape[1]
        folded = x.reshape(clients * per, *x.shape[2:])
        out = pool(folded, kernel, stride)
        return out.reshape(clients, per, *out.shape[1:])

    return step


def _gap_step() -> Step:
    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        return x.mean(axis=(3, 4))

    return step


def _relu_step() -> Step:
    return lambda x, params, buffers: x.relu()


def _compile_sequential(seq: Sequential, prefix: str, steps: List[Step], sig: List) -> None:
    modules = list(seq)
    index = 0
    while index < len(modules):
        module = modules[index]
        child_prefix = f"{prefix}layer{index}."
        successor = modules[index + 1] if index + 1 < len(modules) else None
        # Fuse conv->relu / linear->relu adjacencies into one kernel; bitwise
        # neutral (see repro.nn.functional) but one graph node each.
        if type(module) is Conv2d and type(successor) is ReLU:
            steps.append(_conv_step(module, child_prefix, fuse_relu=True))
            sig.append(("conv2d_relu", child_prefix) + _conv_sig(module))
            index += 2
            continue
        if type(module) is Linear and type(successor) is ReLU:
            steps.append(_linear_step(module, child_prefix, fuse_relu=True))
            sig.append(("linear_relu", child_prefix) + _linear_sig(module))
            index += 2
            continue
        _compile(module, child_prefix, steps, sig)
        index += 1


def _conv_sig(conv: Conv2d) -> Tuple:
    return (
        conv.in_channels,
        conv.out_channels,
        conv.kernel_size,
        conv.stride,
        conv.padding,
        conv.bias is not None,
    )


def _linear_sig(linear: Linear) -> Tuple:
    return (linear.in_features, linear.out_features, linear.bias is not None)


def _compile(module: Module, prefix: str, steps: List[Step], sig: List) -> None:
    kind = type(module)
    if kind is Sequential:
        _compile_sequential(module, prefix, steps, sig)
    elif kind is Conv2d:
        steps.append(_conv_step(module, prefix, fuse_relu=False))
        sig.append(("conv2d", prefix) + _conv_sig(module))
    elif kind is Linear:
        steps.append(_linear_step(module, prefix, fuse_relu=False))
        sig.append(("linear", prefix) + _linear_sig(module))
    elif kind is BatchNorm2d:
        steps.append(_batchnorm2d_step(module, prefix))
        sig.append(("bn2d", prefix, module.num_features, module.momentum, module.eps))
    elif kind is ReLU:
        steps.append(_relu_step())
        sig.append(("relu",))
    elif kind is MaxPool2d:
        steps.append(_pool_step("max", module.kernel_size, module.stride))
        sig.append(("maxpool", module.kernel_size, module.stride))
    elif kind is AvgPool2d:
        steps.append(_pool_step("avg", module.kernel_size, module.stride))
        sig.append(("avgpool", module.kernel_size, module.stride))
    elif kind is GlobalAvgPool2d:
        steps.append(_gap_step())
        sig.append(("gap",))
    elif kind is MLPBackbone:
        steps.append(_mlp_flatten_step())
        sig.append(("mlp_flatten",))
        _compile(module.body, prefix + "body.", steps, sig)
    elif kind is MiniVGGBackbone:
        _compile(module.body, prefix + "body.", steps, sig)
    elif kind is MLP:
        _compile(module.backbone, prefix + "backbone.", steps, sig)
        steps.append(_linear_step(module.head, prefix + "head.", fuse_relu=False))
        sig.append(("linear", prefix + "head.") + _linear_sig(module.head))
    elif kind is SingleChannelClassifier:
        _compile(module.backbone, prefix + "backbone.", steps, sig)
        if getattr(module.backbone, "spatial_features", False):
            steps.append(_gap_step())
            sig.append(("gap",))
        steps.append(_linear_step(module.head, prefix + "head.", fuse_relu=False))
        sig.append(("linear", prefix + "head.") + _linear_sig(module.head))
    elif kind is DualChannelClassifier:
        # The plan takes the blended channel pair: both run through the
        # backbone as one batch on the sample axis, and their features are
        # joined on the last axis for the head (``DualChannelClassifier.
        # forward`` per client slice).
        steps.append(_dual_concat_step())
        sig.append(_DUAL_CHANNEL)
        _compile(module.backbone, prefix + "backbone.", steps, sig)
        if getattr(module.backbone, "spatial_features", False):
            steps.append(_gap_step())
            sig.append(("gap",))
        steps.append(_dual_join_step())
        sig.append(("dual_join",))
        steps.append(_linear_step(module.head, prefix + "head.", fuse_relu=False))
        sig.append(("linear", prefix + "head.") + _linear_sig(module.head))
    else:
        raise _NotBatchable(f"no stacked plan for {kind.__name__}")


def _dual_concat_step() -> Step:
    def step(pair: Tuple[Tensor, Tensor], params: Params, buffers: Buffers) -> Tensor:
        return T.concatenate(list(pair), axis=1)

    return step


def _dual_join_step() -> Step:
    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        half = x.shape[1] // 2
        return T.concatenate([x[:, :half], x[:, half:]], axis=2)

    return step


def _mlp_flatten_step() -> Step:
    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        if x.ndim != 3:
            x = x.reshape(x.shape[0], x.shape[1], -1)
        return x

    return step


def compile_stacked_plan(model: Module) -> Tuple[List[Step], Tuple]:
    """Compile ``model`` into stacked steps plus its structural signature.

    Raises :class:`_NotBatchable` for unsupported structure.  The signature
    captures layer kinds, hyperparameters, and parameter-name prefixes, so
    equal signatures imply an identical stacked plan and parameter layout.
    """
    steps: List[Step] = []
    sig: List = []
    _compile(model, "", steps, sig)
    return steps, tuple(sig)


# ----------------------------------------------------------------------
# Per-kind objectives
#
# ``BatchedExecutor._train_group`` is the one stacked training loop.  The
# client kind supplies what differs: the shuffle streams, the per-batch
# objective and update, and what it records per epoch.
# ----------------------------------------------------------------------
#: Runs the stacked plan on an input (a blended pair for dual-channel
#: plans) with the given parameters.
Forward = Callable[[object, Params], Tensor]


class _PlainObjective:
    """``FLClient.local_update``: the cross-entropy of ``train_supervised``."""

    def __init__(self, group: List[FLClient], forward: Forward) -> None:
        self.group = group
        self.forward = forward

    @staticmethod
    def streams(client: FLClient) -> List[np.random.Generator]:
        """The generator each local epoch draws its shuffle from."""
        # One stream per round; every epoch draws a permutation from it.
        rng = derive_rng(client._seed, "round", client._round)
        return [rng] * client.config.local_epochs

    def loss(self, params: Params, inputs: np.ndarray, labels: np.ndarray) -> Tensor:
        """The ``(K,)`` losses whose sum backpropagates into ``params``."""
        return stacked_cross_entropy(self.forward(Tensor(inputs), params), labels)

    def end_epoch(self, losses: List[float], count: int) -> None:
        pass


class _CIPObjective(_PlainObjective):
    """``CIPClient.local_update``: ``CIPTrainer.train_epoch``'s Step I and
    Step II on every batch, with the members' perturbations stacked."""

    def __init__(self, group: List[CIPClient], forward: Forward) -> None:
        super().__init__(group, forward)
        perturbation = group[0].perturbation
        self.config = perturbation.config
        self.lr = perturbation._optimizer.lr
        self.t = Tensor(
            np.stack([client.perturbation.t.data for client in group])[:, None],
            requires_grad=True,
        )
        for index, client in enumerate(group):
            client.perturbation.t.data = self.t.data[index, 0]  # trains in place
        self.perturbation_totals = [0.0] * len(group)

    @staticmethod
    def streams(client: CIPClient) -> List[np.random.Generator]:
        # A fresh DataLoader stream per epoch, as CIPClient.local_update seeds it.
        return [
            derive_rng(client._seed, "round", client._round, epoch)
            for epoch in range(client.config.local_epochs)
        ]

    def loss(self, params: Params, inputs: np.ndarray, labels: np.ndarray) -> Tensor:
        # Step I shapes t against the current model, held constant.
        frozen = {name: Tensor(leaf.data) for name, leaf in params.items()}
        objectives = None
        for _ in range(self.config.perturbation_steps):
            objectives = stacked_perturbation_step(
                lambda pair: self.forward(pair, frozen),
                self.t, inputs, labels, self.config, self.lr,
            )
        if objectives is not None:
            for k, objective in enumerate(objectives):
                if not np.isnan(objective):
                    self.perturbation_totals[k] += float(objective) * labels.shape[1]
        # Step II fits the model against the current t.
        return stacked_cip_model_loss(
            lambda pair: self.forward(pair, params), self.t, inputs, labels, self.config
        )

    def end_epoch(self, losses: List[float], count: int) -> None:
        for k, client in enumerate(self.group):
            history = client._trainer.history
            history.model_losses.append(losses[k])
            history.perturbation_losses.append(self.perturbation_totals[k] / max(count, 1))
        self.perturbation_totals = [0.0] * len(self.group)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class BatchedExecutor(SequentialExecutor):
    """Round engine stacking same-architecture clients into batched kernels.

    Grouping key: (client type, stacked-plan signature, dataset length,
    input shape, batch size, local epochs, lr, momentum, weight decay), and
    for CIP clients every :class:`~repro.core.config.CIPConfig` field plus
    the perturbation optimizer's lr.  Every member of a group therefore
    shares scalar hyperparameters, so the vectorized SGD step broadcasts
    the *same* scalars the sequential optimizer uses — bitwise identical
    per client slice.  Groups of one and unbatchable clients run the
    inherited per-client lifecycle; rounds with fault tolerance enabled run
    every client through it.
    """

    name = "batched"

    def prepare(self, clients: Sequence[FLClient]) -> None:
        # Compiled plans, keyed by client_id: the plan is an architecture
        # property, stable for the lifetime of a simulation.  Dynamic
        # grouping fields (lr, momentum, ...) are re-read every round in
        # ``_batch_key`` so schedule changes still split groups correctly.
        self._compile_cache: Dict[int, Optional[Tuple[Tuple, List[Step]]]] = {}

    def _compiled(self, client: FLClient) -> Optional[Tuple[Tuple, List[Step]]]:
        cache = getattr(self, "_compile_cache", None)
        if cache is None:
            self.prepare(())
            cache = self._compile_cache
        if client.client_id not in cache:
            try:
                plan, sig = compile_stacked_plan(client.model)
            except _NotBatchable:
                cache[client.client_id] = None
            else:
                cache[client.client_id] = (sig, plan)
        return cache[client.client_id]

    def execute(self, participants: Sequence[FLClient], server) -> RoundExecution:
        # Retries and faults need the per-(round, client, attempt)
        # interleaving of the sequential engine, so tolerant rounds (any
        # configured FaultInjector, wire-only ones included) stack nothing
        # and run every client through the shared lifecycle.
        self._groups = {} if self._tolerant else self._plan_groups(participants)
        try:
            return super().execute(participants, server)
        finally:
            # Hold no member past its round: a member's parameters are views
            # of its group's stacked arrays and would keep all of them alive.
            self._groups = {}

    def _train(
        self, client: FLClient, server, key: int, reference, wire_reference
    ) -> List[Tuple[FLClient, ClientOutcome]]:
        grouped = self._groups.get(client.client_id)
        if grouped is None:
            return super()._train(client, server, key, reference, wire_reference)
        group, plan = grouped
        try:
            with Stopwatch() as watch:
                updates, sent = self._train_group(group, plan, server)
        except Exception as exc:
            ids = [member.client_id for member in group]
            raise RoundExecutionError(
                f"batched group {ids} failed during local_update: {exc!r}"
            ) from exc
        trained = []
        for member, update, nbytes in zip(group, updates, sent):
            outcome = ClientOutcome(
                member.client_id,
                compute_seconds=watch.elapsed / len(group),
                bytes_broadcast=nbytes,
            )
            outcome = self._collect(
                key, update, reference, wire_reference, member, outcome, 0
            )
            trained.append((member, outcome))
        return trained

    # -- grouping ---------------------------------------------------------
    def _batch_key(self, client: FLClient) -> Optional[Tuple[Tuple, List[Step]]]:
        """The client's grouping key + compiled plan, or ``None`` if unbatchable."""
        kind = type(client)
        if kind not in _OBJECTIVES:
            return None  # other subclasses (defenses) override local_update
        if type(client._optimizer) is not SGD:
            return None
        if client.augment is not None:
            return None  # augment callables own RNG streams we must not reorder
        compiled = self._compiled(client)
        if compiled is None:
            return None
        sig, plan = compiled
        optimizer = client._optimizer
        dataset: Dataset = client.dataset
        key = (
            kind,
            sig,
            len(dataset),
            dataset.input_shape,
            client.config.batch_size,
            client.config.local_epochs,
            optimizer.lr,
            optimizer.momentum,
            optimizer.weight_decay,
        )
        dual = sig[:1] == (_DUAL_CHANNEL,)
        if kind is FLClient:
            return None if dual else (key, plan)
        # CIP needs the dual-channel plan, and its Step I runs the model in
        # eval mode, which the stacked BatchNorm steps (training mode only)
        # do not implement.
        if not dual or any(entry[0] in ("bn1d", "bn2d") for entry in sig):
            return None
        perturbation = client.perturbation
        return key + (astuple(perturbation.config), perturbation._optimizer.lr), plan

    def _plan_groups(
        self, participants: Sequence[FLClient]
    ) -> Dict[int, Tuple[List[FLClient], List[Step]]]:
        """Map client id -> its batchable group (>= 2 members) and stacked plan."""
        by_key: Dict[Tuple, List[FLClient]] = {}
        plans: Dict[Tuple, List[Step]] = {}
        for client in participants:
            keyed = self._batch_key(client)
            if keyed is None:
                continue
            key, plan = keyed
            by_key.setdefault(key, []).append(client)
            plans.setdefault(key, plan)
        groups: Dict[int, Tuple[List[FLClient], List[Step]]] = {}
        for key, members in by_key.items():
            if len(members) < 2:
                continue  # stacking overhead without a second client to share it
            for member in members:
                groups[member.client_id] = (members, plans[key])
        return groups

    # -- stacked training -------------------------------------------------
    def _train_group(
        self, group: List[FLClient], plan: List[Step], server
    ) -> Tuple[List[ClientUpdate], List[int]]:
        """Run one round of local training for a whole group, stacked.

        Returns the clients' updates and broadcast byte counts (group order).
        Mirrors the members' ``local_update`` exactly (``train_supervised``
        for plain clients, ``CIPTrainer.train_epoch`` for CIP clients): same
        protocol order, the same RNG derivations per client, same per-batch
        float sequence per client slice.
        """
        cohort = len(group)
        objective_kind = _OBJECTIVES[type(group[0])]
        config = group[0].config
        streams: List[List[np.random.Generator]] = []
        param_lists = [list(client.model.named_parameters()) for client in group]
        buffer_owners = [list(client.model._named_buffer_owners()) for client in group]
        names = [name for name, _ in param_lists[0]]
        buffer_names = [name for name, _ in buffer_owners[0]]
        stacked: List[Tensor] = []
        params: Params = {}
        buffers: Buffers = {}
        compute_dtype = get_dtype_policy().compute_dtype

        # Stack parameters / buffers along a new client axis.
        if server.broadcast_hook is None:
            # A hook-free broadcast hands every client an identical clone of
            # the global state: fetch it once, bill it per client, and build
            # each stacked array with one cast + repeat instead of K
            # per-model loads and K re-walks.  The per-model load is skipped
            # entirely: the members adopt views of the stacked arrays below.
            state = server.broadcast(group[0].client_id)
            sent = [state_dict_nbytes(state)] * cohort
            for client in group:
                client.model.train()
                client._round += 1
                streams.append(objective_kind.streams(client))
            for name, param in param_lists[0]:
                cast = np.asarray(state[name], dtype=param.data.dtype)
                leaf = Tensor(np.repeat(cast[None], cohort, axis=0), requires_grad=True)
                stacked.append(leaf)
                params[name] = leaf
            for name in buffer_names:
                cast = np.asarray(state[name], dtype=compute_dtype)
                buffers[name] = np.repeat(cast[None], cohort, axis=0)
        else:
            # A broadcast hook may tamper per client (malicious-server
            # attacks), so per-client states can differ: keep the sequential
            # load protocol and stack from the loaded models.
            sent = []
            for client in group:
                state = server.broadcast(client.client_id)
                sent.append(state_dict_nbytes(state))
                client.receive_global(state)
                client.model.train()
                client._round += 1
                streams.append(objective_kind.streams(client))
            for position, name in enumerate(names):
                leaf = Tensor(
                    np.stack([plist[position][1].data for plist in param_lists]),
                    requires_grad=True,
                )
                stacked.append(leaf)
                params[name] = leaf
            for position, name in enumerate(buffer_names):
                buffers[name] = np.stack(
                    [
                        owners[position][1][0]._buffers[owners[position][1][1]]
                        for owners in buffer_owners
                    ]
                )

        optimizer = group[0]._optimizer
        lr, momentum, weight_decay = (
            optimizer.lr,
            optimizer.momentum,
            optimizer.weight_decay,
        )
        datasets = [client.dataset for client in group]
        samples = len(datasets[0])
        stepped = samples > 0 and config.local_epochs > 0
        velocities: List[np.ndarray] = []
        if momentum and stepped:
            for position in range(len(names)):
                slots = []
                for member_index, client in enumerate(group):
                    param = param_lists[member_index][position][1]
                    velocity = client._optimizer._velocity.get(id(param))
                    slots.append(
                        velocity if velocity is not None else np.zeros_like(param.data)
                    )
                velocities.append(np.stack(slots))
        # Every member's parameters and momentum slots become views of its
        # slice of the stacked arrays, which train in place: the members'
        # own copies are dropped now, and each ends the round holding its
        # trained state.
        for member_index, client in enumerate(group):
            slots = client._optimizer._velocity
            for position, (_, param) in enumerate(param_lists[member_index]):
                param.data = stacked[position].data[member_index]
                if velocities:
                    slots[id(param)] = velocities[position][member_index]

        def forward(x, weights: Params) -> Tensor:
            for step in plan:
                x = step(x, weights, buffers)
            return x

        objective = objective_kind(group, forward)
        input_shape = tuple(datasets[0].inputs.shape[1:])
        batch_size = config.batch_size
        losses = [float("nan")] * cohort
        for epoch in range(config.local_epochs):
            totals = [0.0] * cohort
            count = 0
            orders = [stream[epoch].permutation(samples) for stream in streams]
            for start in range(0, samples, batch_size):
                stop = min(start + batch_size, samples)
                batch_len = stop - start
                # One compute-dtype allocation; the per-client assignment
                # casts float64 inputs exactly as the sequential
                # ``Tensor(inputs)`` leaf coercion would.
                batch_inputs = np.empty(
                    (cohort, batch_len) + input_shape, dtype=compute_dtype
                )
                batch_labels = np.empty((cohort, batch_len), dtype=np.int64)
                for k in range(cohort):
                    selection = orders[k][start:stop]
                    batch_inputs[k] = datasets[k].inputs[selection]
                    batch_labels[k] = datasets[k].labels[selection]
                for leaf in stacked:
                    leaf.zero_grad()
                loss_vec = objective.loss(params, batch_inputs, batch_labels)
                loss_vec.sum().backward()
                # SGD in place: the optimizer's out-of-place float sequence,
                # without a second [K, ...] copy of the leaves or velocities.
                for position, leaf in enumerate(stacked):
                    grad = leaf.grad
                    if grad is None:
                        continue
                    leaf.zero_grad()
                    if weight_decay:
                        grad += weight_decay * leaf.data
                    grad *= lr
                    if momentum:
                        velocity = velocities[position]
                        velocity *= momentum
                        velocity -= grad
                        leaf.data += velocity
                    else:
                        leaf.data -= grad
                for k in range(cohort):
                    totals[k] += float(loss_vec.data[k]) * batch_len
                count += batch_len
            losses = [total / max(count, 1) for total in totals]
            objective.end_epoch(losses, count)

        # The update payloads get independent copies, exactly like the
        # sequential ``clone_state_dict`` path, built params-then-buffers in
        # walk order — the key order ``Module.state_dict`` produces.
        updates: List[ClientUpdate] = []
        for member_index, client in enumerate(group):
            state: Dict[str, np.ndarray] = {
                name: leaf.data[member_index].copy() for name, leaf in zip(names, stacked)
            }
            for name, (module, local) in buffer_owners[member_index]:
                module._set_buffer(local, buffers[name][member_index])
                state[name] = buffers[name][member_index].copy()
            updates.append(
                ClientUpdate(
                    client_id=client.client_id,
                    state=state,
                    num_samples=len(client.dataset),
                    train_loss=losses[member_index],
                )
            )
        return updates, sent


#: The objective each stackable client type trains with.
_OBJECTIVES = {FLClient: _PlainObjective, CIPClient: _CIPObjective}
