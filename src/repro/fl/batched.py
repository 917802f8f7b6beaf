"""Client-batched round execution.

:class:`BatchedExecutor` runs a cohort of *identically structured* clients as
one stacked computation: leaf parameters become ``[K, ...]`` arrays, every
forward/backward runs once over a ``[K, N, ...]`` batch (convolutions as one
grouped im2col + one batched GEMM, linears as one 3-D GEMM), and the per-client
SGD steps apply as vectorized updates over the leading client axis.  A round is
then a few large kernels instead of K small autograd graphs.

The batched path is **bitwise identical** to :class:`SequentialExecutor` per
(nn backend × dtype policy).  That holds because every stacked op reduces to
the same float sequence per client slice:

- ``np.matmul`` over a leading batch axis runs each slice through the same
  GEMM kernel as a 2-D call;
- elementwise ops and broadcasts pair the same operands;
- axis reductions (BatchNorm statistics, bias gradients, the loss mean)
  reduce the same element sequences per slice as their 2-D counterparts;
- each client keeps its own RNG: ``derive_rng(seed, "round", round)`` is
  called exactly once per client per round, and per-epoch shuffles draw from
  the client's own generator in the same order as the sequential loader.

Clients that cannot be stacked — CIP/defense subclasses, clients with data
augmentation, heterogeneous architectures or hyperparameters, non-SGD
optimizers, models with active dropout, or a group of one — run the shared
per-client lifecycle (``RoundExecutor._run_client``), as does the whole round
whenever fault tolerance is enabled (fault decisions are keyed
per-(round, client, attempt) and must interleave exactly as the sequential
engine does).  A stacked member's update is collected through the same
``RoundExecutor._collect`` as every other client's, so Byzantine corruption
and the wire codec are preserved under batching.

Caveats:

- Within a round, protocol calls (``server.broadcast``, RNG derivation) for a
  batched group happen when the group's *first* member is reached in
  participant order; collected results are re-ordered back to participant
  order before aggregation, so FedAvg consumes them in the exact sequential
  order.
- On a workspace-recycling backend the stacked graph is single-shot per batch
  (same contract as ``conv2d``); the executor owns the workspace lifetime and
  releases the freelist in :meth:`BatchedExecutor.close`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.executor import (
    ClientOutcome,
    RoundExecution,
    RoundExecutionError,
    SequentialExecutor,
)
from repro.nn import functional as F
from repro.nn.backend import get_backend, get_dtype_policy
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.models.heads import SingleChannelClassifier
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


def _batchnorm1d_step(bn: BatchNorm1d, prefix: str) -> Step:
    weight_name, bias_name = prefix + "weight", prefix + "bias"
    mean_name, var_name = prefix + "running_mean", prefix + "running_var"
    momentum, eps, features = bn.momentum, bn.eps, bn.num_features

    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        clients = x.shape[0]
        mean = x.mean(axis=1, keepdims=True)
        var = ((x - mean) * (x - mean)).mean(axis=1, keepdims=True)
        dtype = get_dtype_policy().compute_dtype
        buffers[mean_name] = np.asarray(
            (1 - momentum) * buffers[mean_name]
            + momentum * mean.data.reshape(clients, features),
            dtype=dtype,
        )
        buffers[var_name] = np.asarray(
            (1 - momentum) * buffers[var_name]
            + momentum * var.data.reshape(clients, features),
            dtype=dtype,
        )
        normalized = (x - mean) / (var + eps).sqrt()
        scale = params[weight_name].reshape(clients, 1, features)
        shift = params[bias_name].reshape(clients, 1, features)
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


def _flatten_step() -> Step:
    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        return x.reshape(x.shape[0], x.shape[1], -1)

    return step


def _gap_step() -> Step:
    def step(x: Tensor, params: Params, buffers: Buffers) -> Tensor:
        return x.mean(axis=(3, 4))

    return step


def _relu_step() -> Step:
    return lambda x, params, buffers: x.relu()


def _tanh_step() -> Step:
    return lambda x, params, buffers: x.tanh()


def _sigmoid_step() -> Step:
    return lambda x, params, buffers: x.sigmoid()


def _identity_step() -> Step:
    return lambda x, params, buffers: x


def _compile_sequential(seq: Sequential, prefix: str, steps: List[Step], sig: List) -> None:
    modules = list(seq)
    index = 0
    while index < len(modules):
        module = modules[index]
        child_prefix = f"{prefix}layer{index}."
        successor = modules[index + 1] if index + 1 < len(modules) else None
        # Fuse conv->relu / linear->relu adjacencies into one backend kernel;
        # bitwise neutral (see repro.nn.functional) but one graph node each.
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
    elif kind is BatchNorm1d:
        steps.append(_batchnorm1d_step(module, prefix))
        sig.append(("bn1d", prefix, module.num_features, module.momentum, module.eps))
    elif kind is ReLU:
        steps.append(_relu_step())
        sig.append(("relu",))
    elif kind is Tanh:
        steps.append(_tanh_step())
        sig.append(("tanh",))
    elif kind is Sigmoid:
        steps.append(_sigmoid_step())
        sig.append(("sigmoid",))
    elif kind is Flatten:
        steps.append(_flatten_step())
        sig.append(("flatten",))
    elif kind is MaxPool2d:
        steps.append(_pool_step("max", module.kernel_size, module.stride))
        sig.append(("maxpool", module.kernel_size, module.stride))
    elif kind is AvgPool2d:
        steps.append(_pool_step("avg", module.kernel_size, module.stride))
        sig.append(("avgpool", module.kernel_size, module.stride))
    elif kind is GlobalAvgPool2d:
        steps.append(_gap_step())
        sig.append(("gap",))
    elif kind is Identity:
        steps.append(_identity_step())
        sig.append(("identity",))
    elif kind is Dropout:
        # Inactive dropout is an exact identity (no RNG draw); an active one
        # would need per-client mask streams interleaved exactly as the
        # sequential loop draws them — not supported, fall back.
        if module.rate > 0.0:
            raise _NotBatchable("active dropout is not batchable")
        steps.append(_identity_step())
        sig.append(("identity",))
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
    else:
        raise _NotBatchable(f"no stacked plan for {kind.__name__}")


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
# Batched loss
# ----------------------------------------------------------------------
def _batched_cross_entropy(logits: Tensor, labels: Sequence[np.ndarray]) -> Tensor:
    """Per-client mean cross-entropy over stacked ``[K, N, C]`` logits.

    Replicates :func:`repro.nn.losses.cross_entropy` (mean reduction,
    including the float32 policy's float64 loss upcast) op-for-op along the
    client axis; element ``k`` of the returned ``[K]`` tensor is bitwise
    equal to the sequential scalar loss of client ``k``.
    """
    num_classes = logits.shape[-1]
    log_probs = F.log_softmax(logits, axis=-1)
    # Vectorized equivalent of stacking per-client ``F.one_hot`` results:
    # zeros with 1.0 at each label position, so the values are bitwise the
    # same either way.
    labels_arr = np.asarray(labels, dtype=np.int64)
    cohort, batch_len = labels_arr.shape
    hot = np.zeros((cohort, batch_len, num_classes), dtype=log_probs.data.dtype)
    hot[
        np.arange(cohort)[:, None], np.arange(batch_len)[None, :], labels_arr
    ] = 1.0
    per_sample = -(log_probs * hot).sum(axis=2)
    policy = get_dtype_policy()
    if policy.upcast_loss and per_sample.data.dtype != policy.loss_dtype:
        per_sample = per_sample.astype(policy.loss_dtype)
    return per_sample.mean(axis=1)


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class BatchedExecutor(SequentialExecutor):
    """Round engine stacking same-architecture clients into batched kernels.

    Grouping key: (stacked-plan signature, dataset length, input shape,
    batch size, local epochs, lr, momentum, weight decay).  Every member of
    a group therefore shares scalar hyperparameters, so the vectorized SGD
    step broadcasts the *same* scalars the sequential optimizer uses —
    bitwise identical per client slice.  Groups of one and unbatchable
    clients run the inherited per-client lifecycle; rounds with fault
    tolerance enabled run every client through it.
    """

    name = "batched"

    def prepare(self, clients: Sequence[FLClient]) -> None:
        # Per-client caches keyed by client_id; the compiled plan and the
        # parameter/buffer walk orders are architecture properties, stable
        # for the lifetime of a simulation (loads rebind ``.data`` without
        # replacing the Tensor/buffer-owner objects).  Dynamic grouping
        # fields (lr, momentum, ...) are re-read every round in
        # ``_batch_key`` so schedule changes still split groups correctly.
        self._compile_cache: Dict[int, Optional[Tuple[Tuple, List[Step]]]] = {}
        self._walk_cache: Dict[int, Tuple[list, list]] = {}

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

    def _walks(self, client: FLClient) -> Tuple[list, list]:
        """The client model's (named params, named buffer owners) walk lists."""
        cache = getattr(self, "_walk_cache", None)
        if cache is None:
            self.prepare(())
            cache = self._walk_cache
        walks = cache.get(client.client_id)
        if walks is None:
            walks = (
                list(client.model.named_parameters()),
                list(client.model._named_buffer_owners()),
            )
            cache[client.client_id] = walks
        return walks

    def execute(self, participants: Sequence[FLClient], server) -> RoundExecution:
        # Retries and faults need the per-(round, client, attempt)
        # interleaving of the sequential engine, so tolerant rounds (any
        # configured FaultInjector, wire-only ones included) stack nothing
        # and run every client through the shared lifecycle.
        self._groups = {} if self._tolerant else self._plan_groups(participants)
        return super().execute(participants, server)

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

    def close(self) -> None:
        # The executor owns the workspace-freelist lifetime: buffers persist
        # across rounds for reuse and are released here.
        get_backend().clear_workspaces()

    # -- grouping ---------------------------------------------------------
    def _batch_key(self, client: FLClient) -> Optional[Tuple[Tuple, List[Step]]]:
        """The client's grouping key + compiled plan, or ``None`` if unbatchable."""
        if type(client) is not FLClient:
            return None  # defense subclasses override local_update
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
            sig,
            len(dataset),
            dataset.input_shape,
            client.config.batch_size,
            client.config.local_epochs,
            optimizer.lr,
            optimizer.momentum,
            optimizer.weight_decay,
        )
        return key, plan

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
        Mirrors ``FLClient.local_update`` + ``train_supervised`` exactly:
        same protocol order, one RNG derivation per client, same per-batch
        float sequence per client slice.
        """
        cohort = len(group)
        rngs: List[np.random.Generator] = []
        walks = [self._walks(client) for client in group]
        param_lists = [walk[0] for walk in walks]
        buffer_owners = [walk[1] for walk in walks]
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
            # entirely — the round's trained slices overwrite the client
            # models below, so the intermediate state is never observed.
            state = server.broadcast(group[0].client_id)
            sent = [state_dict_nbytes(state)] * cohort
            for client in group:
                client.model.train()
                client._round += 1
                rngs.append(derive_rng(client._seed, "round", client._round))
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
                rngs.append(derive_rng(client._seed, "round", client._round))
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

        config = group[0].config
        optimizer = group[0]._optimizer
        lr, momentum, weight_decay = (
            optimizer.lr,
            optimizer.momentum,
            optimizer.weight_decay,
        )
        velocities: List[np.ndarray] = []
        if momentum:
            for position in range(len(names)):
                slots = []
                for member_index, client in enumerate(group):
                    param = param_lists[member_index][position][1]
                    velocity = client._optimizer._velocity.get(id(param))
                    slots.append(
                        velocity if velocity is not None else np.zeros_like(param.data)
                    )
                velocities.append(np.stack(slots))

        datasets = [client.dataset for client in group]
        samples = len(datasets[0])
        input_shape = tuple(datasets[0].inputs.shape[1:])
        batch_size = config.batch_size
        epoch_losses: List[List[float]] = [[] for _ in group]
        stepped = False
        for _epoch in range(config.local_epochs):
            totals = [0.0] * cohort
            count = 0
            orders = [rng.permutation(samples) for rng in rngs]
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
                x = Tensor(batch_inputs)
                for step in plan:
                    x = step(x, params, buffers)
                loss_vec = _batched_cross_entropy(x, batch_labels)
                loss_vec.sum().backward()
                for position, leaf in enumerate(stacked):
                    grad = leaf.grad
                    if grad is None:
                        continue
                    if weight_decay:
                        grad = grad + weight_decay * leaf.data
                    if momentum:
                        velocity = momentum * velocities[position] - lr * grad
                        velocities[position] = velocity
                        leaf.data = leaf.data + velocity
                    else:
                        leaf.data = leaf.data - lr * grad
                stepped = True
                for k in range(cohort):
                    totals[k] += float(loss_vec.data[k]) * batch_len
                count += batch_len
            for k in range(cohort):
                epoch_losses[k].append(totals[k] / max(count, 1))

        # Unstack: each client's model adopts a view of its trained slice
        # (the stacked arrays are fresh this round and nothing mutates them
        # in place afterwards), while the update payload gets independent
        # copies, exactly like the sequential ``clone_state_dict`` path.
        # The update dict is built params-then-buffers in walk order — the
        # same key order ``Module.state_dict`` produces.
        updates: List[ClientUpdate] = []
        for member_index, client in enumerate(group):
            state: Dict[str, np.ndarray] = {}
            for position in range(len(names)):
                trained = stacked[position].data[member_index]
                param_lists[member_index][position][1].data = trained
                state[names[position]] = trained.copy()
            for name, (module, local) in buffer_owners[member_index]:
                module._set_buffer(local, buffers[name][member_index])
                state[name] = buffers[name][member_index].copy()
            if momentum and stepped:
                slots = client._optimizer._velocity
                for position in range(len(names)):
                    param = param_lists[member_index][position][1]
                    slots[id(param)] = velocities[position][member_index]
            updates.append(
                ClientUpdate(
                    client_id=client.client_id,
                    state=state,
                    num_samples=len(client.dataset),
                    train_loss=epoch_losses[member_index][-1],
                )
            )
        return updates, sent
