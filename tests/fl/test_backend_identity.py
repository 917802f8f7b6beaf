"""The float64 NumPy kernels across the federated stack.

Pins the headline guarantees at the system level:

* **Pinned digest** — a fixed-seed 2-round FedAvg+CIP simulation produces
  the byte-identical final global ``state_dict`` it produced before the
  kernels moved into ``repro.nn.backend``.  If this digest moves, the
  "NumPy kernels are bitwise-identical" contract is broken (or the
  model/data/seed derivations changed — regenerate only after ruling that
  out).
* **Executor equivalence** — sequential, process-pool and batched
  execution stay bit-identical to each other.
* **Checkpoint compatibility** — a payload that earlier builds wrote under
  a compute dtype other than float64, or under an nn backend other than
  ``numpy``, fails loudly; a matched restore stays bit-identical, and
  checkpoints without that metadata load.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.cip_client import CIPClient
from repro.core.config import CheckpointConfig, CIPConfig
from repro.data.partition import partition_iid
from repro.data.synthetic import (
    ImageSpec,
    TabularSpec,
    generate_image_dataset,
    generate_tabular_dataset,
)
from repro.fl.batched import BatchedExecutor
from repro.fl.checkpoint import latest_checkpoint, load_checkpoint
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import ParallelExecutor, SequentialExecutor
from repro.fl.registry import ClientRegistry, LRUStateStore
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng

#: Final-global-state digest of the reference simulation below, computed on
#: the tree before the kernel module existed.  It must be reproduced byte
#: for byte.
PINNED_DIGEST = "20467a59840fdafe72fa3bdaaaa4005994cc983e212096645c74aa5654df7676"

_SPEC = ImageSpec(num_classes=3, channels=1, height=8, width=8, noise_scale=0.1)


def _state_dict_digest(state):
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _conv_factory(seed=1234):
    return build_model(
        "vgg", _SPEC.num_classes, dual_channel=True, in_channels=_SPEC.channels,
        stage_channels=(4,), convs_per_stage=1, seed=derive_rng(seed, "digest-m"),
    )


def _run_reference_simulation(executor=None, seed=1234):
    """The exact fixed-seed 2-round FedAvg+CIP run the digest was taken from."""
    dataset = generate_image_dataset(_SPEC, samples_per_class=6, seed=seed)
    shards = partition_iid(dataset, 3, seed=derive_rng(seed, "digest-p"))

    def factory():
        return _conv_factory(seed)

    server = FLServer(factory)
    cip = CIPConfig(alpha=0.5, perturbation_steps=1)
    clients = [
        CIPClient(
            i, shards[i], factory, cip_config=cip,
            config=ClientConfig(lr=5e-2, batch_size=6, local_epochs=1),
            seed=derive_rng(seed, "digest-c", i),
        )
        for i in range(3)
    ]
    with FederatedSimulation(server, clients, executor=executor) as sim:
        sim.run(2)
    return server.global_state()


class TestPinnedDigest:
    def test_default_backend_reproduces_the_pre_refactor_digest(self):
        state = _run_reference_simulation()
        assert _state_dict_digest(state) == PINNED_DIGEST

    def test_batched_executor_reproduces_the_pinned_digest(self):
        # The reference model has BatchNorm, which stacked CIP does not
        # lower (Step I runs the model in eval mode), so the batched
        # executor routes these CIP clients through its per-client fallback
        # and must still land on the pinned bytes.
        state = _run_reference_simulation(BatchedExecutor())
        assert _state_dict_digest(state) == PINNED_DIGEST


def _run_plain_conv_federation(executor=None, seed=4321):
    """A genuinely batchable federation: plain FLClients, shared config."""
    dataset = generate_image_dataset(_SPEC, samples_per_class=6, seed=seed)
    shards = partition_iid(dataset, 3, seed=derive_rng(seed, "plain-p"))

    def factory():
        return build_model(
            "vgg", _SPEC.num_classes, in_channels=_SPEC.channels,
            stage_channels=(4,), convs_per_stage=1,
            seed=derive_rng(seed, "plain-m"),
        )

    server = FLServer(factory)
    clients = [
        FLClient(
            i, shards[i], factory,
            config=ClientConfig(
                lr=5e-2, momentum=0.9, weight_decay=1e-4,
                batch_size=6, local_epochs=2,
            ),
            seed=derive_rng(seed, "plain-c", i),
        )
        for i in range(3)
    ]
    with FederatedSimulation(server, clients, executor=executor) as sim:
        history = sim.run(2)
    return server.global_state(), history.train_losses


class TestExecutorEquivalenceUnderBackends:
    def test_sequential_matches_process_bitwise(self):
        seq_state = _run_reference_simulation(SequentialExecutor())
        par_state = _run_reference_simulation(ParallelExecutor(num_workers=2))
        assert seq_state.keys() == par_state.keys()
        for key in seq_state:
            assert seq_state[key].dtype == par_state[key].dtype, key
            assert np.array_equal(seq_state[key], par_state[key]), key

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_sequential_matches_batched_bitwise(self, dtype):
        # Unlike the CIP reference run (which exercises the fallback), this
        # federation actually stacks: identical architectures and
        # hyperparameters across all three clients.
        seq_state, seq_losses = _run_plain_conv_federation(SequentialExecutor())
        bat_state, bat_losses = _run_plain_conv_federation(BatchedExecutor())
        assert seq_losses == bat_losses  # per-round mean train losses
        assert seq_state.keys() == bat_state.keys()
        for key in seq_state:
            assert seq_state[key].dtype == bat_state[key].dtype == dtype, key
            assert np.array_equal(seq_state[key], bat_state[key]), key


_TABULAR = TabularSpec(num_classes=4, num_features=10, flip_probability=0.1)


def _cip_mlp_factory(seed=2024):
    return build_model(
        "mlp", _TABULAR.num_classes, dual_channel=True,
        in_features=_TABULAR.num_features, hidden=(8, 6),
        seed=derive_rng(seed, "cip-mlp"),
    )


def _cip_mlp_client(cid, shard, cip, seed=2024, local_epochs=2):
    # Batches of 5 over 12-sample shards end every epoch on a partial batch.
    return CIPClient(
        cid, shard, _cip_mlp_factory, cip_config=cip,
        config=ClientConfig(lr=5e-2, batch_size=5, local_epochs=local_epochs),
        seed=derive_rng(seed, "cip-c", cid),
    )


class _RecordingBatchedExecutor(BatchedExecutor):
    """Records the client ids of every group it trains stacked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stacked = []

    def _train_group(self, group, plan, server):
        self.stacked.append(sorted(client.client_id for client in group))
        return super()._train_group(group, plan, server)


def _assert_bitwise(a, b, where="state"):
    """Recursive equality: arrays by dtype, shape and bytes, generators by
    state, tensors by data (``grad`` is scratch that every step clears
    first), any other object attribute by attribute."""
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_bitwise(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for index, (x, y) in enumerate(zip(a, b)):
            _assert_bitwise(x, y, f"{where}[{index}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert np.array_equal(a, b), where
    elif isinstance(a, np.random.Generator):
        assert a.bit_generator.state == b.bit_generator.state, where
    elif isinstance(a, Tensor):
        _assert_bitwise(a.data, b.data, f"{where}.data")
    elif hasattr(a, "__dict__"):
        _assert_bitwise(vars(a), vars(b), where)
    else:
        assert a == b, where


_CIP_SWEEP = {
    "no-step-I": CIPConfig(lambda_t=1e-3, lambda_m=1e-6, perturbation_steps=0),
    "lambda-m-0-unclipped": CIPConfig(
        lambda_t=1e-3, lambda_m=0.0, perturbation_steps=1, clip_range=None
    ),
    "two-steps-capped": CIPConfig(
        alpha=0.9, lambda_t=1e-3, lambda_m=0.5, perturbation_steps=2,
        original_loss_cap=1.0,
    ),
    "uncapped-unclipped": CIPConfig(
        lambda_t=1e-3, lambda_m=0.3, perturbation_steps=1, clip_range=None
    ),
}


class TestStackedCIP:
    """CIP clients of one configuration train as one stacked group on the
    batched engine, bitwise equal to the sequential per-client path: the
    global state, every round's train losses, and each client's whole
    mutable state (``t``, the perturbation optimizer, the momentum slots,
    the RNG stream).  Every test also asserts that the group really
    stacked, so a silent per-client fallback cannot pass.  The live runs
    add the process engine and compare every attribute of each
    coordinator-side client, so a field that a worker trains and does not
    send back fails by name."""

    @staticmethod
    def _run_live(executor, cip):
        dataset = generate_tabular_dataset(_TABULAR, 9, 2024, "train")
        shards = partition_iid(dataset, 3, seed=derive_rng(2024, "cip-p"))
        clients = [_cip_mlp_client(i, shards[i], cip) for i in range(3)]
        server = FLServer(_cip_mlp_factory)
        with FederatedSimulation(server, clients, executor=executor) as sim:
            history = sim.run(2)
        return server.global_state(), history.train_losses, clients

    @pytest.mark.parametrize("dtype", ["float64"])
    @pytest.mark.parametrize("cip", _CIP_SWEEP.values(), ids=_CIP_SWEEP.keys())
    def test_batched_matches_sequential_bitwise(self, dtype, cip):
        batched = _RecordingBatchedExecutor()
        seq_state, seq_losses, seq_clients = self._run_live(SequentialExecutor(), cip)
        assert all(value.dtype == dtype for value in seq_state.values())
        for name, executor in (
            ("batched", batched), ("process", ParallelExecutor(num_workers=2))
        ):
            state, losses, clients = self._run_live(executor, cip)
            _assert_bitwise(seq_state, state, f"{name}.global")
            assert seq_losses == losses, name
            _assert_bitwise(seq_clients, clients, f"{name}.clients")
        assert batched.stacked == [[0, 1, 2]] * 2

    @staticmethod
    def _run_cohort(executor, spill_dir):
        cip = CIPConfig(lambda_t=1e-3, lambda_m=1e-2, perturbation_steps=1)
        dataset = generate_tabular_dataset(_TABULAR, 30, 2024, "train")
        shards = partition_iid(dataset, 10, seed=derive_rng(2024, "cip-v"))

        def factory(cid):
            return _cip_mlp_client(cid, shards[cid], cip, local_epochs=1)

        # A store below the cohort: every round spills and rehydrates states.
        store = LRUStateStore(capacity=2, spill_dir=str(spill_dir))
        registry = ClientRegistry(factory, population=10, store=store)
        server = FLServer(_cip_mlp_factory)
        with FederatedSimulation(
            server, registry=registry, executor=executor,
            clients_per_round=6, sampling_seed=3,
        ) as sim:
            history = sim.run(3)
        states = {cid: vars(state) for cid, state in store.snapshot_all().items()}
        registry.close()
        return server.global_state(), history.train_losses, states

    @pytest.mark.parametrize("dtype", ["float64"])
    def test_virtual_topk_cohort_matches_sequential_bitwise(self, dtype, tmp_path):
        codec = {"codec": "topk", "topk_fraction": 0.1}
        batched = _RecordingBatchedExecutor(**codec)
        seq = self._run_cohort(SequentialExecutor(**codec), tmp_path / "sequential")
        bat = self._run_cohort(batched, tmp_path / "batched")
        assert all(value.dtype == dtype for value in seq[0].values())
        assert len(batched.stacked) == 3
        assert all(len(group) == 6 for group in batched.stacked)
        _assert_bitwise(seq[0], bat[0], "global")
        assert seq[1] == bat[1]
        _assert_bitwise(seq[2], bat[2], "clients")


def _build_checkpointed_sim(dataset, directory, every=1):
    def factory():
        return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)

    shards = partition_iid(dataset, 2, seed=0)
    server = FLServer(factory)
    clients = [
        FLClient(
            i, shards[i], factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "bi", i),
        )
        for i in range(2)
    ]
    return FederatedSimulation(
        server, clients,
        checkpoint=CheckpointConfig(directory=directory, every=every),
    )


def _rewrite_latest(directory, **changes):
    """Edit the newest checkpoint's payload by hand (``None`` drops a key).

    The file is rewritten headerless, exactly as pre-digest builds wrote it.
    """
    path = latest_checkpoint(directory)
    payload = load_checkpoint(path)
    for key, value in changes.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


class TestCheckpointBackendCompatibility:
    @pytest.mark.parametrize(
        "changes",
        [{"nn_backend": "accelerated"}, {"compute_dtype": "float32"}],
        ids=["accelerated-backend", "float32-payload"],
    )
    def test_mismatched_backend_or_dtype_refuses_restore(
        self, tiny_vector_dataset, tmp_path, changes
    ):
        directory = str(tmp_path / "ckpt")
        _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)
        _rewrite_latest(directory, **changes)
        fresh = _build_checkpointed_sim(tiny_vector_dataset, directory)
        with pytest.raises(ValueError, match="incompatible checkpoint"):
            fresh.resume(3)

    def test_matched_restore_is_bit_identical(self, tiny_vector_dataset, tmp_path):
        reference = _build_checkpointed_sim(tiny_vector_dataset, str(tmp_path / "a"))
        reference.run(4)

        directory = str(tmp_path / "b")
        _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)
        resumed = _build_checkpointed_sim(tiny_vector_dataset, directory)
        resumed.resume(4)

        ref_state = reference.server.global_state()
        res_state = resumed.server.global_state()
        for key in ref_state:
            assert np.array_equal(ref_state[key], res_state[key]), key

    def test_pre_backend_checkpoint_loads_under_defaults(
        self, tiny_vector_dataset, tmp_path
    ):
        # A payload that names neither an nn backend nor a compute dtype was
        # written by the numpy/float64 reference path.
        directory = str(tmp_path / "legacy")
        _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)
        _rewrite_latest(directory, nn_backend=None, compute_dtype=None)

        resumed = _build_checkpointed_sim(tiny_vector_dataset, directory)
        resumed.resume(3)
        assert resumed.server.round == 3

    def test_numpy_backend_payload_loads(self, tiny_vector_dataset, tmp_path):
        # Earlier builds wrote the backend's name; "numpy" is still ours.
        directory = str(tmp_path / "numpy")
        _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)
        _rewrite_latest(directory, nn_backend="numpy")

        resumed = _build_checkpointed_sim(tiny_vector_dataset, directory)
        resumed.resume(3)
        assert resumed.server.round == 3
