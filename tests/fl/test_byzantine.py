"""Byzantine-robust federation, end to end.

The acceptance contract of the robustness layer:

* with 2 of 10 clients mounting sign-flip and boosted model-replacement
  attacks, plain FedAvg visibly degrades while trimmed-mean / median / Krum
  (and screening + FedAvg) stay within tolerance of the clean run;
* the attack schedule, the screening decisions, and the final global state
  are bit-identical across the sequential and process backends;
* a checkpointed Byzantine run resumes bit-identically — corruption and
  screening are stateless in the round index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ByzantineConfig, CheckpointConfig, ScreeningConfig
from repro.data.partition import partition_iid
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import ParallelExecutor, SequentialExecutor, make_executor
from repro.fl.malicious import ByzantineInjector
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

NUM_CLIENTS = 10
ROUNDS = 3
#: The demonstration adversary: one sign-flipper, one boosted replacer.
#: The boost must dwarf the honest learning signal on this easy, linearly
#: separable dataset for plain FedAvg to visibly lose accuracy.
ATTACK_PLAN = {0: "sign_flip", 1: "model_replacement"}
ATTACK_SCALE = 2000.0
#: Screening tuned for the drill: the sign-flipped delta has an honest
#: norm but cosine ~ -1 against the median delta, so the direction rule
#: carries it; the boosted replacement trips the norm rules.
SCREENING = ScreeningConfig(
    norm_multiplier=3.0, outlier_threshold=3.0, min_cosine=0.0
)


def _mlp_factory():
    return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)


def _build_clients(dataset, num_clients=NUM_CLIENTS):
    shards = partition_iid(dataset, num_clients, seed=0)
    return [
        FLClient(
            i, shards[i], _mlp_factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "byz", i),
        )
        for i in range(num_clients)
    ]


def _attack_injector(plan=None):
    return ByzantineInjector(
        ByzantineConfig(scale=ATTACK_SCALE, seed=5),
        plan=ATTACK_PLAN if plan is None else plan,
    )


def _run(dataset, *, executor=None, aggregator="fedavg", screening=None,
         rounds=ROUNDS, min_participation=1.0, aggregator_options=None):
    server = FLServer(
        _mlp_factory, aggregator=aggregator,
        aggregator_options=aggregator_options, screening=screening,
    )
    clients = _build_clients(dataset)
    if executor is None:
        executor = SequentialExecutor(min_participation=min_participation)
    with FederatedSimulation(
        server, clients, eval_dataset=dataset, eval_every=rounds,
        executor=executor,
    ) as sim:
        sim.run(rounds)
    return server.global_state(), sim.history


def _assert_states_equal(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


class TestEndToEndDefense:
    """The demonstration required by the issue: attacks break FedAvg, the
    defenses hold the line."""

    _clean_cache: dict = {}

    @pytest.fixture
    def clean_accuracy(self, tiny_vector_dataset):
        # The dataset fixture is seeded, so every test sees the identical
        # data; compute the clean baseline once per session.
        if "acc" not in self._clean_cache:
            _, history = _run(tiny_vector_dataset)
            self._clean_cache["acc"] = history.final_test_accuracy()
        return self._clean_cache["acc"]

    def test_plain_fedavg_degrades_under_attack(
        self, tiny_vector_dataset, clean_accuracy
    ):
        executor = SequentialExecutor(byzantine=_attack_injector())
        state, history = _run(tiny_vector_dataset, executor=executor)
        attacked = history.final_test_accuracy()
        # The boosted replacement plus a sign flip wreck the undefended
        # average: the model is visibly worse than clean.
        assert attacked < clean_accuracy - 0.1, (attacked, clean_accuracy)

    @pytest.mark.parametrize(
        "aggregator,options",
        [
            ("median", None),
            ("trimmed_mean", {"trim_fraction": 0.2}),
            ("krum", None),
        ],
    )
    def test_robust_aggregators_survive_attack(
        self, tiny_vector_dataset, clean_accuracy, aggregator, options
    ):
        executor = SequentialExecutor(byzantine=_attack_injector())
        state, history = _run(
            tiny_vector_dataset, executor=executor,
            aggregator=aggregator, aggregator_options=options,
        )
        defended = history.final_test_accuracy()
        assert np.isfinite(flat_norm(state))
        assert defended >= clean_accuracy - 0.1, (aggregator, defended, clean_accuracy)

    def test_screening_plus_fedavg_survives_attack(
        self, tiny_vector_dataset, clean_accuracy
    ):
        executor = SequentialExecutor(
            byzantine=_attack_injector(), min_participation=0.5
        )
        state, history = _run(
            tiny_vector_dataset, executor=executor,
            screening=SCREENING, min_participation=0.5,
        )
        defended = history.final_test_accuracy()
        assert defended >= clean_accuracy - 0.1, (defended, clean_accuracy)
        # Both attackers were quarantined every round and the telemetry
        # names them.
        assert history.rejected_client_rounds() == {0: ROUNDS, 1: ROUNDS}
        for metrics in history.round_metrics:
            assert set(metrics.rejected_clients) == {0, 1}
            assert set(metrics.anomaly_scores) == set(range(NUM_CLIENTS))

    def test_nan_bomb_poisons_fedavg_and_screening_blocks_it(
        self, tiny_vector_dataset
    ):
        injector = _attack_injector(plan={4: "nan_bomb"})
        state, _ = _run(
            tiny_vector_dataset,
            executor=SequentialExecutor(byzantine=injector),
        )
        assert not all(np.isfinite(v).all() for v in state.values())
        injector = _attack_injector(plan={4: "nan_bomb"})
        state, history = _run(
            tiny_vector_dataset,
            executor=SequentialExecutor(byzantine=injector, min_participation=0.5),
            screening=SCREENING,
        )
        assert all(np.isfinite(v).all() for v in state.values())
        assert history.round_metrics[0].rejected_clients == {4: "non_finite"}


def flat_norm(state):
    return float(
        np.linalg.norm(np.concatenate([v.ravel() for v in state.values()]))
    )


class TestBackendBitIdentity:
    def test_sequential_and_process_agree_under_attack(self, tiny_vector_dataset):
        seq_state, seq_history = _run(
            tiny_vector_dataset,
            executor=SequentialExecutor(
                byzantine=_attack_injector(), min_participation=0.5
            ),
            screening=SCREENING,
            aggregator="trimmed_mean",
            aggregator_options={"trim_fraction": 0.2},
        )
        par_state, par_history = _run(
            tiny_vector_dataset,
            executor=ParallelExecutor(
                num_workers=2, byzantine=_attack_injector(), min_participation=0.5
            ),
            screening=SCREENING,
            aggregator="trimmed_mean",
            aggregator_options={"trim_fraction": 0.2},
        )
        _assert_states_equal(seq_state, par_state)
        assert seq_history.train_losses == par_history.train_losses
        # Identical rejection decisions, scores included, every round.
        for seq_round, par_round in zip(
            seq_history.round_metrics, par_history.round_metrics
        ):
            assert seq_round.rejected_clients == par_round.rejected_clients
            assert seq_round.anomaly_scores == par_round.anomaly_scores

    def test_make_executor_threads_byzantine_config(self):
        config = ByzantineConfig(attack="sign_flip", clients=(0, 1))
        executor = make_executor("sequential", byzantine_config=config)
        assert executor.byzantine is not None
        assert executor.byzantine.attack_kind(0, 0) == "sign_flip"
        assert executor.byzantine.attack_kind(0, 2) == "none"
        # Disabled configs build no injector.
        assert (
            make_executor("sequential", byzantine_config=ByzantineConfig()).byzantine
            is None
        )


class TestCheckpointResumeWithByzantine:
    def _build_sim(self, dataset, directory=None, every=0):
        server = FLServer(
            _mlp_factory, aggregator="median", screening=SCREENING
        )
        clients = _build_clients(dataset)
        executor = SequentialExecutor(
            byzantine=_attack_injector(), min_participation=0.5
        )
        checkpoint = (
            CheckpointConfig(directory=directory, every=every) if directory else None
        )
        return FederatedSimulation(
            server, clients, eval_dataset=dataset, eval_every=2,
            executor=executor, checkpoint=checkpoint,
        )

    def test_resume_reproduces_attacked_run_bitwise(
        self, tiny_vector_dataset, tmp_path
    ):
        reference = self._build_sim(tiny_vector_dataset)
        reference.run(4)

        directory = str(tmp_path / "byz_ckpts")
        interrupted = self._build_sim(tiny_vector_dataset, directory, every=2)
        interrupted.run(2)

        resumed = self._build_sim(tiny_vector_dataset, directory, every=2)
        resumed.resume(4)

        assert resumed.server.round == 4
        assert resumed.history.train_losses == reference.history.train_losses
        assert resumed.history.test_accuracy == reference.history.test_accuracy
        _assert_states_equal(
            resumed.server.global_state(), reference.server.global_state()
        )
        # The resumed half re-derives the same quarantine decisions.
        for ref_round, res_round in zip(
            reference.history.round_metrics[2:], resumed.history.round_metrics
        ):
            assert ref_round.rejected_clients == res_round.rejected_clients
