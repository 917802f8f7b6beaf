"""The `python -m repro.experiments` command-line runner."""

import itertools
from dataclasses import asdict

import pytest

from repro.core.config import ExecutionConfig
from repro.experiments.__main__ import build_parser, main, parse_command_line
from repro.experiments.common import get_execution_config, set_execution_config
from repro.nn.backend import active_compute_dtype

#: Every option of the parser: (strings, dest, default, type, choices, action).
CLI_SURFACE = [
    (('-h', '--help'), 'help', '==SUPPRESS==', None, None, '_HelpAction'),
    (('experiments',), 'experiments', None, None, None, '_StoreAction'),
    (('--profile',), 'profile', 'quick', None, ('smoke', 'quick', 'full'), '_StoreAction'),
    (('--all',), 'all', False, None, None, '_StoreTrueAction'),
    (('--list',), 'list', False, None, None, '_StoreTrueAction'),
    (('--report',), 'report', None, None, None, '_StoreAction'),
    (('--verbose',), 'verbose', False, None, None, '_StoreTrueAction'),
    (('--backend',), 'backend', 'sequential', None,
     ('sequential', 'process', 'batched', 'async'), '_StoreAction'),
    (('--num-workers',), 'num_workers', None, 'int', None, '_StoreAction'),
    (('--compute-dtype',), 'compute_dtype', 'float64', None,
     ('float64', 'float32'), '_StoreAction'),
    (('--nn-debug',), 'nn_debug', False, None, None, '_StoreTrueAction'),
    (('--profile-ops',), 'profile_ops', False, None, None, '_StoreTrueAction'),
    (('--max-retries',), 'max_retries', 0, 'int', None, '_StoreAction'),
    (('--client-timeout',), 'client_timeout', None, 'float', None, '_StoreAction'),
    (('--min-participation',), 'min_participation', 1.0, 'float', None, '_StoreAction'),
    (('--inject-faults',), 'inject_faults', None, None, None, '_StoreAction'),
    (('--fault-seed',), 'fault_seed', 0, 'int', None, '_StoreAction'),
    (('--chaos-wire',), 'chaos_wire', 0.0, 'float', None, '_StoreAction'),
    (('--chaos-checkpoint',), 'chaos_checkpoint', 0.0, 'float', None, '_StoreAction'),
    (('--gate-aggregate',), 'gate_aggregate', False, None, None, '_StoreTrueAction'),
    (('--gate-norm-multiplier',), 'gate_norm_multiplier', 10.0, 'float', None, '_StoreAction'),
    (('--checkpoint-dir',), 'checkpoint_dir', None, None, None, '_StoreAction'),
    (('--checkpoint-every',), 'checkpoint_every', 1, 'int', None, '_StoreAction'),
    (('--checkpoint-keep',), 'checkpoint_keep', 3, 'int', None, '_StoreAction'),
    (('--buffer-size',), 'buffer_size', 4, 'int', None, '_StoreAction'),
    (('--concurrency',), 'concurrency', None, 'int', None, '_StoreAction'),
    (('--staleness-policy',), 'staleness_policy', 'polynomial', None,
     ('constant', 'polynomial'), '_StoreAction'),
    (('--staleness-alpha',), 'staleness_alpha', 0.5, 'float', None, '_StoreAction'),
    (('--staleness-budget',), 'staleness_budget', None, 'int', None, '_StoreAction'),
    (('--screen-window',), 'screen_window', 16, 'int', None, '_StoreAction'),
    (('--client-latency',), 'client_latency', 1.0, 'float', None, '_StoreAction'),
    (('--jitter-scale',), 'jitter_scale', 0.0, 'float', None, '_StoreAction'),
    (('--jitter-sigma',), 'jitter_sigma', 0.75, 'float', None, '_StoreAction'),
    (('--codec',), 'codec', 'none', None, ('none', 'topk', 'qsgd'), '_StoreAction'),
    (('--topk-fraction',), 'topk_fraction', 0.05, 'float', None, '_StoreAction'),
    (('--qsgd-levels',), 'qsgd_levels', 16, 'int', None, '_StoreAction'),
    (('--population',), 'population', None, 'int', None, '_StoreAction'),
    (('--cohort-fraction',), 'cohort_fraction', None, 'float', None, '_StoreAction'),
    (('--state-store',), 'state_store', 'memory', None, ('memory', 'lru'), '_StoreAction'),
    (('--state-cache-size',), 'state_cache_size', 64, 'int', None, '_StoreAction'),
    (('--aggregator',), 'aggregator', 'fedavg', None,
     ('fedavg', 'median', 'trimmed_mean', 'krum'), '_StoreAction'),
    (('--trim-fraction',), 'trim_fraction', 0.1, 'float', None, '_StoreAction'),
    (('--krum-byzantine',), 'krum_byzantine', None, 'int', None, '_StoreAction'),
    (('--screen-updates',), 'screen_updates', False, None, None, '_StoreTrueAction'),
    (('--byzantine-clients',), 'byzantine_clients', None, None, None, '_StoreAction'),
    (('--byzantine-attack',), 'byzantine_attack', 'none', None,
     ('none', 'sign_flip', 'model_replacement', 'gaussian_noise', 'nan_bomb'),
     '_StoreAction'),
    (('--byzantine-scale',), 'byzantine_scale', 10.0, 'float', None, '_StoreAction'),
    (('--byzantine-seed',), 'byzantine_seed', 0, 'int', None, '_StoreAction'),
]

#: Every field of the config a command line without execution flags builds.
DEFAULT_CONFIG = {
    "backend": "sequential",
    "num_workers": None,
    "round_timeout": None,
    "max_pool_respawns": 2,
    "max_retries": 0,
    "backoff": {"base_seconds": 0.05, "factor": 2.0, "max_seconds": 5.0},
    "client_timeout": None,
    "min_participation": 1.0,
    "fault_config": {
        "crash_rate": 0.0,
        "transient_rate": 0.0,
        "straggler_rate": 0.0,
        "straggler_delay_seconds": 0.0,
        "worker_death_rate": 0.0,
        "jitter_scale": 0.0,
        "jitter_sigma": 0.75,
        "wire_corrupt_rate": 0.0,
        "checkpoint_corrupt_rate": 0.0,
        "seed": 0,
    },
    "byzantine_config": {
        "attack": "none",
        "clients": (),
        "scale": 10.0,
        "noise_std": 1.0,
        "start_round": 0,
        "seed": 0,
    },
    "screening": None,
    "buffer_size": 4,
    "concurrency": None,
    "staleness_policy": "polynomial",
    "staleness_alpha": 0.5,
    "staleness_budget": None,
    "screen_window": 16,
    "client_latency": 1.0,
    "codec": "none",
    "topk_fraction": 0.05,
    "qsgd_levels": 16,
    "codec_seed": 0,
    "compute_dtype": "float64",
    "nn_debug": False,
    "profile_ops": False,
    "aggregator": "fedavg",
    "trim_fraction": 0.1,
    "krum_byzantine": None,
    "gate_aggregate": False,
    "gate_norm_multiplier": 10.0,
    "checkpoint": {"directory": None, "every": 1, "keep": 3},
    "population": None,
    "cohort_fraction": None,
    "state_store": "memory",
    "state_cache_size": 64,
}


def _surface(parser):
    return {
        tuple(action.option_strings) or (action.dest,): (
            action.dest,
            action.default,
            None if action.type is None else action.type.__name__,
            None if action.choices is None else tuple(action.choices),
            type(action).__name__,
        )
        for action in parser._actions
    }


def _config_fields(argv):
    _, config = parse_command_line(argv)
    return asdict(config)


@pytest.fixture(autouse=True)
def restore_execution_config():
    previous = get_execution_config()
    yield
    set_execution_config(previous)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.profile == "quick"
        assert not args.all
        assert args.experiments == []

    def test_experiment_ids(self):
        args = build_parser().parse_args(["table5", "fig8", "--profile", "smoke"])
        assert args.experiments == ["table5", "fig8"]
        assert args.profile == "smoke"

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--profile", "turbo"])

    def test_surface_is_pinned(self):
        assert _surface(build_parser()) == {row[0]: row[1:] for row in CLI_SURFACE}

    def test_no_flags_build_the_default_config(self):
        assert _config_fields(["table1"]) == DEFAULT_CONFIG
        assert asdict(ExecutionConfig()) == DEFAULT_CONFIG


class TestSetExecutionConfig:
    def test_default_config_restores_the_float64_policy(self):
        set_execution_config(ExecutionConfig(compute_dtype="float32"))
        assert active_compute_dtype() == "float32"
        set_execution_config(ExecutionConfig())
        assert active_compute_dtype() == "float64"


class TestCIConfigs:
    """The configs CI's smoke command lines build, field by field."""

    def test_async_smoke(self):
        fields = _config_fields(
            "fig7 --profile smoke --backend async --buffer-size 2 "
            "--inject-faults 0.0,0.1,0.3,0.2 --jitter-scale 0.1 "
            "--max-retries 2 --min-participation 0.25 "
            "--byzantine-attack sign_flip --byzantine-clients 1".split()
        )
        assert fields == {
            **DEFAULT_CONFIG,
            "backend": "async",
            "buffer_size": 2,
            "max_retries": 2,
            "min_participation": 0.25,
            "fault_config": {
                **DEFAULT_CONFIG["fault_config"],
                "transient_rate": 0.1,
                "straggler_rate": 0.3,
                "straggler_delay_seconds": 0.2,
                "jitter_scale": 0.1,
            },
            "byzantine_config": {
                **DEFAULT_CONFIG["byzantine_config"],
                "attack": "sign_flip",
                "clients": (1,),
            },
        }

    @pytest.mark.parametrize(
        "attack, aggregator",
        itertools.product(
            ("sign_flip", "model_replacement", "gaussian_noise", "nan_bomb"),
            ("fedavg", "median", "trimmed_mean", "krum"),
        ),
    )
    def test_byzantine_smoke(self, attack, aggregator):
        fields = _config_fields(
            f"table1 --profile smoke --backend process --num-workers 2 "
            f"--aggregator {aggregator} --byzantine-attack {attack} "
            f"--byzantine-clients 0 --screen-updates --min-participation 0.5".split()
        )
        assert fields == {
            **DEFAULT_CONFIG,
            "backend": "process",
            "num_workers": 2,
            "aggregator": aggregator,
            "min_participation": 0.5,
            "byzantine_config": {
                **DEFAULT_CONFIG["byzantine_config"],
                "attack": attack,
                "clients": (0,),
            },
            "screening": {
                "max_delta_norm": None,
                "norm_multiplier": 4.0,
                "outlier_threshold": 4.0,
                "min_cosine": None,
                "min_updates": 3,
            },
        }


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "Figure 8" in out

    def test_no_args_is_an_error(self, capsys):
        assert main([]) == 2

    def test_runs_one_experiment_at_smoke(self, capsys):
        assert main(["theorem1", "--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "theorem1" in out
        assert "completed in" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["table99", "--profile", "smoke"])

    def test_unread_knob_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table1", "--profile", "smoke", "--buffer-size", "7"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--buffer-size" in err and "--backend async" in err

    def test_checkpoint_rot_smoke_keeps_one_chain_per_federation(
        self, tmp_path, capsys
    ):
        # CI's chaos-matrix step at fault seed 3: with one shared directory,
        # keep=2 pruned a later federation's round-1 file before the
        # checkpoint-rot channel opened it.
        directory = tmp_path / "chaos-ckpt"
        argv = [
            "table1", "--profile", "smoke", "--chaos-checkpoint", "0.5",
            "--checkpoint-dir", str(directory), "--checkpoint-keep", "2",
            "--gate-aggregate", "--fault-seed", "3",
        ]
        assert main(argv) == 0
        chains = sorted(path.name for path in directory.iterdir())
        assert chains == ["federation_000", "federation_001", "federation_002"]
        for chain in directory.iterdir():
            assert 1 <= len(list(chain.glob("round_*.ckpt"))) <= 2
