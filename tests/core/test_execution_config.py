"""The execution config's compatibility matrix, and every documented command.

``ExecutionConfig.validate`` rejects a knob set away from its default on a
path that never reads it.  Each rule gets one accepted and one rejected
example here, and every ``python -m repro.experiments`` command line in CI
and the README must build a valid config.
"""

import itertools
import re
import shlex
from pathlib import Path

import pytest

from repro.core.config import (
    ByzantineConfig,
    CheckpointConfig,
    EngineConfig,
    ExecutionConfig,
    FaultConfig,
    RetryBackoff,
    UnreadKnobError,
)
from repro.experiments.__main__ import parse_command_line
from repro.fl.executor import make_executor

ROOT = Path(__file__).resolve().parents[2]

#: One example per rule: (knob, rejected settings, accepted settings).
MATRIX = [
    ("num_workers", {"num_workers": 2}, {"backend": "process", "num_workers": 2}),
    ("round_timeout", {"round_timeout": 5.0}, {"backend": "process", "round_timeout": 5.0}),
    (
        "max_pool_respawns",
        {"backend": "batched", "max_pool_respawns": 0},
        {"backend": "process", "max_pool_respawns": 0},
    ),
    ("buffer_size", {"buffer_size": 7}, {"backend": "async", "buffer_size": 7}),
    (
        "concurrency",
        {"backend": "process", "concurrency": 2},
        {"backend": "async", "concurrency": 2},
    ),
    (
        "staleness_policy",
        {"staleness_policy": "constant"},
        {"backend": "async", "staleness_policy": "constant"},
    ),
    ("staleness_alpha", {"staleness_alpha": 3.0}, {"backend": "async", "staleness_alpha": 3.0}),
    ("staleness_budget", {"staleness_budget": 8}, {"backend": "async", "staleness_budget": 8}),
    ("screen_window", {"screen_window": 8}, {"backend": "async", "screen_window": 8}),
    ("client_latency", {"client_latency": 0.1}, {"backend": "async", "client_latency": 0.1}),
    (
        "topk_fraction",
        {"codec": "qsgd", "topk_fraction": 0.5},
        {"codec": "topk", "topk_fraction": 0.5},
    ),
    ("qsgd_levels", {"qsgd_levels": 8}, {"codec": "qsgd", "qsgd_levels": 8}),
    ("codec_seed", {"codec": "topk", "codec_seed": 3}, {"codec": "qsgd", "codec_seed": 3}),
    (
        "byzantine_config.attack",
        {"byzantine_config": ByzantineConfig(attack="sign_flip")},
        {"byzantine_config": ByzantineConfig(attack="sign_flip", clients=(0,))},
    ),
    (
        "byzantine_config.clients",
        {"byzantine_config": ByzantineConfig(clients=(0, 3))},
        {"byzantine_config": ByzantineConfig(attack="nan_bomb", clients=(0, 3))},
    ),
    (
        "trim_fraction",
        {"trim_fraction": 0.2},
        {"aggregator": "trimmed_mean", "trim_fraction": 0.2},
    ),
    ("krum_byzantine", {"krum_byzantine": 1}, {"aggregator": "krum", "krum_byzantine": 1}),
    (
        "gate_norm_multiplier",
        {"gate_norm_multiplier": 2.0},
        {"gate_aggregate": True, "gate_norm_multiplier": 2.0},
    ),
    (
        "checkpoint.every",
        {"checkpoint": CheckpointConfig(every=5)},
        {"checkpoint": CheckpointConfig(directory="ckpt", every=5)},
    ),
    (
        "checkpoint.keep",
        {"checkpoint": CheckpointConfig(keep=2)},
        {"checkpoint": CheckpointConfig(directory="ckpt", keep=2)},
    ),
]

#: Placeholder values of CI's matrix jobs, read from the workflow itself.
_MATRIX_AXIS = re.compile(r"^\s+([\w-]+): \[([^\]]*)\]$", re.M)
_PLACEHOLDER = re.compile(r"\$\{\{ matrix\.([\w-]+) \}\}")
_CLI = "python -m repro.experiments"


def _ci_command_lines():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    axes = {
        name: [value.strip().strip('"') for value in values.split(",")]
        for name, values in _MATRIX_AXIS.findall(text)
    }
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if _CLI not in line:
            continue
        indent = len(line) - len(line.lstrip())
        parts = [line.strip()]
        # A folded (>-) block continues at the same indentation.
        for follow in lines[index + 1 :]:
            if not follow.strip() or len(follow) - len(follow.lstrip()) != indent:
                break
            parts.append(follow.strip())
        command = " ".join(parts).split(_CLI, 1)[1]
        names = _PLACEHOLDER.findall(command)
        for values in itertools.product(*(axes[name] for name in names)):
            expanded = command
            for name, value in zip(names, values):
                expanded = expanded.replace(f"${{{{ matrix.{name} }}}}", value)
            yield expanded


def _readme_command_lines():
    fence, joined = None, ""
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
            continue
        if fence != "bash":
            continue
        joined += line.rstrip("\\")
        if line.endswith("\\"):
            continue
        if _CLI in joined:
            yield joined.split(_CLI, 1)[1]
        joined = ""


DOCUMENTED = [("ci.yml", line) for line in _ci_command_lines()] + [
    ("README.md", line) for line in _readme_command_lines()
]


class TestMatrix:
    @pytest.mark.parametrize(
        "knob, rejected, accepted", MATRIX, ids=[case[0] for case in MATRIX]
    )
    def test_rule(self, knob, rejected, accepted):
        ExecutionConfig(**accepted)
        with pytest.raises(UnreadKnobError) as info:
            ExecutionConfig(**rejected)
        assert info.value.knob == knob

    def test_every_rule_has_an_example(self):
        ruled = {knob for knobs, _, _ in ExecutionConfig.READ_BY for knob in knobs}
        assert ruled == {case[0] for case in MATRIX}

    def test_range_checks_run_before_the_matrix(self):
        # buffer_size is unread on the sequential backend, but out of range first.
        with pytest.raises(ValueError, match="buffer_size must be at least 1") as info:
            ExecutionConfig(buffer_size=0)
        assert not isinstance(info.value, UnreadKnobError)
        with pytest.raises(ValueError, match="fault rates must sum"):
            FaultConfig(crash_rate=0.6, transient_rate=0.6)
        with pytest.raises(ValueError, match="factor must be >= 1"):
            RetryBackoff(factor=0.5)


class TestEngineConfig:
    def test_make_executor_validates_through_the_engine_config(self):
        with pytest.raises(UnreadKnobError, match="client_latency"):
            make_executor("sequential", client_latency=0.1)
        assert make_executor("async", client_latency=0.1).config.client_latency == 0.1
        with pytest.raises(TypeError, match="aggregator"):
            make_executor("sequential", aggregator="median")

    def test_engines_read_their_defaults_from_the_config(self):
        executor = make_executor("async")
        defaults = EngineConfig()
        assert executor.buffer_size == defaults.buffer_size
        assert executor.config == EngineConfig(backend="async")
        assert executor.backoff == defaults.backoff

    def test_the_execution_config_builds_its_own_engine(self):
        from repro.experiments import common

        config = ExecutionConfig(backend="async", buffer_size=2, aggregator="median")
        previous = common.get_execution_config()
        common.set_execution_config(config)
        try:
            executor = common.build_executor()
        finally:
            common.set_execution_config(previous)
        assert executor.name == "async"
        assert executor.config == config


class TestDocumentedCommands:
    def test_commands_were_found(self):
        sources = [source for source, _ in DOCUMENTED]
        assert sources.count("ci.yml") >= 30
        assert sources.count("README.md") >= 15

    @pytest.mark.parametrize(
        "source, command", DOCUMENTED, ids=[f"{s}:{c}" for s, c in DOCUMENTED]
    )
    def test_command_builds_a_valid_config(self, source, command):
        args, config = parse_command_line(shlex.split(command, comments=True))
        assert isinstance(config, ExecutionConfig)
