"""Markdown report generation."""

import pytest

from repro.experiments import SMOKE
from repro.experiments.report import _markdown_table, _shape_section, generate_report
from repro.experiments.results import ExperimentResult


class TestMarkdownTable:
    def test_renders_headers_and_rows(self):
        result = ExperimentResult("x", "t", ["name", "value"])
        result.add_row(name="a", value=0.5)
        text = _markdown_table(result)
        lines = text.splitlines()
        assert lines[0] == "| name | value |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| a | 0.500 |"


class TestGenerateReport:
    def test_single_experiment_report(self):
        text = generate_report(["theorem1"], SMOKE)
        assert "# CIP reproduction report" in text
        assert "theorem1" in text
        assert "| guess |" in text

    def test_report_includes_shape_scoring_for_table10(self):
        import dataclasses

        # shape scoring needs a sweep of >= 2 alphas
        profile = dataclasses.replace(SMOKE, alphas=(0.1, 0.9))
        text = generate_report(["table10"], profile)
        assert "Shape agreement" in text
        assert "spearman" in text

    def test_one_alpha_table5_sweep_is_not_scored(self):
        # The smoke profile sweeps a single alpha: no rank correlation.
        result = ExperimentResult("table5", "t", ["dataset", "alpha_0", "alpha_0.5"])
        result.add_row(dataset="cifar100", alpha_0=0.30, **{"alpha_0.5": 0.28})
        assert "cifar100: n/a" in _shape_section(result)

    def test_cli_report_flag(self, tmp_path):
        from repro.experiments.__main__ import main

        path = str(tmp_path / "report.md")
        assert main(["theorem1", "--profile", "smoke", "--report", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert "reproduction report" in handle.read()
