"""Experiment registry and result formatting."""

import pytest

from repro.experiments import (
    ExperimentResult,
    format_table,
    get_experiment,
    get_profile,
    list_experiments,
    run_experiment,
)
from repro.experiments.registry import register


EXPECTED_IDS = {
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "knowledge3",
    "theorem1",
    "memguard_fl",
    "ablation_dual_channel",
    "ablation_lambda_m",
    "ablation_shared_t",
}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = {spec.experiment_id for spec in list_experiments()}
        assert EXPECTED_IDS <= ids

    def test_specs_carry_paper_references(self):
        for spec in list_experiments():
            assert spec.paper_reference
            assert spec.title

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register("table1", "dup", "dup")(lambda profile: None)

    def test_profiles(self):
        assert get_profile("quick").name == "quick"
        assert get_profile("smoke").fl_rounds < get_profile("full").fl_rounds
        with pytest.raises(ValueError):
            get_profile("turbo")

    def test_profile_epochs_scaling(self):
        profile = get_profile("smoke")
        assert profile.epochs(20) == max(1, round(20 * profile.epochs_scale))
        assert profile.epochs(1) >= 1


class TestResults:
    def test_add_row_and_column(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(a=1, b=2.5)
        result.add_row(a=3, b=4.5)
        assert result.column("b") == [2.5, 4.5]

    def test_format_table_contains_everything(self):
        result = ExperimentResult("fig0", "demo", ["name", "value"])
        result.add_row(name="alpha", value=0.123456)
        result.add_note("a note")
        text = format_table(result)
        assert "fig0" in text
        assert "alpha" in text
        assert "0.123" in text
        assert "a note" in text

    def test_format_empty_table(self):
        result = ExperimentResult("e", "empty", ["col"])
        assert "col" in format_table(result)
