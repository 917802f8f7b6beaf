"""Markdown report generation for reproduction runs.

:func:`generate_report` runs a set of registered experiments and renders a
single markdown document: one section per experiment with its result table
and, where the paper's reference data covers the same sweep
(:mod:`repro.analysis.paper_reference`), a shape-agreement verdict.

Used by ``python -m repro.experiments --report`` and by downstream users who
want a one-command artifact of their own runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis import compare_sweeps, paper_reference as ref
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.registry import get_experiment, list_experiments, run_experiment
from repro.experiments.results import ExperimentResult


def _markdown_table(result: ExperimentResult) -> str:
    headers = list(result.columns)
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in result.rows:
        cells = []
        for column in headers:
            value = row.get(column, "")
            cells.append(f"{value:.3f}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _shape_section(result: ExperimentResult) -> Optional[str]:
    """Shape-agreement paragraph for experiments with paper reference sweeps."""
    scorers = {
        "table5": _score_table5,
        "table6": _score_table6,
        "table10": _score_table10,
    }
    scorer = scorers.get(result.experiment_id)
    if scorer is None:
        return None
    lines = scorer(result)
    if not lines:
        return None
    return "Shape agreement vs the paper:\n\n" + "\n".join(f"* {line}" for line in lines)


#: The verdict on a sweep of one point: rank correlation needs two.
_ONE_POINT = "n/a (a one-point sweep has no shape to compare)"


def _sweep_lines(
    result: ExperimentResult,
    value_column: str,
    published_by_dataset,
    key_column: str = "alpha",
) -> List[str]:
    lines = []
    for dataset in sorted({row["dataset"] for row in result.rows}):
        rows = sorted(
            (r for r in result.rows if r["dataset"] == dataset),
            key=lambda r: r[key_column],
        )
        if len(rows) < 2:
            lines.append(f"{dataset}: {_ONE_POINT}")
            continue
        measured = [r[value_column] for r in rows]
        paper_row = published_by_dataset[dataset]
        published = [
            paper_row[min(paper_row, key=lambda k: abs(k - r[key_column]))] for r in rows
        ]
        report = compare_sweeps(measured, published, trend_tolerance=0.02)
        verdict = "OK" if report.agrees else "DEV"
        lines.append(
            f"{dataset}: spearman {report.spearman:+.2f}, "
            f"trend {'matches' if report.trend_match else 'differs'}, "
            f"ordering {report.ordering:.2f} -> {verdict}"
        )
    return lines


def _score_table5(result: ExperimentResult) -> List[str]:
    lines = []
    for row in result.rows:
        dataset = row["dataset"]
        alphas = sorted(
            float(c.split("_", 1)[1]) for c in row if c.startswith("alpha_") and c != "alpha_0"
        )
        if len(alphas) < 2:
            lines.append(f"{dataset}: {_ONE_POINT}")
            continue
        measured = [row[f"alpha_{a}"] for a in alphas]
        paper_row = ref.TABLE5_ACCURACY[dataset]
        published = [paper_row[min((k for k in paper_row if k > 0), key=lambda k: abs(k - a))] for a in alphas]
        report = compare_sweeps(measured, published, trend_tolerance=0.02)
        verdict = "OK" if report.agrees else "DEV"
        lines.append(
            f"{dataset}: spearman {report.spearman:+.2f}, ordering {report.ordering:.2f} -> {verdict}"
        )
    return lines


def _score_table6(result: ExperimentResult) -> List[str]:
    published = {d: {a: v[1] for a, v in row.items()} for d, row in ref.TABLE6_OPT1.items()}
    return _sweep_lines(result, "external_acc", published)


def _score_table10(result: ExperimentResult) -> List[str]:
    return _sweep_lines(result, "attack_acc", ref.TABLE10_INVERSE)


def generate_report(
    experiment_ids: Optional[Sequence[str]] = None,
    profile: Profile = QUICK,
) -> str:
    """Run experiments and render one markdown report."""
    ids = list(experiment_ids) if experiment_ids else [
        spec.experiment_id for spec in list_experiments()
    ]
    sections = [
        "# CIP reproduction report",
        "",
        f"Profile: `{profile.name}`.  See EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
    ]
    for experiment_id in ids:
        spec = get_experiment(experiment_id)
        result = run_experiment(experiment_id, profile)
        sections.append(f"## {spec.paper_reference} — {spec.title} (`{experiment_id}`)")
        sections.append("")
        sections.append(_markdown_table(result))
        sections.append("")
        for note in result.notes:
            sections.append(f"> {note}")
        shape = _shape_section(result)
        if shape:
            sections.append("")
            sections.append(shape)
        sections.append("")
    return "\n".join(sections)
