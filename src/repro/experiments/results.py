"""Experiment result containers and table formatting.

Every experiment returns an :class:`ExperimentResult` — an id tied to the
paper's table/figure, column names, and rows — which benches print with
:func:`format_table` so each bench regenerates the corresponding paper
artifact as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class ExperimentResult:
    """A reproduced table or figure series."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render a result as an aligned text table."""
    headers = list(result.columns)
    body = [[_format_cell(row.get(col, "")) for col in headers] for row in result.rows]
    widths = [
        max(len(header), *(len(cells[i]) for cells in body)) if body else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [f"== {result.experiment_id}: {result.title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
