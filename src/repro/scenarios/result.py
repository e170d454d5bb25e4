"""Uniform result table produced by every scenario and exhibit.

:class:`ExperimentResult`: one table of rows per scenario run,
rendered exactly as the committed golden traces under
``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..schema import positional_pickle


@positional_pickle
@dataclass
class ExperimentResult:
    """Uniform result object: one table of rows per exhibit."""

    exhibit: str  # e.g. "Figure 11"
    title: str
    columns: List[str]
    rows: List[Dict] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def format_table(self, float_fmt: str = "{:.2f}") -> str:
        """Render rows as an aligned plain-text table."""

        def fmt(value) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        header = [self.columns]
        body = [[fmt(row.get(c, "")) for c in self.columns] for row in self.rows]
        widths = [
            max(len(line[i]) for line in header + body)
            for i in range(len(self.columns))
        ]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in header + [["-" * w for w in widths]] + body
        ]
        out = [f"== {self.exhibit}: {self.title} ==", *lines]
        if self.notes:
            out.append(f"note: {self.notes}")
        return "\n".join(out)

    def as_dict(self) -> Dict:
        """JSON-friendly representation (CLI ``--json`` output)."""
        return {
            "exhibit": self.exhibit,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": self.notes,
        }
