"""Plain-text table rendering shared by reports, attribution and CLI.

Historically lived in :mod:`repro.pipeline.reporting`; moved here so
telemetry (attribution tables, kernel benchmarks) can render tables
without importing the pipeline layer.  ``pipeline.reporting`` still
re-exports everything for existing callers.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Cell]], title: str = ""
) -> str:
    """Render an aligned ASCII table.

    Tolerates ragged input: rows longer than the header row grow extra
    unnamed columns, shorter rows are padded with blanks, and an empty
    row list renders a header-only table.
    """
    header_cells = [str(h) for h in headers]
    rendered: List[List[str]] = [[_format_cell(c) for c in row] for row in rows]
    columns = max([len(header_cells)] + [len(row) for row in rendered], default=0)
    header_cells += [""] * (columns - len(header_cells))
    rendered = [row + [""] * (columns - len(row)) for row in rendered]
    widths = [len(h) for h in header_cells]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def _line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    out: List[str] = []
    if title:
        out.append(title)
    if columns == 0:
        out.append("(empty table)")
        return "\n".join(out)
    out.append(_line(header_cells))
    out.append("-+-".join("-" * width for width in widths))
    out.extend(_line(row) for row in rendered)
    return "\n".join(out)


def format_records(
    records: Sequence[Mapping[str, Any]],
    title: str = "",
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dict records as a table over the union of their keys.

    Heterogeneous records are fine: the column set is the ordered union
    of every record's keys (unless ``columns`` pins it) and missing
    values render blank.  An empty record list yields a header-only (or
    empty) table rather than raising.
    """
    if columns is None:
        ordered: List[str] = []
        for record in records:
            for key in record:
                if key not in ordered:
                    ordered.append(key)
        columns = ordered
    rows = [[record.get(col, "") for col in columns] for record in records]
    return format_table(list(columns), rows, title=title)


def percent(value: float) -> str:
    """0.8831 -> '88.31%'."""
    return f"{100.0 * value:.2f}%"
