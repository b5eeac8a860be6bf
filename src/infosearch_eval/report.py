"""Tabular report rendering: markdown, csv, and full-precision jsonl.

Values are scaled x100 for presentation; markdown and csv display one
decimal place (round half away from zero), the structured format keeps
full precision for downstream tooling.
"""

from __future__ import annotations

import io
import json
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional

from .harness import METRICS, DimensionSummary
from .metrics import wise_per

# format name -> report file extension
FORMATS = {"markdown": "md", "csv": "csv", "structured": "jsonl"}


def _record(system_id: str, row: DimensionSummary) -> dict:
    """One report line: system_id, scope, then the metrics x100 in column order."""
    record = {"system_id": system_id, "scope": row.scope}
    record.update((k, None if v is None else v * 100.0) for k, v in row.as_dict().items())
    # from the scaled values, not 100 * row.per, which differs in the last bit
    record["per"] = wise_per(record["wise_act"], record["wise_ideal"], 100.0)
    return record


def _fmt1(value: Optional[float]) -> str:
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render(rows: list[tuple[str, DimensionSummary]], fmt: str = "markdown") -> bytes:
    """The report of (system_id, row) pairs, one line per pair."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    header = ["system_id", "scope", *METRICS]
    records = [_record(system_id, row) for system_id, row in rows]

    if fmt == "structured":
        out = io.StringIO()
        for record in records:
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
        return out.getvalue().encode("utf-8")

    table = [[r["system_id"], r["scope"], *(_fmt1(r[c]) for c in METRICS)] for r in records]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(cells) for cells in table]
        return ("\n".join(lines) + "\n").encode("utf-8")

    widths = [max(len(header[i]), *(len(cells[i]) for cells in table))
              for i in range(len(header))]
    def md_row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [md_row(header),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(md_row(cells) for cells in table)
    return ("\n".join(lines) + "\n").encode("utf-8")
