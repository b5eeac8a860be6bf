"""Tabular report rendering: markdown, csv, and full-precision jsonl.

Values are scaled x100 for presentation; markdown and csv display one
decimal place (round half away from zero), the structured format keeps
full precision for downstream tooling.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, make_dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional

from .harness import METRICS, DimensionSummary
from .metrics import wise_per

COLUMNS = METRICS

FORMATS = ("markdown", "csv", "structured")

ReportRow = make_dataclass(
    "ReportRow",
    [("system_id", str), ("scope", str), *((name, Optional[float]) for name in COLUMNS)],
    namespace={"__module__": __name__})


def row_from_summary(system_id: str, summary: DimensionSummary) -> ReportRow:
    scaled = {k: (None if v is None else v * 100.0) for k, v in summary.as_dict().items()}
    # from the scaled values, not 100 * summary.per, which differs in the last bit
    scaled["per"] = wise_per(scaled["wise_act"], scaled["wise_ideal"], 100.0)
    return ReportRow(system_id=system_id, scope=summary.scope, **scaled)


def _fmt1(value: Optional[float]) -> str:
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render(rows: list[ReportRow], fmt: str = "markdown") -> bytes:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    header = ["system_id", "scope", *COLUMNS]

    if fmt == "structured":
        out = io.StringIO()
        for row in rows:
            out.write(json.dumps(asdict(row), ensure_ascii=False) + "\n")
        return out.getvalue().encode("utf-8")

    table = [[row.system_id, row.scope, *(_fmt1(getattr(row, c)) for c in COLUMNS)]
             for row in rows]
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
