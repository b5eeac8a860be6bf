"""Output checks: each returns a list of failures, empty when the output is right.

The expected values never come from a saved copy of earlier output.  Report
rows are compared with ``oracle.oracle_metrics`` (an independent
transcription of the formulas, computed on the generated lists before the
program saw them) and with properties the method must have; BM25 runs are
compared with a brute-force scorer written here, with its own tokenizer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

# the report's columns, listed here rather than imported from ``report`` so
# that a renamed or dropped column fails the checks
COLUMNS = ("ndcg_ori", "ndcg_ins", "ndcg_rev", "mrr1_ori", "mrr1_ins", "mrr1_rev",
           "robustness_ori", "robustness_ins", "robustness_rev",
           "p_mrr", "wise_act", "wise_ideal", "per", "sicr")
TOL = 1e-12
SCALE = 100.0  # reports print every column x100, Per. included


def digest(directory: Path) -> str:
    """One hash over every file name and its bytes, for byte-identity checks."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- evaluate

def read_reports(out_dir: Path, fmt: str) -> tuple[dict[str, list[dict]], list[dict]]:
    """Per-system rows and leaderboard rows of an ``evaluate`` output directory.

    Rows are dicts of the report's columns; csv cells stay strings (as
    printed), structured cells are numbers or None.
    """
    ext = {"csv": "csv", "structured": "jsonl"}[fmt]
    systems: dict[str, list[dict]] = {}
    leaderboard: list[dict] = []
    for path in sorted(out_dir.glob(f"*.{ext}")):
        text = path.read_text(encoding="utf-8")
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
        else:
            rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        if path.stem == "leaderboard":
            leaderboard = rows
        else:
            systems[path.stem] = rows
    return systems, leaderboard


def _round1(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def check_shape(systems: dict[str, list[dict]], leaderboard: list[dict],
                expected: dict) -> list[str]:
    """One report per system with one row per dimension plus overall, and a
    leaderboard with one overall row per system."""
    failures = []
    want_scopes = expected["dims"] + ["overall"]
    if sorted(systems) != sorted(expected["systems"]):
        failures.append(f"report files {sorted(systems)} != systems {sorted(expected['systems'])}")
    for system_id, rows in systems.items():
        scopes = [row["scope"] for row in rows]
        if scopes != want_scopes:
            failures.append(f"{system_id}: scopes {scopes} != {want_scopes}")
        if any(row["system_id"] != system_id for row in rows):
            failures.append(f"{system_id}: row with another system_id")
    board = [(row["system_id"], row["scope"]) for row in leaderboard]
    if sorted(board) != sorted((s, "overall") for s in expected["systems"]):
        failures.append(f"leaderboard rows {board} != one overall row per system")
    return failures


def check_full_precision(systems: dict[str, list[dict]], expected: dict) -> list[str]:
    """Structured rows against the oracle within 1e-12, plus the properties
    of the perfect and anti systems."""
    failures = []
    for system_id, rows in systems.items():
        want = expected["systems"].get(system_id)
        if want is None:
            continue  # reported by check_shape
        oracle = want["oracle"]
        for row in rows:
            scope = row["scope"]
            if scope not in oracle:
                failures.append(f"{system_id}/{scope}: scope unknown to the oracle")
                continue
            for col in COLUMNS:
                got, ref = row.get(col), oracle[scope][col]
                if (got is None) != (ref is None) or (
                        got is not None and not abs(got / SCALE - ref) <= TOL):
                    failures.append(f"{system_id}/{scope}.{col}: report {got} vs oracle {ref}")
            if want["behavior"] == "perfect" and not (row["sicr"] == SCALE and row["per"] == 0.0):
                failures.append(f"{system_id}/{scope}: perfect system with SICR {row['sicr']}"
                                f" and Per. {row['per']}")
            if want["behavior"] == "anti" and not (row["sicr"] == 0.0 and row["wise_act"] < 0):
                failures.append(f"{system_id}/{scope}: anti system with SICR {row['sicr']}"
                                f" and WISE Act. {row['wise_act']}")
    return failures


def check_printed(systems: dict[str, list[dict]], leaderboard: list[dict],
                  expected: dict) -> list[str]:
    """csv cells equal the oracle's value rounded to the printed one decimal
    (either rounding when the oracle sits within 1e-9 of a half)."""
    failures = []
    for system_id, rows in list(systems.items()) + [("leaderboard", leaderboard)]:
        for row in rows:
            want = expected["systems"].get(row["system_id"])
            if want is None or row["scope"] not in want["oracle"]:
                continue  # reported by check_shape
            ref = want["oracle"][row["scope"]]
            for col in COLUMNS:
                cell, value = row[col], ref[col]
                if value is None:
                    ok = cell == ""
                else:
                    ok = cell in {_round1(value * SCALE - 1e-9), _round1(value * SCALE + 1e-9)}
                if not ok:
                    failures.append(f"{system_id}/{row['system_id']}/{row['scope']}.{col}: "
                                    f"printed {cell!r} vs oracle {value}")
    return failures


def check_evaluate(full_dir: Path, csv_dir: Path, expected: dict) -> list[str]:
    systems, board = read_reports(full_dir, "structured")
    failures = check_shape(systems, board, expected) + check_full_precision(systems, expected)
    systems, board = read_reports(csv_dir, "csv")
    return failures + check_shape(systems, board, expected) + check_printed(systems, board,
                                                                            expected)


# ---------------------------------------------------------------- bm25-run

_CJK = ("\u3040-\u30ff\u3400-\u4dbf\u4e00-\u9fff\uac00-\ud7af\uf900-\ufaff"
        "\U00020000-\U0002a6df")
# one CJK character, or a run of letters and digits that are not CJK
_TOKEN = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")
SAMPLE_PER_MODE = 12
K1, B = 1.2, 0.75  # bm25-run's defaults


def read_run(path: Path) -> dict[str, list[tuple[int, str, float]]]:
    lists: dict[str, list[tuple[int, str, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            key, _q0, doc_id, rank, score, _tag = line.split()
            lists.setdefault(key, []).append((int(rank), doc_id, float(score)))
    return lists


class BruteForceBm25:
    """Scores every document from its own term counts; no index."""

    def __init__(self, documents):
        self.doc_ids = [d.doc_id for d in documents]
        self.counts = [Counter(_TOKEN.findall(d.text.lower())) for d in documents]
        self.lengths = [sum(c.values()) for c in self.counts]
        self.avg = sum(self.lengths) / len(self.lengths)

    def rank(self, query: str, top_k: int) -> list[tuple[str, float]]:
        terms = _TOKEN.findall(query.lower())
        n = len(self.counts)
        idf = {}
        for t in set(terms):
            df = sum(1 for c in self.counts if t in c)
            idf[t] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        scored = []
        for doc_id, counts, dl in zip(self.doc_ids, self.counts, self.lengths):
            s = 0.0
            for t in terms:
                tf = counts.get(t, 0)
                if tf:
                    s += idf[t] * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / self.avg))
            scored.append((doc_id, s))
        scored.sort(key=lambda e: (-e[1], e[0]))
        return scored[:top_k]


def check_bm25(out_dir: Path, expected: dict, seed: int, load_run) -> list[str]:
    """Every list complete and loadable; a seeded sample per mode equal to
    brute force (ranks exactly, scores within 1e-12)."""
    from infosearch_eval.core import Mode
    dataset, top_k = expected["dataset"], expected["top_k"]
    want_len = min(top_k, len(dataset.documents))
    keys = {Mode.ORIGINAL: (list(dataset.core_queries),
                            {c.core_id: c.text for c in dataset.core_queries.values()}),
            Mode.INSTRUCTED: (list(dataset.instructed_queries),
                              {q.query_id: q.instructed_text
                               for q in dataset.instructed_queries.values()}),
            Mode.REVERSED: (list(dataset.instructed_queries),
                            {q.query_id: q.reversed_text
                             for q in dataset.instructed_queries.values()})}
    rng = random.Random(f"bm25-sample:{seed}")
    scorer = None
    failures = []
    for mode, (want_keys, texts) in keys.items():
        path = out_dir / f"{mode.value}.run"
        try:
            load_run(path, mode)
        except Exception as exc:  # any failure to load back is a wrong output
            failures.append(f"{path.name}: load_run failed: {exc!r}")
        try:
            lists = read_run(path)
        except (OSError, ValueError) as exc:
            failures.append(f"{path.name}: unreadable: {exc!r}")
            continue
        if sorted(lists) != sorted(want_keys):
            failures.append(f"{path.name}: {len(lists)} lists for {len(want_keys)} queries")
        for key, rows in lists.items():
            if len(rows) != want_len or [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
                failures.append(f"{path.name}/{key}: {len(rows)} entries, want {want_len}"
                                " in rank order")
        if scorer is None:
            scorer = BruteForceBm25(list(dataset.documents.values()))
        for key in rng.sample(sorted(want_keys), min(SAMPLE_PER_MODE, len(want_keys))):
            got = lists.get(key, [])
            ref = scorer.rank(texts[key], top_k)
            if [d for _, d, _ in got] != [d for d, _ in ref]:
                failures.append(f"{path.name}/{key}: ranking differs from brute force")
            elif any(not abs(gs - rs) <= TOL for (_, _, gs), (_, rs) in zip(got, ref)):
                failures.append(f"{path.name}/{key}: scores differ from brute force")
    return failures
