"""File I/O: dataset JSONL files and six-column run files.

Dataset directory layout (one JSON object per line, UTF-8 with a leading
byte-order mark skipped, every value but positives a string):
    documents*.jsonl           doc_id, text, dimension, condition
    core_queries*.jsonl        core_id, text, dimension, positives
    instructed_queries*.jsonl  query_id, core_id, dimension, condition,
                               instructed_text, reversed_text, gold_doc_id

Wildcards allow either one combined file per kind or one file per
dimension.  Run files follow the usual interchange convention:
    <query_key> Q0 <doc_id> <rank> <score> <tag>
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import fields
from pathlib import Path

from .core import (CoreQuery, Dataset, Dimension, Document, InstructedQuery,
                   Mode, RankedList, RunSet, validate_dataset)
from .errors import IntegrityViolation, MalformedLine, RankGap, ScoreOrderViolation


def _read_jsonl(path: Path):
    with path.open(encoding="utf-8-sig") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield line_no, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedLine(str(path), line_no, str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise IntegrityViolation(f"{path}: not UTF-8 ({exc.reason})") from exc


def _files(directory: Path, stem: str) -> list[Path]:
    hits = sorted(directory.glob(f"{stem}*.jsonl"))
    if not hits:
        raise IntegrityViolation(f"no {stem}*.jsonl file in {directory}")
    return hits


# per record type, its fields annotated str
_STR_FIELDS = {cls: [f.name for f in fields(cls) if f.type == "str"]
               for cls in (Document, CoreQuery, InstructedQuery)}


# fields a run file names in a whitespace-separated column
_ID_FIELDS = frozenset(("doc_id", "core_id", "query_id", "gold_doc_id"))


def _check_strings(record) -> None:
    """Raise ValueError naming a field annotated str, or a positive's key, that
    holds no str, or an id that a run-file column could not hold."""
    for key in _STR_FIELDS[type(record)]:
        value = getattr(record, key)
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
        if key in _ID_FIELDS and value.split() != [value]:
            raise ValueError(f"{key} must be one token with no whitespace")
    for doc_id, condition in getattr(record, "positives", ()):
        if not isinstance(doc_id, str):
            raise ValueError("doc_id must be a string")
        if doc_id.split() != [doc_id]:
            raise ValueError("doc_id must be one token with no whitespace")
        if not isinstance(condition, str):
            raise ValueError("condition must be a string")


def _load_records(directory: Path, stem: str, id_field: str, make) -> dict:
    """Records of every <stem>*.jsonl file, keyed by id_field, made by make(rec)."""
    records = {}
    for path in _files(directory, stem):
        for line_no, rec in _read_jsonl(path):
            try:
                record = make(rec)
                _check_strings(record)
            except (KeyError, ValueError, TypeError) as exc:  # TypeError: a non-object line
                raise MalformedLine(str(path), line_no, str(exc)) from exc
            key = getattr(record, id_field)
            if key in records:
                raise IntegrityViolation(f"duplicate {id_field} {key!r}")
            records[key] = record
    return records


def load_dataset(directory: str | Path) -> Dataset:
    """Load and validate a dataset directory; raises on any violation."""
    directory = Path(directory)
    dataset = Dataset(
        documents=_load_records(directory, "documents", "doc_id", lambda r: Document(
            doc_id=r["doc_id"], text=r["text"], dimension=Dimension(r["dimension"]),
            condition=r["condition"])),
        core_queries=_load_records(directory, "core_queries", "core_id", lambda r: CoreQuery(
            core_id=r["core_id"], text=r["text"], dimension=Dimension(r["dimension"]),
            positives=tuple((p["doc_id"], p["condition"]) for p in r["positives"]))),
        instructed_queries=_load_records(
            directory, "instructed_queries", "query_id", lambda r: InstructedQuery(
                query_id=r["query_id"], core_id=r["core_id"],
                dimension=Dimension(r["dimension"]), condition=r["condition"],
                instructed_text=r["instructed_text"], reversed_text=r["reversed_text"],
                gold_doc_id=r["gold_doc_id"])))
    violations = validate_dataset(dataset)
    if violations:
        raise IntegrityViolation("; ".join(violations))
    return dataset


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Serialize a dataset into the directory layout load_dataset expects."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(path: Path, records) -> None:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")

    dump(directory / "documents.jsonl",
         ({"doc_id": d.doc_id, "text": d.text, "dimension": d.dimension.value,
           "condition": d.condition} for d in dataset.documents.values()))
    dump(directory / "core_queries.jsonl",
         ({"core_id": c.core_id, "text": c.text, "dimension": c.dimension.value,
           "positives": [{"doc_id": doc_id, "condition": cond}
                         for doc_id, cond in c.positives]}
          for c in dataset.core_queries.values()))
    dump(directory / "instructed_queries.jsonl",
         ({"query_id": q.query_id, "core_id": q.core_id,
           "dimension": q.dimension.value, "condition": q.condition,
           "instructed_text": q.instructed_text, "reversed_text": q.reversed_text,
           "gold_doc_id": q.gold_doc_id} for q in dataset.instructed_queries.values()))


def load_run(path: str | Path, mode: Mode, score_from_rank: bool = False) -> RunSet:
    """Parse a run file into canonical RankedLists.

    Lines may come in any order.  Per query the ranks must be 1..n, and the
    canonical order RankedList makes must be the rank order.  With
    score_from_rank, each score is replaced by 1/rank so that strict score
    comparisons reduce to strict rank comparisons for rank-only systems.
    A byte-order mark at the start of the file is skipped.
    """
    path = Path(path)
    # per query: the ranks, doc_ids and scores, in file order
    per_query: dict[str, tuple[list[int], list[str], array]] = {}
    with path.open(encoding="utf-8-sig") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 6 or parts[1] != "Q0":
                    raise MalformedLine(str(path), line_no, "expected 6 columns with Q0")
                query_key, _, doc_id, rank_s, score_s, _tag = parts
                try:
                    rank = int(rank_s)
                    score = float(score_s)
                except ValueError as exc:
                    raise MalformedLine(str(path), line_no, str(exc)) from exc
                if rank < 1:
                    raise MalformedLine(str(path), line_no, "rank must be >= 1")
                if not math.isfinite(score):
                    raise MalformedLine(str(path), line_no, "non-finite score")
                columns = per_query.get(query_key)
                if columns is None:
                    columns = per_query[query_key] = ([], [], array("d"))
                columns[0].append(rank)
                # a system's lists repeat a few thousand doc_ids: keep one string of each
                columns[1].append(sys.intern(doc_id))
                columns[2].append(1.0 / rank if score_from_rank else score)
        except UnicodeDecodeError as exc:
            raise IntegrityViolation(f"{path}: not UTF-8 ({exc.reason})") from exc

    runset = RunSet(system_id=path.stem)
    for query_key in list(per_query):
        # free each query's columns as its list is made, so the two are not all held at once
        ranks, doc_ids, scores = per_query.pop(query_key)
        ranked = RankedList(query_key, mode, list(zip(doc_ids, scores)))
        if ranks != list(range(1, len(ranks) + 1)):
            by_rank = sorted(zip(ranks, doc_ids))
            if [rank for rank, _ in by_rank] != list(range(1, len(ranks) + 1)):
                raise RankGap(query_key)
            doc_ids = [doc_id for _, doc_id in by_rank]
        # a list holds each doc_id once, so equal doc_ids mean equal scores
        if ranked.doc_ids != tuple(doc_ids):
            raise ScoreOrderViolation(query_key, next(
                rank for rank, (got, want) in enumerate(zip(doc_ids, ranked.doc_ids), start=1)
                if got != want))
        runset.add(ranked)
    return runset


def write_run(runset: RunSet, path: str | Path, tag: str = "run") -> None:
    """Write all lists of a RunSet (round-trips exactly with load_run)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for (query_key, _mode), ranked in runset.lists.items():
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
                fh.write(f"{query_key} Q0 {doc_id} {rank} {score!r} {tag}\n")
