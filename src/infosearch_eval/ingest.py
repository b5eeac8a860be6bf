"""File I/O: dataset JSONL files and six-column run files.

Dataset directory layout (one JSON object per line, UTF-8):
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
from pathlib import Path

from .core import (CoreQuery, Dataset, Dimension, Document, InstructedQuery,
                   Mode, RankedList, RunSet, ValidationReport, validate_dataset)
from .errors import (DuplicateDoc, IntegrityViolation, MalformedLine, RankGap,
                     ScoreOrderViolation)


def _read_jsonl(path: Path):
    with path.open(encoding="utf-8") as fh:
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


def load_dataset(directory: str | Path) -> Dataset:
    """Load and validate a dataset directory; raises on any violation."""
    return load_dataset_with_report(directory)[0]


def load_dataset_with_report(directory: str | Path) -> tuple[Dataset, ValidationReport]:
    """load_dataset, also handing back the report of its one validation."""
    directory = Path(directory)
    documents: dict[str, Document] = {}
    core_queries: dict[str, CoreQuery] = {}
    instructed_queries: dict[str, InstructedQuery] = {}

    for path in _files(directory, "documents"):
        for line_no, rec in _read_jsonl(path):
            try:
                doc = Document(doc_id=rec["doc_id"], text=rec["text"],
                               dimension=Dimension(rec["dimension"]),
                               condition=rec["condition"])
            except (KeyError, ValueError) as exc:
                raise MalformedLine(str(path), line_no, str(exc)) from exc
            if doc.doc_id in documents:
                raise IntegrityViolation(f"duplicate doc_id {doc.doc_id!r}")
            documents[doc.doc_id] = doc

    for path in _files(directory, "core_queries"):
        for line_no, rec in _read_jsonl(path):
            try:
                cq = CoreQuery(core_id=rec["core_id"], text=rec["text"],
                               dimension=Dimension(rec["dimension"]),
                               positives=tuple((p["doc_id"], p["condition"])
                                               for p in rec["positives"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise MalformedLine(str(path), line_no, str(exc)) from exc
            if cq.core_id in core_queries:
                raise IntegrityViolation(f"duplicate core_id {cq.core_id!r}")
            core_queries[cq.core_id] = cq

    for path in _files(directory, "instructed_queries"):
        for line_no, rec in _read_jsonl(path):
            try:
                iq = InstructedQuery(query_id=rec["query_id"], core_id=rec["core_id"],
                                     dimension=Dimension(rec["dimension"]),
                                     condition=rec["condition"],
                                     instructed_text=rec["instructed_text"],
                                     reversed_text=rec["reversed_text"],
                                     gold_doc_id=rec["gold_doc_id"])
            except (KeyError, ValueError) as exc:
                raise MalformedLine(str(path), line_no, str(exc)) from exc
            if iq.query_id in instructed_queries:
                raise IntegrityViolation(f"duplicate query_id {iq.query_id!r}")
            instructed_queries[iq.query_id] = iq

    dataset = Dataset(documents=documents, core_queries=core_queries,
                      instructed_queries=instructed_queries)
    report = validate_dataset(dataset)
    if not report.ok:
        raise IntegrityViolation("; ".join(report.violations))
    return dataset, report


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


def load_run(path: str | Path, mode: Mode, score_from_rank: bool = False,
             system_id: str = "") -> RunSet:
    """Parse a run file into canonical RankedLists.

    With score_from_rank, each score is replaced by 1/rank so that strict
    score comparisons reduce to strict rank comparisons for rank-only
    systems.
    """
    path = Path(path)
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 6 or parts[1] != "Q0":
                    raise MalformedLine(str(path), line_no, "expected 6 columns with Q0")
                query_key, _, doc_id, rank_s, score_s, _tag = parts
                try:
                    rank = int(rank_s)
                    score = float(score_s)
                except ValueError as exc:
                    raise MalformedLine(str(path), line_no, str(exc)) from exc
                if rank < 1 or score != score or score in (float("inf"), float("-inf")):
                    raise MalformedLine(str(path), line_no, "bad rank or non-finite score")
                per_query.setdefault(query_key, []).append((rank, doc_id, score))
        except UnicodeDecodeError as exc:
            raise IntegrityViolation(f"{path}: not UTF-8 ({exc.reason})") from exc

    runset = RunSet(system_id=system_id or path.stem)
    for query_key, rows in per_query.items():
        rows.sort(key=lambda r: r[0])
        seen: set[str] = set()
        for expected, (rank, doc_id, _) in enumerate(rows, start=1):
            if doc_id in seen:
                raise DuplicateDoc(query_key, doc_id)
            seen.add(doc_id)
            if rank != expected:
                raise RankGap(query_key)
        if score_from_rank:
            entries = [(doc_id, 1.0 / rank) for rank, doc_id, _ in rows]
        else:
            entries = [(doc_id, score) for _, doc_id, score in rows]
        ranked = RankedList(query_key, mode, entries)
        if [doc_id for doc_id, _ in ranked.entries] != [doc_id for doc_id, _ in entries]:
            raise ScoreOrderViolation(query_key)
        runset.add(ranked)
    return runset


def write_run(runset: RunSet, path: str | Path, tag: str = "run") -> None:
    """Write all lists of a RunSet (round-trips exactly with load_run)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for (query_key, _mode), ranked in runset.lists.items():
            for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
                fh.write(f"{query_key} Q0 {doc_id} {rank} {score!r} {tag}\n")
