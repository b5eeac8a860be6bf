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
A system directory holds one run file per mode, named in MODE_FILES.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .core import (CoreQuery, Dataset, Dimension, Document, InstructedQuery,
                   Mode, RankedList, RunSet, validate_dataset)
from .errors import InfoSearchError


MODE_FILES = {mode: f"{mode.value}.run" for mode in Mode}


@contextmanager
def _numbered_lines(path: Path):
    """The file's lines numbered from 1, read as UTF-8 with a leading BOM skipped."""
    with path.open(encoding="utf-8-sig") as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise InfoSearchError(f"{path}: not UTF-8 ({exc.reason})") from exc


def _files(directory: Path, stem: str) -> list[Path]:
    hits = sorted(directory.glob(f"{stem}*.jsonl"))
    if not hits:
        raise InfoSearchError(f"no {stem}*.jsonl file in {directory}")
    return hits


# fields a run file names in a whitespace-separated column
_ID_FIELDS = frozenset(("doc_id", "core_id", "query_id", "gold_doc_id"))

# per file stem, which is also the Dataset field holding its records: the
# record type and its field names in declaration order, the id field first
_KINDS = {stem: (kind, tuple(f.name for f in fields(kind))) for stem, kind in (
    ("documents", Document), ("core_queries", CoreQuery),
    ("instructed_queries", InstructedQuery))}


def _string(rec, key: str) -> str:
    """rec[key], which must be a str, and one token if key names an id."""
    value = rec[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string")
    if key in _ID_FIELDS and value.split() != [value]:
        raise ValueError(f"{key} must be one token with no whitespace")
    return value


def _decode(kind, names: tuple[str, ...], rec):
    """The kind record of a JSON line, read and checked one field at a time in
    declaration order, so the first faulty field is the one reported."""
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object")
    values = []
    try:
        for name in names:
            if name == "dimension":
                values.append(Dimension(rec[name]))
            elif name == "positives":
                positives = rec[name]
                if not (isinstance(positives, list) and all(isinstance(p, dict) for p in positives)):
                    raise ValueError("positives must be a list of objects")
                values.append(tuple((_string(p, "doc_id"), _string(p, "condition"))
                                    for p in positives))
            else:
                values.append(_string(rec, name))
    except KeyError as exc:  # of a line or a positive
        raise ValueError(f"missing key {exc.args[0]}") from None
    return kind(*values)


def _load_records(directory: Path, stem: str) -> dict:
    """Records of every <stem>*.jsonl file, keyed by their id field."""
    kind, names = _KINDS[stem]
    records = {}
    for path in _files(directory, stem):
        with _numbered_lines(path) as lines:
            for line_no, line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _decode(kind, names, json.loads(line))
                # a JSONDecodeError is a ValueError, and so is an integer over
                # Python's digit limit; deep nesting overflows the stack
                except (ValueError, RecursionError) as exc:
                    raise InfoSearchError(f"{path}:{line_no}: malformed line: {exc}") from exc
                key = getattr(record, names[0])
                if key in records:
                    raise InfoSearchError(f"{path}:{line_no}: duplicate {names[0]} {key!r}")
                records[key] = record
    return records


def existing_dir(path: str | Path) -> Path:
    """path as a Path; NotADirectoryError unless it names a directory."""
    path = Path(path)
    if not path.is_dir():
        raise NotADirectoryError(f"no such directory: {path}")
    return path


def load_dataset(directory: str | Path) -> Dataset:
    """Load and validate a dataset directory; raises on any violation."""
    directory = existing_dir(directory)
    dataset = Dataset(**{stem: _load_records(directory, stem) for stem in _KINDS})
    violations = validate_dataset(dataset)
    if violations:
        raise InfoSearchError("; ".join(violations))
    return dataset


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Serialize a dataset into the directory layout load_dataset expects."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stem, (_, names) in _KINDS.items():
        with (directory / f"{stem}.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
            for record in getattr(dataset, stem).values():
                # a Dimension is a str, so json writes its value
                obj = {name: getattr(record, name) for name in names}
                if "positives" in obj:
                    obj["positives"] = [{"doc_id": doc_id, "condition": condition}
                                        for doc_id, condition in record.positives]
                fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


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
    with _numbered_lines(path) as lines:
        for line_no, line in lines:
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) != 6 or parts[1] != "Q0":
                    raise ValueError("expected 6 columns with Q0")
                query_key, _, doc_id, rank_s, score_s, _tag = parts
                rank = int(rank_s)
                score = float(score_s)
                if rank < 1:
                    raise ValueError("rank must be >= 1")
                if not math.isfinite(score):
                    raise ValueError("non-finite score")
            except ValueError as exc:
                raise InfoSearchError(f"{path}:{line_no}: malformed line: {exc}") from exc
            columns = per_query.get(query_key)
            if columns is None:
                columns = per_query[query_key] = ([], [], array("d"))
            columns[0].append(rank)
            # a system's lists repeat a few thousand doc_ids: keep one string of each
            columns[1].append(sys.intern(doc_id))
            columns[2].append(1.0 / rank if score_from_rank else score)

    runset = RunSet(system_id=path.stem)
    for query_key in list(per_query):
        # free each query's columns as its list is made, so the two are not all held at once
        ranks, doc_ids, scores = per_query.pop(query_key)
        try:
            ranked = RankedList(query_key, mode, list(zip(doc_ids, scores)))
            if ranks != list(range(1, len(ranks) + 1)):
                by_rank = sorted(zip(ranks, doc_ids))
                if [rank for rank, _ in by_rank] != list(range(1, len(ranks) + 1)):
                    raise InfoSearchError(f"rank gap in list for {query_key!r}")
                doc_ids = [doc_id for _, doc_id in by_rank]
            # a list holds each doc_id once, so equal doc_ids mean equal scores
            if ranked.doc_ids != tuple(doc_ids):
                # the first rank whose doc_id differs from the score order's
                rank = next(rank for rank, (got, want)
                            in enumerate(zip(doc_ids, ranked.doc_ids), start=1) if got != want)
                raise InfoSearchError(
                    f"score order contradicts rank order for {query_key!r} at rank {rank} (tied"
                    " scores rank by ascending doc_id; --score-from-rank uses the ranks alone)")
        except InfoSearchError as exc:
            raise InfoSearchError(f"{path}: {exc}") from exc
        runset.add(ranked)
    return runset


def write_run(runset: RunSet, path: str | Path, tag: str = "run") -> None:
    """Write all lists of a RunSet (round-trips exactly with load_run)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for (query_key, _mode), ranked in runset.lists.items():
            for rank, (doc_id, score) in enumerate(zip(ranked.doc_ids, ranked.scores), start=1):
                fh.write(f"{query_key} Q0 {doc_id} {rank} {score!r} {tag}\n")


def load_system(directory: str | Path, score_from_rank: bool = False) -> RunSet:
    """The lists of a system directory's three mode files, in one RunSet."""
    directory = existing_dir(directory)
    runset = RunSet(system_id=directory.name)
    for mode, fname in MODE_FILES.items():
        path = directory / fname
        if not path.is_file():
            raise FileNotFoundError(f"missing run file: {path}")
        runset.lists.update(load_run(path, mode, score_from_rank=score_from_rank).lists)
    return runset


def write_system(dataset: Dataset, runset: RunSet, directory: str | Path, tag: str) -> None:
    """Write a system directory that load_system reads back.

    Each mode file holds the runset's lists of the dataset's queries in
    dataset order: core_queries order for original.run, instructed_queries
    order for the other two.  An empty list has no line to read back, so it
    raises InfoSearchError before any file is written.
    """
    empty = next((ranked for ranked in runset.lists.values() if not ranked.doc_ids), None)
    if empty is not None:
        raise InfoSearchError(f"{runset.system_id}: cannot write the empty {empty.mode.value}"
                              f" list for {empty.query_key!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for mode, fname in MODE_FILES.items():
        keys = dataset.core_queries if mode is Mode.ORIGINAL else dataset.instructed_queries
        part = RunSet(system_id=runset.system_id)
        for key in keys:
            ranked = runset.lists.get((key, mode))
            if ranked is not None:
                part.add(ranked)
        write_run(part, directory / fname, tag=tag)
