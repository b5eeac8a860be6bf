"""Immutable domain types: documents, queries, ranked lists, run sets.

All types are treated as immutable after construction, so ``evaluate``
shares one loaded dataset with the worker processes it forks, which only
read it.  Ranked lists are kept in canonical form: non-increasing by score
with ties broken by ascending doc_id, which makes every downstream metric
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import DuplicateDoc


class Dimension(str, Enum):
    AUDIENCE = "Audience"
    KEYWORD = "Keyword"
    FORMAT = "Format"
    LANGUAGE = "Language"
    LENGTH = "Length"
    SOURCE = "Source"


class Mode(str, Enum):
    ORIGINAL = "original"
    INSTRUCTED = "instructed"
    REVERSED = "reversed"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    dimension: Dimension
    condition: str


@dataclass(frozen=True)
class CoreQuery:
    core_id: str
    text: str
    dimension: Dimension
    positives: tuple[tuple[str, str], ...]  # (doc_id, condition)

    def positive_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _ in self.positives)


@dataclass(frozen=True)
class InstructedQuery:
    query_id: str
    core_id: str
    dimension: Dimension
    condition: str
    instructed_text: str
    reversed_text: str
    gold_doc_id: str


@dataclass(frozen=True)
class Dataset:
    documents: dict[str, Document]
    core_queries: dict[str, CoreQuery]
    instructed_queries: dict[str, InstructedQuery]


class RankedList:
    """Canonical ranked list: entries sorted by descending score, then doc_id.

    Input entries in any order are canonicalized on construction.  This is
    the one place that orders a list and rejects a repeated doc_id: it raises
    DuplicateDoc, naming the first repeat in canonical order.
    """

    __slots__ = ("query_key", "mode", "entries", "_positions")

    def __init__(self, query_key: str, mode: Mode,
                 entries: list[tuple[str, float]] | tuple[tuple[str, float], ...]):
        self.query_key = query_key
        self.mode = mode
        self.entries = tuple(sorted(entries, key=lambda e: (-e[1], e[0])))
        self._positions = {doc_id: i + 1 for i, (doc_id, _) in enumerate(self.entries)}
        if len(self._positions) != len(self.entries):
            seen = set()
            for doc_id, _ in self.entries:
                if doc_id in seen:
                    raise DuplicateDoc(query_key, doc_id)
                seen.add(doc_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankedList)
                and self.query_key == other.query_key
                and self.mode == other.mode
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.query_key, self.mode, self.entries))

    def __repr__(self):
        return f"RankedList({self.query_key!r}, {self.mode.value}, {len(self.entries)} entries)"


def rank_of(ranked: RankedList, doc_id: str) -> Optional[int]:
    """1-based rank of doc_id in the canonical list; None when absent."""
    return ranked._positions.get(doc_id)


def score_of(ranked: RankedList, doc_id: str) -> Optional[float]:
    """Score of doc_id; None when absent."""
    pos = ranked._positions.get(doc_id)
    if pos is None:
        return None
    return ranked.entries[pos - 1][1]


@dataclass
class RunSet:
    system_id: str
    lists: dict[tuple[str, Mode], RankedList] = field(default_factory=dict)

    def add(self, ranked: RankedList) -> None:
        key = (ranked.query_key, ranked.mode)
        if key in self.lists:
            raise ValueError(f"duplicate list for {key}")
        self.lists[key] = ranked

    def get(self, query_key: str, mode: Mode) -> Optional[RankedList]:
        return self.lists.get((query_key, mode))


@dataclass
class ValidationReport:
    violations: list[str]
    # dimension -> (core, instructed, reversed, docs)
    counts: dict[Dimension, tuple[int, int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def totals(self) -> tuple[int, int, int, int]:
        cols = list(zip(*self.counts.values())) or [(), (), (), ()]
        return tuple(sum(c) for c in cols)  # type: ignore[return-value]


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check referential integrity and report per-dimension counts.

    Violations are returned as data, never raised.
    """
    violations: list[str] = []

    for doc in dataset.documents.values():
        if not doc.text:
            violations.append(f"document {doc.doc_id}: empty text")

    seen_core_condition: set[tuple[str, str]] = set()

    for cq in dataset.core_queries.values():
        if not cq.positives:
            violations.append(f"core query {cq.core_id}: no positives")
        conditions = [cond for _, cond in cq.positives]
        if cq.dimension is not Dimension.KEYWORD and len(set(conditions)) != len(conditions):
            violations.append(f"core query {cq.core_id}: duplicate conditions among positives")
        for doc_id, _ in cq.positives:
            if doc_id not in dataset.documents:
                violations.append(f"core query {cq.core_id}: unknown positive doc {doc_id}")

    for iq in dataset.instructed_queries.values():
        parent = dataset.core_queries.get(iq.core_id)
        if parent is None:
            violations.append(f"instructed query {iq.query_id}: unknown core {iq.core_id}")
            continue
        if iq.gold_doc_id not in parent.positive_ids():
            violations.append(
                f"instructed query {iq.query_id}: gold {iq.gold_doc_id} not among parent positives")
        key = (iq.core_id, iq.condition)
        if key in seen_core_condition:
            violations.append(
                f"instructed query {iq.query_id}: duplicate (core_id, condition) {key}")
        seen_core_condition.add(key)

    counts: dict[Dimension, tuple[int, int, int, int]] = {}
    for dim in Dimension:
        n_core = sum(1 for cq in dataset.core_queries.values() if cq.dimension is dim)
        n_ins = sum(1 for iq in dataset.instructed_queries.values() if iq.dimension is dim)
        n_docs = sum(1 for d in dataset.documents.values() if d.dimension is dim)
        if n_core or n_ins or n_docs:
            # every instructed query carries a reversed variant
            counts[dim] = (n_core, n_ins, n_ins, n_docs)

    return ValidationReport(violations=violations, counts=counts)
