"""Immutable domain types: documents, queries, ranked lists, run sets.

All types are treated as immutable after construction, so ``evaluate``
shares one loaded dataset with the worker processes it forks, which only
read it.  Ranked lists are kept in canonical form: non-increasing by score
with ties broken by ascending doc_id, which makes every downstream metric
reproducible bit-for-bit.  A list holds two columns and no per-entry
object: a tuple of doc_ids, whose strings run-file ingest shares across a
system's lists, and an array of scores.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from operator import neg

from .errors import InfoSearchError


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
    """Canonical ranked list: doc_ids sorted by descending score, then doc_id,
    with their scores in a parallel array.

    Input entries in any order are canonicalized on construction.  This is
    the one place that orders a list and rejects a repeated doc_id: it raises
    InfoSearchError, naming the first repeat in canonical order.
    """

    def __init__(self, query_key: str, mode: Mode,
                 entries: Iterable[tuple[str, float]]):
        self.query_key = query_key
        self.mode = mode
        # negated scores sort descending with no Python call per entry, and
        # negating back is bit-exact, -0.0 included
        neg_scores, self.doc_ids = tuple(zip(*sorted(
            [(-score, doc_id) for doc_id, score in entries]))) or ((), ())
        self.scores = array("d", map(neg, neg_scores))
        if len(set(self.doc_ids)) != len(self.doc_ids):
            seen = set()
            for doc_id in self.doc_ids:
                if doc_id in seen:
                    raise InfoSearchError(f"duplicate doc {doc_id!r} in list for {query_key!r}")
                seen.add(doc_id)

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        """The (doc_id, score) pairs in canonical order, built on each read:
        a reader in a loop should read them once."""
        return tuple(zip(self.doc_ids, self.scores))

    @entries.setter
    def entries(self, pairs) -> None:
        """Replace the columns with (doc_id, score) pairs already in canonical order."""
        doc_ids, scores = tuple(zip(*pairs)) or ((), ())
        self.doc_ids = doc_ids
        self.scores = array("d", scores)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankedList)
                and self.query_key == other.query_key
                and self.mode == other.mode
                and self.doc_ids == other.doc_ids
                and self.scores == other.scores)

    def __repr__(self):
        return f"RankedList({self.query_key!r}, {self.mode.value}, {len(self.doc_ids)} entries)"


@dataclass
class RunSet:
    system_id: str
    lists: dict[tuple[str, Mode], RankedList] = field(default_factory=dict)

    def add(self, ranked: RankedList) -> None:
        self.lists[ranked.query_key, ranked.mode] = ranked


def validate_dataset(dataset: Dataset) -> list[str]:
    """The dataset's referential-integrity violations, returned as data, never raised."""
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
        if iq.dimension is not parent.dimension:
            violations.append(f"instructed query {iq.query_id}: dimension {iq.dimension.value}"
                              f" differs from core {iq.core_id}'s {parent.dimension.value}")
        gold_condition = dict(parent.positives).get(iq.gold_doc_id)
        if gold_condition is None:
            violations.append(
                f"instructed query {iq.query_id}: gold {iq.gold_doc_id} not among parent positives")
        elif gold_condition != iq.condition:
            violations.append(f"instructed query {iq.query_id}: condition {iq.condition} differs"
                              f" from gold {iq.gold_doc_id}'s {gold_condition}")
        key = (iq.core_id, iq.condition)
        if key in seen_core_condition:
            violations.append(
                f"instructed query {iq.query_id}: duplicate (core_id, condition) {key}")
        seen_core_condition.add(key)

    return violations
