"""Okapi BM25 reference retriever over the dataset corpus.

Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)) so tiny
desk corpora cannot produce negative scores.  The tokenizer lowercases,
groups runs of Unicode letters/digits, and emits CJK codepoints as
single-character tokens (the corpus contains Chinese documents).

An instructed or reversed query is usually its core query's text followed by
the instruction, so ``run_all_modes`` accumulates each core query's postings
once and passes them to ``search`` as ``base`` for the core's own queries.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .core import Dataset, Document, InstructedQuery, Mode, RankedList, RunSet
from .errors import EmptyCorpus

# main CJK ideograph blocks plus kana and hangul syllables
_CJK_RANGES = (
    (0x3040, 0x30FF),   # hiragana, katakana
    (0x3400, 0x4DBF),   # CJK extension A
    (0x4E00, 0x9FFF),   # CJK unified ideographs
    (0xAC00, 0xD7AF),   # hangul syllables
    (0xF900, 0xFAFF),   # CJK compatibility ideographs
    (0x20000, 0x2A6DF), # CJK extension B
)
_CJK = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# re's \w is str.isalnum() plus "_": one CJK char, or a run of alphanumerics
# outside the CJK ranges.  re compiles it on first use and keeps it cached,
# so importing this module (as every CLI command does) costs no compile.
_TOKEN = f"[{_CJK}]|[^\\W_{_CJK}]+"


def tokenize(text: str) -> list[str]:
    """Lowercased tokens: alphanumeric runs, with CJK chars emitted singly."""
    return re.findall(_TOKEN, text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN fails both
        if not (0.0 <= self.k1 < math.inf and 0.0 <= self.b <= 1.0):
            raise ValueError("require 0 <= k1 < inf and 0 <= b <= 1")


@dataclass
class InvertedIndex:
    params: Bm25Params  # the norms below hold only for these
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc_ordinal, tf)]
    doc_count: int
    doc_ids: list[str]
    idf: dict[str, float]
    norms: list[float]  # per ordinal: k1 * (1 - b + b * doc_length / avg_doc_length)
    by_doc_id: list[int]  # ordinals in ascending doc_id order


def build_index(documents: list[Document], params: Bm25Params = Bm25Params()) -> InvertedIndex:
    if not documents:
        raise EmptyCorpus("no documents to index")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    doc_ids: list[str] = []
    for ordinal, doc in enumerate(documents):
        terms = tokenize(doc.text)
        doc_lengths.append(len(terms))
        doc_ids.append(doc.doc_id)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((ordinal, tf))
    n = len(documents)
    idf = {term: math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
           for term, plist in postings.items()}
    avg = sum(doc_lengths) / n
    k1, b = params.k1, params.b
    # an average of 0 means no document has a term, so no norm is ever read
    norms = [k1 * (1.0 - b + b * dl / avg) for dl in doc_lengths] if avg else [0.0] * n
    return InvertedIndex(params=params, postings=postings, doc_count=n, doc_ids=doc_ids,
                         idf=idf, norms=norms, by_doc_id=sorted(range(n), key=doc_ids.__getitem__))


def _accumulate(index: InvertedIndex, terms: list[str],
                scores: dict[int, float]) -> dict[int, float]:
    """Add each term's BM25 contributions to ``scores``, in term order."""
    norms, k1_plus_1 = index.norms, index.params.k1 + 1.0
    for term in terms:
        plist = index.postings.get(term)
        if plist is None:
            continue
        idf = index.idf[term]
        for ordinal, tf in plist:
            # the operations of idf * tf * (k1 + 1.0) / (tf + norm), in that order
            score = idf * tf * k1_plus_1 / (tf + norms[ordinal])
            scores[ordinal] = scores.get(ordinal, 0.0) + score
    return scores


def search(index: InvertedIndex, params: Bm25Params, query_text: str, top_k: int,
           base: tuple[list[str], dict[int, float]] | None = None) -> list[tuple[str, float]]:
    """Top-k (doc_id, score) pairs, ties broken by ascending doc_id.

    Only documents in the query terms' postings are scored; when fewer than
    top_k match, the list is filled with 0.0-scored documents in doc_id order.

    ``base`` is ``(tokens, scores)``: the tokens of an earlier query and the
    scores their postings gave, as ``run_all_modes`` builds them.  When this
    query's tokens begin with ``tokens``, scoring starts from a copy of
    ``scores`` and adds only the tokens after them; otherwise it starts from
    nothing.  Either way each document's score is the same sum, added in the
    same order, so the result does not depend on ``base``, and ``scores``
    is not changed.
    """
    if params != index.params:
        raise ValueError(f"index was built with {index.params}, not {params}")
    if top_k < 1:
        raise ValueError("require top_k >= 1")
    terms = tokenize(query_text)
    start, scores = 0, {}
    if base is not None and terms[:len(base[0])] == base[0]:
        start, scores = len(base[0]), dict(base[1])
    scores = _accumulate(index, terms[start:], scores)
    # every idf is positive, so a matched document scores above 0.0; only
    # those at or above the top_k-th best score are sorted
    cutoff = heapq.nlargest(top_k, scores.values())[-1] if len(scores) > top_k else 0.0
    doc_ids = index.doc_ids
    top = sorted((-score, doc_ids[ordinal])
                 for ordinal, score in scores.items() if score >= cutoff)
    hits = [(doc_id, -neg) for neg, doc_id in top[:top_k]]
    if len(hits) < top_k:
        unmatched = (o for o in index.by_doc_id if o not in scores)
        hits += [(doc_ids[o], 0.0) for o in islice(unmatched, top_k - len(hits))]
    return hits


def run_all_modes(dataset: Dataset, params: Bm25Params = Bm25Params(),
                  top_k: int = 100) -> RunSet:
    """Retrieve for every core/instructed/reversed query over the full corpus.

    Queries are searched core by core, so one core's ``base`` is alive at a
    time; the lists are added core queries first, then each instructed
    query's two, both in dataset order.
    """
    docs = list(dataset.documents.values())
    index = build_index(docs, params)
    # a dataset that failed validation may name cores it does not hold
    groups: dict[str, list[InstructedQuery]] = {core_id: [] for core_id in dataset.core_queries}
    for iq in dataset.instructed_queries.values():
        groups.setdefault(iq.core_id, []).append(iq)
    runset = RunSet(system_id="bm25")
    instructed: dict[str, tuple[RankedList, RankedList]] = {}
    for core_id, iqs in groups.items():
        base = None
        cq = dataset.core_queries.get(core_id)
        if cq is not None:
            tokens = tokenize(cq.text)
            base = (tokens, _accumulate(index, tokens, {}))
            runset.add(RankedList(core_id, Mode.ORIGINAL,
                                  search(index, params, cq.text, top_k, base)))
        for iq in iqs:
            instructed[iq.query_id] = (
                RankedList(iq.query_id, Mode.INSTRUCTED,
                           search(index, params, iq.instructed_text, top_k, base)),
                RankedList(iq.query_id, Mode.REVERSED,
                           search(index, params, iq.reversed_text, top_k, base)))
    for iq in dataset.instructed_queries.values():
        for ranked in instructed[iq.query_id]:
            runset.add(ranked)
    return runset
