"""Okapi BM25 reference retriever over the dataset corpus.

Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)) so tiny
desk corpora cannot produce negative scores.  The tokenizer lowercases,
groups runs of Unicode letters/digits, and emits CJK codepoints as
single-character tokens (the corpus contains Chinese documents).
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass

from .core import Dataset, Document, Mode, RankedList, RunSet
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
        if self.k1 < 0 or not (0.0 <= self.b <= 1.0):
            raise ValueError("require k1 >= 0 and 0 <= b <= 1")


@dataclass
class InvertedIndex:
    params: Bm25Params  # the norms below hold only for these
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc_ordinal, tf)]
    doc_lengths: list[int]
    avg_doc_length: float
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
        for term, tf in sorted(Counter(terms).items()):
            postings.setdefault(term, []).append((ordinal, tf))
    n = len(documents)
    idf = {term: math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
           for term, plist in postings.items()}
    avg = sum(doc_lengths) / n
    k1, b = params.k1, params.b
    # an average of 0 means no document has a term, so no norm is ever read
    norms = [k1 * (1.0 - b + b * dl / avg) for dl in doc_lengths] if avg else [0.0] * n
    return InvertedIndex(params=params, postings=postings, doc_lengths=doc_lengths,
                         avg_doc_length=avg, doc_count=n, doc_ids=doc_ids, idf=idf,
                         norms=norms, by_doc_id=sorted(range(n), key=doc_ids.__getitem__))


def search(index: InvertedIndex, params: Bm25Params, query_text: str,
           top_k: int) -> list[tuple[str, float]]:
    """Top-k (doc_id, score) pairs, ties broken by ascending doc_id.

    Only documents in the query terms' postings are scored; when fewer than
    top_k match, the list is filled with 0.0-scored documents in doc_id order.
    """
    if params != index.params:
        raise ValueError(f"index was built with {index.params}, not {params}")
    if top_k < 1:
        raise ValueError("require top_k >= 1")
    norms, k1_plus_1 = index.norms, params.k1 + 1.0
    scores: dict[int, float] = {}
    for term in tokenize(query_text):
        plist = index.postings.get(term)
        if plist is None:
            continue
        idf = index.idf[term]
        for ordinal, tf in plist:
            # the operations of idf * tf * (k1 + 1.0) / (tf + norm), in that order
            score = idf * tf * k1_plus_1 / (tf + norms[ordinal])
            scores[ordinal] = scores.get(ordinal, 0.0) + score
    # every idf is positive, so a matched document scores above 0.0; only
    # those at or above the top_k-th best score are sorted
    cutoff = heapq.nlargest(top_k, scores.values())[-1] if len(scores) > top_k else 0.0
    doc_ids = index.doc_ids
    top = sorted((-score, doc_ids[ordinal])
                 for ordinal, score in scores.items() if score >= cutoff)
    hits = [(doc_id, -neg) for neg, doc_id in top[:top_k]]
    if len(hits) < top_k:
        hits += [(doc_ids[o], 0.0) for o in index.by_doc_id if o not in scores][:top_k - len(hits)]
    return hits


def run_all_modes(dataset: Dataset, params: Bm25Params = Bm25Params(),
                  top_k: int = 100) -> RunSet:
    """Retrieve for every core/instructed/reversed query over the full corpus."""
    docs = list(dataset.documents.values())
    index = build_index(docs, params)
    runset = RunSet(system_id="bm25")
    for cq in dataset.core_queries.values():
        runset.add(RankedList(cq.core_id, Mode.ORIGINAL,
                              search(index, params, cq.text, top_k)))
    for iq in dataset.instructed_queries.values():
        runset.add(RankedList(iq.query_id, Mode.INSTRUCTED,
                              search(index, params, iq.instructed_text, top_k)))
        runset.add(RankedList(iq.query_id, Mode.REVERSED,
                              search(index, params, iq.reversed_text, top_k)))
    return runset
