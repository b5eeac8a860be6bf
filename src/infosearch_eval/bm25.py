"""Okapi BM25 reference retriever over the dataset corpus.

Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)) so tiny
desk corpora cannot produce negative scores.  The tokenizer lowercases,
groups runs of Unicode letters/digits, and emits CJK codepoints as
single-character tokens (the corpus contains Chinese documents).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

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


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def tokenize(text: str) -> list[str]:
    """Lowercased tokens: alphanumeric runs, with CJK chars emitted singly."""
    tokens: list[str] = []
    buf: list[str] = []
    for ch in text.lower():
        if _is_cjk(ch):
            if buf:
                tokens.append("".join(buf))
                buf = []
            tokens.append(ch)
        elif ch.isalnum():
            buf.append(ch)
        else:
            if buf:
                tokens.append("".join(buf))
                buf = []
    if buf:
        tokens.append("".join(buf))
    return tokens


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0 or not (0.0 <= self.b <= 1.0):
            raise ValueError("require k1 >= 0 and 0 <= b <= 1")


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc_ordinal, tf)]
    doc_lengths: list[int]
    avg_doc_length: float
    doc_count: int
    doc_ids: list[str]
    idf: dict[str, float] = field(default_factory=dict)


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
    return InvertedIndex(postings=postings, doc_lengths=doc_lengths,
                         avg_doc_length=sum(doc_lengths) / n,
                         doc_count=n, doc_ids=doc_ids, idf=idf)


def search(index: InvertedIndex, params: Bm25Params, query_text: str,
           top_k: int) -> list[tuple[str, float]]:
    """Top-k (doc_id, score) pairs, ties broken by ascending doc_id."""
    terms = tokenize(query_text)
    scores = [0.0] * index.doc_count
    for term in terms:
        plist = index.postings.get(term)
        if plist is None:
            continue
        idf = index.idf[term]
        for ordinal, tf in plist:
            dl = index.doc_lengths[ordinal]
            norm = params.k1 * (1.0 - params.b + params.b * dl / index.avg_doc_length)
            scores[ordinal] += idf * tf * (params.k1 + 1.0) / (tf + norm)
    order = sorted(range(index.doc_count), key=lambda i: (-scores[i], index.doc_ids[i]))
    return [(index.doc_ids[i], scores[i]) for i in order[:top_k]]


def run_all_modes(dataset: Dataset, params: Bm25Params = Bm25Params(),
                  top_k: int = 100, system_id: str = "bm25") -> RunSet:
    """Retrieve for every core/instructed/reversed query over the full corpus."""
    docs = list(dataset.documents.values())
    index = build_index(docs, params)
    runset = RunSet(system_id=system_id)
    for cq in dataset.core_queries.values():
        runset.add(RankedList(cq.core_id, Mode.ORIGINAL,
                              search(index, params, cq.text, top_k)))
    for iq in dataset.instructed_queries.values():
        runset.add(RankedList(iq.query_id, Mode.INSTRUCTED,
                              search(index, params, iq.instructed_text, top_k)))
        runset.add(RankedList(iq.query_id, Mode.REVERSED,
                              search(index, params, iq.reversed_text, top_k)))
    return runset
