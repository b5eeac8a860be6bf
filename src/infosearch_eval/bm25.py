"""Okapi BM25 reference retriever over the dataset corpus.

Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)) so tiny
desk corpora cannot produce negative scores.  The tokenizer lowercases,
groups runs of Unicode letters/digits, and emits CJK codepoints as
single-character tokens (the corpus contains Chinese documents).

``build_index`` numbers the documents in doc_id order, so every ranking
entry is ``(-score, ordinal)``: ordinal order is the tie order.  An instructed
or reversed query is usually its core query's text followed by the
instruction, so ``run_all_modes`` ranks each core query once, with
``core_base``, whose top ends with the unmatched documents among the first
top_k ordinals, and passes it to ``search`` as ``base`` for the core's own
queries.  A search at the base's top_k whose query begins with the base's
tokens scores only the documents that its other tokens touch; any other
search starts from the base of no tokens.  Scores only grow beyond the core's,
so an untouched document below the core's top_k-th score cannot enter the
top; every score is the same float either way, so run files are unchanged.

The index holds one ``(ordinal, tf)`` pair per document and distinct term
frequency, shared by the postings of every term with that frequency in that
document: a document repeats a few small frequencies, so most postings are a
pointer to a pair that already exists.  ``run_all_modes`` knows every query
before it indexes, so its index keeps the postings and idf of the queries'
tokens only.  A term's postings and idf depend on no other term, and every
document is still tokenized in full for its length, so every score is the
same float as over the full index.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass

from .core import Dataset, Document, InstructedQuery, Mode, RankedList, RunSet
from .errors import InfoSearchError

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
# so importing this module, as only `bm25-run` does, costs no compile.
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
    # term -> [(doc_ordinal, tf)] in ascending ordinal order, with one pair
    # object per document and tf, shared by every term with that tf there
    postings: dict[str, list[tuple[int, int]]]
    doc_count: int
    doc_ids: list[str]  # per ordinal, ascending
    idf: dict[str, float]
    norms: list[float]  # per ordinal: k1 * (1 - b + b * doc_length / avg_doc_length)


def build_index(documents: list[Document], params: Bm25Params = Bm25Params(),
                terms: set[str] | None = None) -> InvertedIndex:
    """The index of the documents' tokens, or of those in ``terms`` only: such
    an index answers only queries whose tokens are all in ``terms``."""
    if not documents:
        raise InfoSearchError("no documents to index")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    doc_ids: list[str] = []
    # ordinals in doc_id order make the ordinal the tie-break of every ranking
    for ordinal, doc in enumerate(sorted(documents, key=lambda d: d.doc_id)):
        tokens = tokenize(doc.text)
        doc_lengths.append(len(tokens))
        doc_ids.append(doc.doc_id)
        counts = Counter(tokens if terms is None else filter(terms.__contains__, tokens))
        pair = {tf: (ordinal, tf) for tf in set(counts.values())}
        for term, tf in counts.items():
            postings.setdefault(term, []).append(pair[tf])
    n = len(documents)
    idf = {term: math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
           for term, plist in postings.items()}
    avg = sum(doc_lengths) / n
    k1, b = params.k1, params.b
    # an average of 0 means no document has a term, so no norm is ever read
    norms = [k1 * (1.0 - b + b * dl / avg) for dl in doc_lengths] if avg else [0.0] * n
    return InvertedIndex(params=params, postings=postings, doc_count=n, doc_ids=doc_ids,
                         idf=idf, norms=norms)


def _accumulate(index: InvertedIndex, terms: list[str],
                start: list[float]) -> dict[int, float]:
    """Scores of the documents that the terms' postings touch: each starts
    from its score in ``start``, indexed by ordinal, and adds the terms'
    contributions in term order."""
    norms, k1_plus_1 = index.norms, index.params.k1 + 1.0
    scores: dict[int, float] = {}
    get = scores.get
    for term in terms:
        plist = index.postings.get(term)
        if plist is None:
            continue
        idf = index.idf[term]
        for ordinal, tf in plist:
            # the operations of idf * tf * (k1 + 1.0) / (tf + norm), in that order
            score = idf * tf * k1_plus_1 / (tf + norms[ordinal])
            scores[ordinal] = get(ordinal, start[ordinal]) + score
    return scores


def _top(scores: dict[int, float], top_k: int) -> list[tuple[float, int]]:
    """``(-score, ordinal)`` of every document in ``scores`` at or above the
    top_k-th best score among them, unsorted."""
    cutoff = heapq.nlargest(top_k, scores.values())[-1] if len(scores) > top_k else 0.0
    return [(-score, ordinal) for ordinal, score in scores.items() if score >= cutoff]


# (tokens, score per ordinal, top, top_k): see core_base
Base = tuple[list[str], list[float], list[tuple[float, int]], int]


def core_base(index: InvertedIndex, tokens: list[str], top_k: int) -> Base:
    """``search``'s base for the queries at ``top_k`` that begin with ``tokens``.

    It holds the tokens, each document's score for them (0.0 where none
    matches), their top: ``(-score, ordinal)`` of every document at or above
    their top_k-th best score, sorted once here, so that each search sorts it
    as one run, then the zero-score fill: ``(-0.0, ordinal)`` of the first
    top_k ordinals that the tokens do not match, which hold every zero-score
    document that a list of fewer than top_k matches ends with; and top_k.
    """
    if top_k < 1:
        raise ValueError("require top_k >= 1")
    scores = [0.0] * index.doc_count
    matched = _accumulate(index, tokens, scores)
    for ordinal, score in matched.items():
        scores[ordinal] = score
    # each idf is > 0, so the fill sorts after every match; -0.0 negates to 0.0
    fill = [(-0.0, o) for o in range(min(top_k, index.doc_count)) if o not in matched]
    return tokens, scores, sorted(_top(matched, top_k)) + fill, top_k


def search(index: InvertedIndex, params: Bm25Params, query_text: str, top_k: int,
           base: Base | None = None) -> list[tuple[str, float]]:
    """Top-k (doc_id, score) pairs, ties broken by ascending doc_id, which is
    ascending ordinal: entries sort as ``(-score, ordinal)``, and only the
    top_k returned are mapped to doc_ids.

    Only documents in the query terms' postings are scored; when fewer than
    top_k match, the list ends with the base's fill of 0.0-scored documents.

    ``base`` is used only when ``core_base`` made it at this top_k and this
    query's tokens begin with its tokens; otherwise the search starts from
    ``core_base(index, [], top_k)``.  Only the documents that the remaining
    tokens' postings touch are scored: each starts from its base score and
    adds the remaining terms in order, so every score is the same float as a
    search without a base gives.  They are ranked together with the base's
    top, less the touched documents.  Scores only grow beyond the base's, so
    an untouched document below the base's top_k-th score cannot enter the
    top.  The result does not depend on ``base``, and ``base`` is not changed.
    """
    if params != index.params:
        raise ValueError(f"index was built with {index.params}, not {params}")
    terms = tokenize(query_text)
    if base is None or base[3] != top_k or terms[:len(base[0])] != base[0]:
        base = core_base(index, [], top_k)
    tokens, base_scores, base_top, _ = base
    touched = _accumulate(index, terms[len(tokens):], base_scores)
    ranked = [entry for entry in base_top if entry[1] not in touched]
    ranked += _top(touched, top_k)
    ranked.sort()
    return [(index.doc_ids[ordinal], -neg) for neg, ordinal in ranked[:top_k]]


def run_all_modes(dataset: Dataset, params: Bm25Params, top_k: int) -> RunSet:
    """Retrieve for every core/instructed/reversed query over the full corpus.

    ``dataset`` is one that ``ingest.load_dataset`` returns: every instructed
    query's core is among its core queries.  The index holds the tokens of
    these queries' texts only.  Each core is searched and then its variants,
    so one core's ``base`` is alive at a time.
    """
    texts = [cq.text for cq in dataset.core_queries.values()]
    for iq in dataset.instructed_queries.values():
        texts += iq.instructed_text, iq.reversed_text
    index = build_index(list(dataset.documents.values()), params,
                        {token for text in texts for token in tokenize(text)})
    variants: dict[str, list[InstructedQuery]] = {core_id: [] for core_id in dataset.core_queries}
    for iq in dataset.instructed_queries.values():
        variants[iq.core_id].append(iq)
    runset = RunSet(system_id="bm25")
    for core_id, cq in dataset.core_queries.items():
        base = core_base(index, tokenize(cq.text), top_k)
        runset.add(RankedList(core_id, Mode.ORIGINAL, search(index, params, cq.text, top_k, base)))
        for iq in variants[core_id]:
            runset.add(RankedList(iq.query_id, Mode.INSTRUCTED,
                                  search(index, params, iq.instructed_text, top_k, base)))
            runset.add(RankedList(iq.query_id, Mode.REVERSED,
                                  search(index, params, iq.reversed_text, top_k, base)))
    return runset
