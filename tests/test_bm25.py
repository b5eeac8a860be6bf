import math
import random

import pytest

from infosearch_eval.bm25 import (Bm25Params, build_index, run_all_modes,
                                  search, tokenize)
from infosearch_eval.core import Dimension, Document
from infosearch_eval.errors import EmptyCorpus


def doc(doc_id, text):
    return Document(doc_id=doc_id, text=text, dimension=Dimension.AUDIENCE,
                    condition="x")


def test_tokenize_basic():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("BM25-v2") == ["bm25", "v2"]


def test_tokenize_cjk_per_codepoint():
    assert tokenize("糖尿病") == ["糖", "尿", "病"]
    assert tokenize("the 糖尿病 guide") == ["the", "糖", "尿", "病", "guide"]


def test_build_index_single_doc():
    idx = build_index([doc("d0", "a a b")])
    assert idx.postings == {"a": [(0, 2)], "b": [(0, 1)]}
    assert idx.avg_doc_length == 3.0
    assert idx.doc_count == 1


def test_build_index_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_index([])


def test_score_single_term_equals_idf():
    # length normalization cancels when len == avg_len
    params = Bm25Params()
    docs = [doc("d0", "apple")]
    expected = [("d0", pytest.approx(math.log(1 + (1 - 1 + 0.5) / (1 + 0.5)), abs=1e-12))]
    assert brute_force_rank(docs, params, "apple") == expected
    assert search(build_index(docs, params), params, "apple", 1) == expected


def test_score_absent_term_is_zero():
    params = Bm25Params()
    docs = [doc("d0", "apple pie")]
    assert brute_force_rank(docs, params, "zebra") == [("d0", 0.0)]
    assert search(build_index(docs, params), params, "zebra", 1) == [("d0", 0.0)]


def test_search_tiebreak_and_full_corpus():
    params = Bm25Params()
    docs = [doc("b", "same words"), doc("a", "same words")]
    idx = build_index(docs, params)
    hits = search(idx, params, "same", top_k=10)
    assert [h[0] for h in hits] == ["a", "b"]
    assert len(hits) == 2  # top_k larger than corpus returns everything


def brute_force_rank(docs, params, query):
    """Independent scorer: recompute tf/idf from raw text per document."""
    tokenized = [tokenize(d.text) for d in docs]
    n = len(docs)
    avg = sum(len(t) for t in tokenized) / n
    q_terms = tokenize(query)
    results = []
    for d, terms in zip(docs, tokenized):
        s = 0.0
        for t in q_terms:
            tf = terms.count(t)
            if tf == 0:
                continue
            df = sum(1 for other in tokenized if t in other)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            s += idf * tf * (params.k1 + 1) / (tf + params.k1 * (1 - params.b + params.b * len(terms) / avg))
        results.append((d.doc_id, s))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


VOCAB = ["apple", "pear", "plum", "fig", "kiwi", "lime", "date", "mango"]


def random_corpus(rng, max_docs=16):
    return [doc(f"d{i:03d}", " ".join(rng.choices(VOCAB, k=rng.randint(1, 12))))
            for i in range(rng.randint(1, max_docs))]


def test_search_matches_brute_force_scorer():
    params = Bm25Params()
    rng = random.Random(42)
    for _ in range(50):
        docs = random_corpus(rng)
        idx = build_index(docs, params)
        query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))
        expected = brute_force_rank(docs, params, query)
        got = search(idx, params, query, top_k=len(docs))
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-12)


def test_index_deterministic():
    rng = random.Random(5)
    docs = random_corpus(rng)
    a, b = build_index(docs), build_index(docs)
    assert a.postings == b.postings and a.doc_lengths == b.doc_lengths


def test_run_all_modes_counts(desk_dataset):
    runset = run_all_modes(desk_dataset, top_k=100)
    assert len(runset.lists) == 2 + 4 + 4


def test_identical_texts_identical_rankings(desk_dataset):
    runset = run_all_modes(desk_dataset, top_k=100)
    params = Bm25Params()
    docs = list(desk_dataset.documents.values())
    idx = build_index(docs, params)
    cq = desk_dataset.core_queries["c0"]
    from infosearch_eval.core import Mode
    again = search(idx, params, cq.text, 100)
    assert tuple(again) == runset.get("c0", Mode.ORIGINAL).entries
