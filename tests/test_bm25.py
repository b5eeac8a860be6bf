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


# the character loop that tokenize replaced: the reference for its regex
_CJK_RANGES = ((0x3040, 0x30FF), (0x3400, 0x4DBF), (0x4E00, 0x9FFF),
               (0xAC00, 0xD7AF), (0xF900, 0xFAFF), (0x20000, 0x2A6DF))


def loop_tokenize(text):
    tokens, buf = [], []
    for ch in text.lower():
        if any(lo <= ord(ch) <= hi for lo, hi in _CJK_RANGES):
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


def test_tokenize_edge_characters():
    assert tokenize("snake_case") == loop_tokenize("snake_case") == ["snake", "case"]
    assert tokenize("カタ・カナ") == loop_tokenize("カタ・カナ") == ["カ", "タ", "・", "カ", "ナ"]
    assert tokenize("x² m³") == loop_tokenize("x² m³") == ["x²", "m³"]
    # combining marks end a run; "İ" lowers to "i" plus a combining dot
    assert tokenize("cafe\u0301 İx") == loop_tokenize("cafe\u0301 İx") == ["cafe", "i", "x"]


def test_tokenize_matches_character_loop_on_every_code_point():
    chars = [chr(cp) for cp in [*range(0xD800), *range(0xE000, 0x10000),
                                *range(0x20000, 0x2A6E0)]]
    for text in (" ".join(chars),                      # each alone
                 " ".join(f"a{c}b" for c in chars),   # inside a run
                 " ".join(c + c for c in chars)):     # next to itself
        assert tokenize(text) == loop_tokenize(text)


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


def shuffled_corpus(rng, max_docs=24):
    """Doc ids inserted in shuffled order, with repeated texts for tie groups."""
    texts = [" ".join(rng.choices(VOCAB, k=rng.randint(1, 8))) for _ in range(6)]
    ids = [f"d{i:03d}" for i in range(rng.randint(2, max_docs))]
    rng.shuffle(ids)
    return [doc(doc_id, rng.choice(texts)) for doc_id in ids]


def test_search_equals_brute_force_exactly():
    params = Bm25Params(k1=0.9, b=0.4)
    rng = random.Random(11)
    for _ in range(100):
        docs = shuffled_corpus(rng)
        idx = build_index(docs, params)
        query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))
        expected = brute_force_rank(docs, params, query)
        for top_k in range(1, len(docs) + 3):
            assert search(idx, params, query, top_k) == expected[:top_k]


def test_search_cut_inside_tie_group():
    params = Bm25Params()
    docs = [doc(d, t) for d, t in [("d4", "fig fig"), ("d1", "fig plum"), ("d3", "fig plum"),
                                   ("d0", "plum"), ("d2", "fig plum")]]
    idx = build_index(docs, params)
    expected = brute_force_rank(docs, params, "fig")
    assert [d for d, _ in expected] == ["d4", "d1", "d2", "d3", "d0"]
    assert expected[1][1] == expected[2][1] == expected[3][1]
    assert search(idx, params, "fig", 3) == expected[:3]


def test_search_zero_score_tail():
    params = Bm25Params()
    docs = [doc(d, t) for d, t in [("d3", "kiwi"), ("d0", "lime"), ("d2", "mango"),
                                   ("d1", "lime lime")]]
    idx = build_index(docs, params)
    hits = search(idx, params, "lime", 4)
    assert hits == brute_force_rank(docs, params, "lime")
    assert hits[2:] == [("d2", 0.0), ("d3", 0.0)]


def test_search_rejects_other_params_and_bad_top_k():
    idx = build_index([doc("d0", "apple")], Bm25Params())
    with pytest.raises(ValueError):
        search(idx, Bm25Params(k1=2.0), "apple", 1)
    for top_k in (0, -1):
        with pytest.raises(ValueError):
            search(idx, Bm25Params(), "apple", top_k)


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
