import copy
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infosearch_eval import bm25, ingest
from infosearch_eval.bm25 import (Bm25Params, build_index, core_base, run_all_modes,
                                  search, tokenize)
from infosearch_eval.cli import main
from infosearch_eval.core import (CoreQuery, Dataset, Dimension, Document,
                                  InstructedQuery, Mode)
from infosearch_eval.errors import InfoSearchError
from infosearch_eval.synth import SynthSpec, gen_synthetic_dataset


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
    assert idx.norms == [1.2]  # k1 * (1 - b + b * 3 / 3)
    assert idx.doc_count == 1


def test_index_postings_share_one_pair_per_document_and_tf():
    idx = build_index([doc("d0", "a b a b c"), doc("d1", "a c")])
    assert idx.postings == {"a": [(0, 2), (1, 1)], "b": [(0, 2)], "c": [(0, 1), (1, 1)]}
    assert idx.postings["a"][0] is idx.postings["b"][0]
    assert idx.postings["a"][1] is idx.postings["c"][1]
    assert idx.postings["c"][0] is not idx.postings["c"][1]
    # a document repeats a few small tfs, so a posting is mostly a list
    # pointer; a tuple per posting would hold about 64 bytes
    rng = random.Random(17)
    vocab = [f"w{i}" for i in range(500)]
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    docs = [doc(f"d{i:03d}", " ".join(rng.choices(vocab, weights, k=rng.randint(20, 400))))
            for i in range(300)]  # made before tracing
    tracemalloc.start()
    try:
        idx = build_index(docs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    postings = sum(map(len, idx.postings.values()))
    assert postings == sum(len(set(tokenize(d.text))) for d in docs)
    assert held / postings < 24


def test_build_index_empty_corpus():
    with pytest.raises(InfoSearchError, match="^no documents to index$"):
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
    assert a.postings == b.postings and a.norms == b.norms


def test_run_all_modes_counts(desk_dataset):
    runset = run_all_modes(desk_dataset, Bm25Params(), 100)
    assert len(runset.lists) == 2 + 4 + 4


def test_identical_texts_identical_rankings(desk_dataset):
    runset = run_all_modes(desk_dataset, Bm25Params(), 100)
    params = Bm25Params()
    docs = list(desk_dataset.documents.values())
    idx = build_index(docs, params)
    cq = desk_dataset.core_queries["c0"]
    again = search(idx, params, cq.text, 100)
    assert tuple(again) == runset.lists["c0", Mode.ORIGINAL].entries


def per_query_reference(dataset, params, top_k):
    """Every query searched from scratch: {(query_key, mode): hits}."""
    idx = build_index(list(dataset.documents.values()), params)
    out = {(cq.core_id, Mode.ORIGINAL): search(idx, params, cq.text, top_k)
           for cq in dataset.core_queries.values()}
    for iq in dataset.instructed_queries.values():
        out[iq.query_id, Mode.INSTRUCTED] = search(idx, params, iq.instructed_text, top_k)
        out[iq.query_id, Mode.REVERSED] = search(idx, params, iq.reversed_text, top_k)
    return out


def assert_runs_equal_reference(dataset, params=Bm25Params(), top_k=100):
    got = {key: list(ranked.entries)
           for key, ranked in run_all_modes(dataset, params, top_k).lists.items()}
    assert got == per_query_reference(dataset, params, top_k)


def prefix_dataset(docs, cores, instructed):
    """Dataset from doc texts, {core_id: text} and [(core_id, instructed, reversed)]."""
    documents = {f"d{i}": doc(f"d{i}", text) for i, text in enumerate(docs)}
    core_queries = {cid: CoreQuery(cid, text, Dimension.AUDIENCE, (("d0", "x"),))
                    for cid, text in cores.items()}
    iqs = {f"q{i}": InstructedQuery(f"q{i}", cid, Dimension.AUDIENCE, f"c{i}", ins, rev, "d0")
           for i, (cid, ins, rev) in enumerate(instructed)}
    return Dataset(documents, core_queries, iqs)


PREFIX_DOCS = ["foo bar", "foobar x", "foo foo x y", "糖 尿 病 x", "糖尿 foo", "bar y y",
               "plum", "x foobar bar"]


def test_run_all_modes_equals_per_query_search_on_prefix_cases():
    dataset = prefix_dataset(PREFIX_DOCS, {
        "plain": "foo bar", "merge": "foo", "cjk": "x 糖", "empty": "",
        "lonely": "plum"}, [
        ("plain", "foo bar Please find x.", "foo bar Please avoid y."),
        ("merge", "foobar x", "foo bar x"),             # merges with "foo", then does not
        ("cjk", "x 糖尿病", "x 糖x"),                    # core ends in a CJK char
        ("plain", "foo bar foo", "foo bar bar bar"),     # repeats a core token
        ("empty", "foo x", "糖"),                        # empty core text
        ("plain", "bar foo", "x y"),                     # does not begin with the core
        ("merge", "foo", "FOO, bar"),                    # equal to the core's tokens
    ])
    for top_k in (1, 3, 100):
        assert_runs_equal_reference(dataset, top_k=top_k)


def test_run_all_modes_equals_per_query_search_on_datasets(desk_dataset):
    assert_runs_equal_reference(desk_dataset)
    assert_runs_equal_reference(desk_dataset, Bm25Params(k1=0.9, b=0.4), top_k=3)
    assert_runs_equal_reference(gen_synthetic_dataset(SynthSpec(seed=7)))


def test_run_all_modes_indexes_only_its_queries_tokens(desk_dataset, monkeypatch):
    """The index run_all_modes builds is the full index cut to the tokens of
    the texts it searches: the same postings, pairs and idf of those tokens
    in the same order, and the norms and doc_ids of every document."""
    built = []

    def keep(*args):
        built.append(build_index(*args))
        return built[-1]

    monkeypatch.setattr(bm25, "build_index", keep)
    params = Bm25Params()
    for dataset in (gen_synthetic_dataset(SynthSpec(seed=7)), desk_dataset):
        built.clear()
        run_all_modes(dataset, params, 100)
        [index] = built
        full = build_index(list(dataset.documents.values()), params)
        texts = [cq.text for cq in dataset.core_queries.values()]
        for iq in dataset.instructed_queries.values():
            texts += iq.instructed_text, iq.reversed_text
        query_tokens = {token for text in texts for token in tokenize(text)}
        assert list(index.postings.items()) == [
            (t, plist) for t, plist in full.postings.items() if t in query_tokens]
        assert list(index.idf.items()) == [
            (t, idf) for t, idf in full.idf.items() if t in query_tokens]
        assert (index.norms, index.doc_ids, index.doc_count) == (
            full.norms, full.doc_ids, full.doc_count)


# d0 to d12: string order puts d10, d11 and d12 before d2; repeated texts tie
ORDER_DOCS = ["plum fig", "fig", "plum", "kiwi", "plum fig", "fig", "lime", "plum",
              "kiwi kiwi", "fig", "plum fig", "date", "lime"]


def test_run_all_modes_does_not_depend_on_document_order(desk_dataset):
    """build_index numbers the documents in doc_id order, so shuffling them
    changes no list, whether a top_k cuts a tie or a zero-score fill."""
    numbered = prefix_dataset(ORDER_DOCS, {"c0": "plum", "c1": "kiwi", "c2": "mango"}, [
        ("c0", "plum fig", "plum lime"), ("c1", "kiwi date", "kiwi"),
        ("c2", "mango fig", "mango x")])
    assert sorted(numbered.documents) != sorted(numbered.documents, key=lambda d: int(d[1:]))
    params, rng = Bm25Params(), random.Random(29)

    def lists(dataset, top_k):
        return {key: ranked.entries
                for key, ranked in run_all_modes(dataset, params, top_k).lists.items()}

    for dataset in (gen_synthetic_dataset(SynthSpec(seed=7)), desk_dataset, numbered):
        for top_k in (1, 3, 20, 100):
            expected = lists(dataset, top_k)
            for _ in range(3):
                documents = list(dataset.documents.items())
                rng.shuffle(documents)
                shuffled = Dataset(dict(documents), dataset.core_queries,
                                   dataset.instructed_queries)
                assert lists(shuffled, top_k) == expected


WORDS = ["foo", "bar", "foobar", "x", "Foo", "糖", "尿", "病", "plum", ""]
texts = st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(["", " ", ", "])),
                 max_size=5).map(lambda parts: "".join(w + sep for w, sep in parts))


@st.composite
def prefix_datasets(draw):
    """Instructed texts that extend their core's text, merge with its last
    token, or start afresh; cores that are empty or end in CJK."""
    cores = {f"c{i}": draw(texts) for i in range(draw(st.integers(1, 3)))}

    def query_text(core_text):
        return draw(st.one_of(texts.map(lambda tail: core_text + tail), texts))

    instructed = []
    for _ in range(draw(st.integers(0, 6))):
        cid = draw(st.sampled_from([*cores]))
        instructed.append((cid, query_text(cores[cid]), query_text(cores[cid])))
    docs = draw(st.lists(texts, min_size=1, max_size=8))
    return prefix_dataset(docs, cores, instructed), draw(st.integers(1, 10))


@settings(max_examples=200, deadline=None)
@given(prefix_datasets())
def test_run_all_modes_equals_per_query_search_on_generated_datasets(case):
    dataset, top_k = case
    assert_runs_equal_reference(dataset, top_k=top_k)


def test_bm25_run_writes_each_file_in_dataset_order(tmp_path):
    """original.run follows core_queries.jsonl and the other two follow
    instructed_queries.jsonl, whatever order their lines come in."""
    dataset_dir, runs_dir = tmp_path / "dataset", tmp_path / "runs"
    ingest.write_dataset(gen_synthetic_dataset(SynthSpec(seed=7)), dataset_dir)
    rng = random.Random(11)
    for name in ("core_queries", "instructed_queries"):
        path = dataset_dir / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        path.write_text("".join(lines), encoding="utf-8")
    dataset = ingest.load_dataset(dataset_dir)
    cores = list(dataset.core_queries)
    # run_all_modes searches the instructed queries grouped by core, in another order
    by_core = sorted(dataset.instructed_queries,
                     key=lambda q: cores.index(dataset.instructed_queries[q].core_id))
    assert by_core != list(dataset.instructed_queries)
    assert main(["bm25-run", str(dataset_dir), "--out", str(runs_dir), "--top-k", "3"]) == 0

    def keys(name):
        lines = (runs_dir / name).read_text(encoding="utf-8").splitlines()
        return list(dict.fromkeys(line.split()[0] for line in lines))
    assert keys("original.run") == cores
    assert keys("instructed.run") == keys("reversed.run") == list(dataset.instructed_queries)


def test_search_with_base_leaves_base_unchanged():
    params = Bm25Params()
    idx = build_index([doc(f"d{i}", text) for i, text in enumerate(PREFIX_DOCS)], params)
    base = core_base(idx, tokenize("foo bar"), 5)
    before = copy.deepcopy(base)
    for text in ("foo bar x y", "foo bar", "foobar", "x"):
        assert search(idx, params, text, 5, base) == search(idx, params, text, 5)
    assert base == before


def search_from_core(docs, core, query, top_k):
    """search with the core's base, after checking it against the brute-force
    ranking and a search without a base; also returns the core's top doc_ids."""
    params = Bm25Params()
    idx = build_index(docs, params)
    base = core_base(idx, tokenize(core), top_k)
    hits = search(idx, params, query, top_k, base)
    expected = brute_force_rank(docs, params, query)[:top_k]
    assert hits == search(idx, params, query, top_k) == expected
    assert search(idx, params, core, top_k, base) == brute_force_rank(docs, params, core)[:top_k]
    return hits, [idx.doc_ids[o] for _, o in base[2]]


def test_base_touched_document_rises_into_the_top():
    docs = [doc(d, t) for d, t in [("d0", "a a a"), ("d1", "a a b"), ("d2", "a b b"),
                                   ("d3", "a x x"), ("d4", "x y")]]
    hits, core_top = search_from_core(docs, "a", "a b", 2)
    assert core_top == ["d0", "d1"]
    # d2 was below the core's cutoff; b touches d1 in the core's top too
    assert [d for d, _ in hits] == ["d2", "d1"]


def test_base_tie_at_the_cutoff_is_broken_by_doc_id():
    # d1, d2 and d3 tie for the core's 2nd score, and are given out of doc_id order
    docs = [doc(d, t) for d, t in [("d0", "a a"), ("d3", "a q"), ("d1", "a z"),
                                   ("d2", "a z"), ("d4", "z z")]]
    hits, core_top = search_from_core(docs, "a", "a q", 3)
    assert core_top == ["d0", "d1", "d2", "d3"]
    # d3 rises; the tie of d1 and d2 is cut after d1
    assert [d for d, _ in hits] == ["d3", "d0", "d1"]


def test_base_with_fewer_matches_than_top_k():
    docs = [doc(d, t) for d, t in [("d0", "x"), ("d1", "a a b"), ("d2", "a y"), ("d3", "z"),
                                   ("d4", "b y y y"), ("d5", "y")]]
    hits, core_top = search_from_core(docs, "a", "a b", 5)
    # the core's top ends with the zero-score fill, in doc_id order
    assert core_top == ["d1", "d2", "d0", "d3", "d4"]
    # b touches d1 again and d4, which leaves the fill and scores below every
    # matched document of the core's top; the rest of the fill follows
    assert [d for d, _ in hits] == ["d1", "d2", "d4", "d0", "d3"]
    assert [score for _, score in hits[3:]] == [0.0, 0.0]


@pytest.mark.parametrize("base_top_k, top_k", [(1, 5), (3, 10), (10, 3)])
def test_search_does_not_use_a_base_made_at_another_top_k(base_top_k, top_k):
    dataset = gen_synthetic_dataset(SynthSpec(seed=7))
    params = Bm25Params()
    idx = build_index(list(dataset.documents.values()), params)
    for iq in dataset.instructed_queries.values():
        base = core_base(idx, tokenize(dataset.core_queries[iq.core_id].text), base_top_k)
        for text in (iq.instructed_text, iq.reversed_text):
            assert search(idx, params, text, top_k, base) == search(idx, params, text, top_k)


def test_core_base_and_search_with_a_base_reject_bad_top_k():
    params = Bm25Params()
    idx = build_index([doc("d0", "apple")], params)
    base = core_base(idx, ["apple"], 1)
    for top_k in (0, -1):
        with pytest.raises(ValueError, match=r"^require top_k >= 1$"):
            core_base(idx, ["apple"], top_k)
        with pytest.raises(ValueError, match=r"^require top_k >= 1$"):
            search(idx, params, "apple", top_k, base)
