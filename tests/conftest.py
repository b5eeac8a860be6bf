import pytest

from infosearch_eval.core import (CoreQuery, Dataset, Dimension, Document,
                                  InstructedQuery, Mode, RankedList, RunSet)
from infosearch_eval.harness import build_gold_contexts


def make_list(query_key, mode, doc_ids, scores=None):
    if scores is None:
        scores = [1.0 / r for r in range(1, len(doc_ids) + 1)]
    return RankedList(query_key, mode, list(zip(doc_ids, scores)))


@pytest.fixture
def desk_dataset():
    """Two core queries (Audience / Format), two instructed variants each."""
    docs = {}
    for i, (dim, cond) in enumerate([
            (Dimension.AUDIENCE, "Layman"), (Dimension.AUDIENCE, "Expert"),
            (Dimension.AUDIENCE, "Layman"), (Dimension.AUDIENCE, "Expert"),
            (Dimension.FORMAT, "Code Snippet"), (Dimension.FORMAT, "Manual"),
            (Dimension.FORMAT, "Code Snippet"), (Dimension.FORMAT, "Manual")]):
        doc_id = f"d{i}"
        docs[doc_id] = Document(doc_id=doc_id, text=f"text of {doc_id}",
                                dimension=dim, condition=cond)
    cores = {
        "c0": CoreQuery("c0", "how to lose weight", Dimension.AUDIENCE,
                        (("d0", "Layman"), ("d1", "Expert"))),
        "c1": CoreQuery("c1", "sort a python list", Dimension.FORMAT,
                        (("d4", "Code Snippet"), ("d5", "Manual"))),
    }
    iqs = {}
    for core_id, golds in (("c0", [("Layman", "d0"), ("Expert", "d1")]),
                           ("c1", [("Code Snippet", "d4"), ("Manual", "d5")])):
        for j, (cond, gold) in enumerate(golds):
            qid = f"{core_id}-q{j}"
            core = cores[core_id]
            iqs[qid] = InstructedQuery(
                query_id=qid, core_id=core_id, dimension=core.dimension,
                condition=cond,
                instructed_text=f"{core.text} Please find {cond} documents.",
                reversed_text=f"{core.text} Please avoid {cond} documents.",
                gold_doc_id=gold)
    return Dataset(documents=docs, core_queries=cores, instructed_queries=iqs)


@pytest.fixture
def desk_runset(desk_dataset):
    """A well-behaved runset: golds improve under instructions."""
    rs = RunSet(system_id="desk")
    pool = {"c0": ["d0", "d1", "d2", "d3"], "c1": ["d4", "d5", "d6", "d7"]}
    for core_id, docs in pool.items():
        rs.add(make_list(core_id, Mode.ORIGINAL, docs))
    for iq in desk_dataset.instructed_queries.values():
        docs = pool[iq.core_id]
        others = [d for d in docs if d != iq.gold_doc_id]
        rs.add(make_list(iq.query_id, Mode.INSTRUCTED, [iq.gold_doc_id] + others))
        rs.add(make_list(iq.query_id, Mode.REVERSED, others + [iq.gold_doc_id]))
    return rs


def c0_q0_context(dataset, runset, **docs):
    """The GoldContext build_gold_contexts makes for the desk dataset's c0-q0
    (gold d0, two positives) once its list in each mode named in docs
    (original, instructed or reversed) holds those doc_ids, scored 1/rank."""
    iq = dataset.instructed_queries["c0-q0"]
    for mode_name, doc_ids in docs.items():
        mode = Mode(mode_name)
        key = iq.core_id if mode is Mode.ORIGINAL else iq.query_id
        runset.lists[key, mode] = make_list(key, mode, doc_ids)
    return next(c for q, c, _ in build_gold_contexts(dataset, runset) if q is iq)
