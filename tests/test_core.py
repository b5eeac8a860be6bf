import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infosearch_eval.core import (Dimension, Document, InstructedQuery, Mode,
                                  RankedList, validate_dataset)
from infosearch_eval.errors import InfoSearchError


def test_rank_of_basic():
    # a doc's rank is one plus its position in doc_ids
    rl = RankedList("q", Mode.ORIGINAL, [("b", 0.5), ("a", 0.9)])
    assert rl.doc_ids == ("a", "b")
    assert list(rl.scores) == [0.9, 0.5]
    assert "c" not in rl.doc_ids


def test_rank_of_tie_broken_by_doc_id():
    rl = RankedList("q", Mode.ORIGINAL, [("b", 0.9), ("a", 0.9)])
    assert rl.doc_ids == ("a", "b")


def test_duplicate_doc_rejected():
    with pytest.raises(InfoSearchError):
        RankedList("q", Mode.ORIGINAL, [("a", 0.9), ("a", 0.5)])


def test_duplicate_doc_names_the_first_repeat_in_canonical_order():
    # in input order b repeats first; in canonical order (b, a, a, b) a does
    with pytest.raises(InfoSearchError) as got:
        RankedList("q", Mode.ORIGINAL, [("b", 1.0), ("a", 0.5), ("b", 0.2), ("a", 0.9)])
    assert str(got.value) == "duplicate doc 'a' in list for 'q'"


def test_ranked_list_keeps_no_per_entry_index():
    # a gold's rank is found by scanning doc_ids: a map per list would cost
    # memory on every entry
    rl = RankedList("q", Mode.ORIGINAL, [("b", 0.9), ("a", 0.9), ("c", 0.1)])
    assert set(vars(rl)) == {"query_key", "mode", "doc_ids", "scores"}


def test_ranked_list_reads_its_entries_once():
    pairs = [("b", 0.5), ("a", 0.9), ("c", -0.0), ("d", 0.0)]
    rl = RankedList("q", Mode.ORIGINAL, (pair for pair in pairs))
    assert rl == RankedList("q", Mode.ORIGINAL, pairs)
    assert rl.entries == (("a", 0.9), ("b", 0.5), ("c", -0.0), ("d", 0.0))
    assert [math.copysign(1.0, score) for score in rl.scores] == [1.0, 1.0, -1.0, 1.0]
    assert RankedList("q", Mode.ORIGINAL, iter(())).entries == ()


entries_st = st.lists(
    st.tuples(st.integers(0, 30).map(lambda i: f"d{i:02d}"),
              st.floats(-10, 10, allow_nan=False)),
    unique_by=lambda e: e[0], max_size=20)


@given(entries_st)
def test_canonicalization_idempotent(entries):
    once = RankedList("q", Mode.ORIGINAL, entries)
    twice = RankedList("q", Mode.ORIGINAL, list(once.entries))
    assert once.entries == twice.entries


@given(entries_st)
def test_rank_of_is_bijection(entries):
    rl = RankedList("q", Mode.ORIGINAL, entries)
    assert sorted(rl.doc_ids) == sorted(doc_id for doc_id, _ in entries)
    assert len(set(rl.doc_ids)) == len(entries)


@given(st.lists(st.tuples(st.integers(0, 30).map(lambda i: f"d{i:02d}"),
                          st.sampled_from([-1.0, 0.0, 0.5, 2.0])),
                unique_by=lambda e: e[0], max_size=30),
       st.integers(0, 30).map(lambda i: f"d{i:02d}"))
def test_rank_of_is_the_canonical_position_on_tied_lists(entries, probe):
    rl = RankedList("q", Mode.ORIGINAL, entries)
    for doc_id, score in entries:
        # canonical position: the entries with a higher score, or an equal
        # score and a smaller doc_id, come first
        ahead = sum(1 for d, s in entries if s > score or (s == score and d < doc_id))
        assert rl.doc_ids[ahead] == doc_id
        assert rl.scores[ahead] == score
    assert (probe in rl.doc_ids) == (probe in dict(entries))


def test_validate_desk_dataset(desk_dataset):
    assert validate_dataset(desk_dataset) == []


def test_validate_detects_bad_gold(desk_dataset):
    bad = desk_dataset.instructed_queries["c0-q0"]
    desk_dataset.instructed_queries["c0-q0"] = InstructedQuery(
        query_id=bad.query_id, core_id=bad.core_id, dimension=bad.dimension,
        condition=bad.condition, instructed_text=bad.instructed_text,
        reversed_text=bad.reversed_text, gold_doc_id="d7")
    assert any("c0-q0" in v and "gold" in v for v in validate_dataset(desk_dataset))


def test_validate_detects_empty_text(desk_dataset):
    desk_dataset.documents["d0"] = Document("d0", "", Dimension.AUDIENCE, "Layman")
    assert validate_dataset(desk_dataset) == ["document d0: empty text"]


def test_validate_detects_duplicate_condition(desk_dataset):
    iq = desk_dataset.instructed_queries["c0-q1"]
    desk_dataset.instructed_queries["c0-q1"] = InstructedQuery(
        query_id=iq.query_id, core_id=iq.core_id, dimension=iq.dimension,
        condition="Layman", instructed_text=iq.instructed_text,
        reversed_text=iq.reversed_text, gold_doc_id=iq.gold_doc_id)
    assert any("duplicate (core_id, condition)" in v for v in validate_dataset(desk_dataset))


def test_validate_detects_dimension_other_than_the_cores(desk_dataset):
    iq = desk_dataset.instructed_queries["c0-q1"]
    desk_dataset.instructed_queries["c0-q1"] = replace(iq, dimension=Dimension.FORMAT)
    assert validate_dataset(desk_dataset) == [
        "instructed query c0-q1: dimension Format differs from core c0's Audience"]


def test_validate_detects_condition_other_than_the_golds(desk_dataset):
    # the two queries of c0 swap conditions, so each (core_id, condition) stays unique
    for query_id, condition in (("c0-q0", "Expert"), ("c0-q1", "Layman")):
        iq = desk_dataset.instructed_queries[query_id]
        desk_dataset.instructed_queries[query_id] = replace(iq, condition=condition)
    assert validate_dataset(desk_dataset) == [
        "instructed query c0-q0: condition Expert differs from gold d0's Layman",
        "instructed query c0-q1: condition Layman differs from gold d1's Expert"]


def _c0_positives(*positives, dimension=Dimension.AUDIENCE):
    """Give core c0 these positives, and it and its queries this dimension."""
    def edit(dataset):
        dataset.core_queries["c0"] = replace(dataset.core_queries["c0"], dimension=dimension,
                                             positives=positives)
        for query_id in ("c0-q0", "c0-q1"):
            iq = dataset.instructed_queries[query_id]
            dataset.instructed_queries[query_id] = replace(iq, dimension=dimension)
    return edit


def _unknown_core(dataset):
    iq = dataset.instructed_queries["c0-q0"]
    dataset.instructed_queries["c0-q0"] = replace(iq, core_id="c9")


# d2 is a third positive of c0 that repeats d0's condition
_REPEATED_CONDITION = (("d0", "Layman"), ("d1", "Expert"), ("d2", "Layman"))


@pytest.mark.parametrize("edit, violations", [
    (_c0_positives(), ["core query c0: no positives",
                       "instructed query c0-q0: gold d0 not among parent positives",
                       "instructed query c0-q1: gold d1 not among parent positives"]),
    (_c0_positives(*_REPEATED_CONDITION),
     ["core query c0: duplicate conditions among positives"]),
    (_c0_positives(*_REPEATED_CONDITION, dimension=Dimension.KEYWORD), []),
    (_c0_positives(("d0", "Layman"), ("d1", "Expert"), ("d9", "Novice")),
     ["core query c0: unknown positive doc d9"]),
    (_unknown_core, ["instructed query c0-q0: unknown core c9"]),
], ids=["no-positives", "duplicate-conditions", "keyword-duplicate-conditions",
        "unknown-positive-doc", "unknown-core"])
def test_validate_detects_faulty_core_queries_and_references(desk_dataset, edit, violations):
    edit(desk_dataset)
    assert validate_dataset(desk_dataset) == violations
