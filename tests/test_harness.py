import math
import random
from dataclasses import replace
from itertools import groupby

import pytest

from infosearch_eval.core import Dimension, Mode
from infosearch_eval.errors import InfoSearchError
from infosearch_eval.harness import build_gold_contexts, evaluate_system, rows_from_records
from infosearch_eval.synth import SynthSpec, gen_synthetic_dataset, gen_synthetic_runs

from conftest import c0_q0_context, make_list


def test_relevance_sets(desk_dataset, desk_runset):
    # c0-q0: gold d0, positives {d0, d1}; the instructed list ranks d1 last, so
    # nDCG is 1.0 only when the gold alone is relevant, and the reversed list
    # [d1, d2, d3, d0] scores 1.0 only when d1 alone is
    desk_runset.add(make_list("c0-q0", Mode.INSTRUCTED, ["d0", "d2", "d3", "d1"]))
    records, _ = evaluate_system(desk_dataset, desk_runset)
    r = next(r for r in records if r.query_id == "c0-q0")
    assert (r.ndcg_ins, r.ndcg_rev, r.mrr1_rev) == (1.0, 1.0, 1)


def test_relevance_sets_degenerate(desk_dataset, desk_runset):
    # c0 cut to its one positive: c0-q0's reversed relevant set is empty
    desk_dataset.core_queries["c0"] = replace(desk_dataset.core_queries["c0"],
                                              positives=(("d0", "Layman"),))
    del desk_dataset.instructed_queries["c0-q1"]
    records, (audience, fmt, overall) = evaluate_system(desk_dataset, desk_runset)
    r = next(r for r in records if r.query_id == "c0-q0")
    assert (r.ndcg_rev, r.mrr1_rev) == (None, None)
    assert (audience.query_count, audience.degenerate_reversed) == (1, 1)
    assert (audience.ndcg_rev, audience.robustness_rev) == (None, None)
    assert (fmt.query_count, fmt.degenerate_reversed) == (2, 0)
    assert (overall.query_count, overall.degenerate_reversed, overall.ndcg_rev) == (3, 1, 1.0)


def test_build_gold_contexts_lookup(desk_dataset, desk_runset):
    contexts = dict((iq.query_id, ctx) for iq, ctx, _
                    in build_gold_contexts(desk_dataset, desk_runset))
    c = contexts["c0-q1"]  # gold d1: ori rank 2, ins rank 1, rev rank 4
    assert (c.r_ori, c.r_ins, c.r_rev) == (2, 1, 4)
    assert c.n_positives == 2


@pytest.mark.parametrize("docs", [["d2", "d3"], []], ids=["depth-2", "empty"])
@pytest.mark.parametrize("mode, short", [("original", "ori"), ("instructed", "ins"),
                                         ("reversed", "rev")],
                         ids=["original", "instructed", "reversed"])
def test_build_gold_contexts_absent_rank(desk_dataset, desk_runset, mode, short, docs):
    # a gold outside the list ranks at depth + 1 with a score below any other
    c = c0_q0_context(desk_dataset, desk_runset, **{mode: docs})
    assert (getattr(c, f"r_{short}"), getattr(c, f"s_{short}")) == (len(docs) + 1, -math.inf)


def test_build_gold_contexts_negative_score(desk_dataset, desk_runset):
    desk_runset.lists["c0-q0", Mode.INSTRUCTED] = make_list(
        "c0-q0", Mode.INSTRUCTED, ["d2", "d0"], [-0.1, -0.2])
    c = c0_q0_context(desk_dataset, desk_runset)
    assert (c.r_ins, c.s_ins) == (2, -0.2)


def test_missing_list_error(desk_dataset, desk_runset):
    del desk_runset.lists[("c1-q0", Mode.REVERSED)]
    with pytest.raises(InfoSearchError, match="^desk: 1 missing list\\(s\\): reversed 'c1-q0'$"):
        build_gold_contexts(desk_dataset, desk_runset)
    del desk_runset.lists[("c0", Mode.ORIGINAL)]  # shared by c0-q0 and c0-q1
    with pytest.raises(InfoSearchError) as caught:
        build_gold_contexts(desk_dataset, desk_runset)
    assert str(caught.value) == "desk: 2 missing list(s): original 'c0', reversed 'c1-q0'"
    desk_runset.lists.clear()  # ten lists: the first five are named
    with pytest.raises(InfoSearchError) as caught:
        build_gold_contexts(desk_dataset, desk_runset)
    assert str(caught.value) == (
        "desk: 10 missing list(s): original 'c0', instructed 'c0-q0', reversed 'c0-q0',"
        " instructed 'c0-q1', reversed 'c0-q1', ...")


def test_robustness_ori_equals_ndcg_ori(desk_dataset, desk_runset):
    _, rows = evaluate_system(desk_dataset, desk_runset)
    for s in rows:
        assert s.robustness_ori == s.ndcg_ori


def test_overall_is_mean_of_dimension_rows(desk_dataset, desk_runset):
    _, rows = evaluate_system(desk_dataset, desk_runset)
    *summaries, overall = rows
    assert [s.scope for s in rows] == ["Audience", "Format", "overall"]
    assert overall.wise_act == pytest.approx(
        (summaries[0].wise_act + summaries[1].wise_act) / 2, abs=1e-15)
    assert overall.ndcg_ins == pytest.approx(
        (summaries[0].ndcg_ins + summaries[1].ndcg_ins) / 2, abs=1e-15)
    assert overall.query_count == 4


def test_sicr_flag_implies_rank_chain(desk_dataset, desk_runset):
    records, _ = evaluate_system(desk_dataset, desk_runset)
    for r in records:
        if r.sicr == 1:
            assert r.gold.r_ins < r.gold.r_ori < r.gold.r_rev


def test_sicr_mean(desk_dataset, desk_runset):
    # c1 joins Audience, and c1-q1's reversal keeps its gold on top: of the
    # four Audience queries only c0-q1 complies
    desk_dataset.core_queries["c1"] = replace(desk_dataset.core_queries["c1"],
                                              dimension=Dimension.AUDIENCE)
    for qid in ("c1-q0", "c1-q1"):
        desk_dataset.instructed_queries[qid] = replace(desk_dataset.instructed_queries[qid],
                                                       dimension=Dimension.AUDIENCE)
    desk_runset.add(make_list("c1-q1", Mode.REVERSED, ["d5", "d4", "d6", "d7"]))
    records, (row, overall) = evaluate_system(desk_dataset, desk_runset)
    assert [r.sicr for r in records] == [0, 1, 0, 0]
    assert (row.scope, row.query_count, row.sicr, overall.sicr) == ("Audience", 4, 0.25, 0.25)


def test_original_columns_average_cores_not_queries(desk_dataset, desk_runset):
    # Audience holds c0 (two queries, its positives ranked 1 and 2) and c1 (one
    # query, positives ranked 2 and 4): the row's Original-mode columns are the
    # means over its 2 cores, not over its 3 queries
    desk_dataset.core_queries["c1"] = replace(desk_dataset.core_queries["c1"],
                                              dimension=Dimension.AUDIENCE)
    desk_dataset.instructed_queries["c1-q0"] = replace(
        desk_dataset.instructed_queries["c1-q0"], dimension=Dimension.AUDIENCE)
    del desk_dataset.instructed_queries["c1-q1"]
    desk_runset.add(make_list("c1", Mode.ORIGINAL, ["d6", "d4", "d7", "d5"]))
    records, rows = evaluate_system(desk_dataset, desk_runset)
    c1_ndcg = (1 / math.log2(3) + 1 / math.log2(5)) / (1 + 1 / math.log2(3))
    assert [(r.core_id, r.ndcg_ori, r.mrr1_ori) for r in records] == [
        ("c0", 1.0, 1), ("c0", 1.0, 1), ("c1", pytest.approx(c1_ndcg, abs=1e-15), 0)]
    row, overall = rows
    assert (row.scope, row.query_count) == ("Audience", 3)
    assert row.ndcg_ori == row.robustness_ori == pytest.approx((1 + c1_ndcg) / 2, abs=1e-15)
    assert row.mrr1_ori == 0.5
    assert rows_from_records(records[::-1]) == rows


def test_aggregation_permutation_invariant():
    spec = SynthSpec(seed=11, cores_per_dim=3, conditions_per_core=2)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "random")
    _, rows = evaluate_system(ds, rs)

    reversed_ds = type(ds)(
        documents=ds.documents, core_queries=dict(reversed(list(ds.core_queries.items()))),
        instructed_queries=dict(reversed(list(ds.instructed_queries.items()))))
    queries = list(ds.instructed_queries.items())
    random.Random(5).shuffle(queries)
    cores = [iq.core_id for _, iq in queries]
    assert len(list(groupby(cores))) > len(set(cores))  # some core's queries are apart
    interleaved = type(ds)(documents=ds.documents, core_queries=ds.core_queries,
                           instructed_queries=dict(queries))
    for other in (reversed_ds, interleaved):
        _, rows2 = evaluate_system(other, rs)
        assert [(s.scope, s.as_dict(), s.query_count) for s in rows2] == [
            (s.scope, s.as_dict(), s.query_count) for s in rows]


def test_dropping_dimension_only_affects_that_row_and_overall():
    spec = SynthSpec(seed=3, cores_per_dim=2, conditions_per_core=2)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "random")
    _, rows = evaluate_system(ds, rs)

    drop = rows[0].scope
    kept_iqs = {k: v for k, v in ds.instructed_queries.items()
                if v.dimension.value != drop}
    kept_cores = {k: v for k, v in ds.core_queries.items()
                  if v.dimension.value != drop}
    smaller = type(ds)(documents=ds.documents, core_queries=kept_cores,
                       instructed_queries=kept_iqs)
    _, rows2 = evaluate_system(smaller, rs)
    remaining = {s.scope: s.as_dict() for s in rows2}
    for s in rows[1:-1]:  # the other dimensions' rows
        assert remaining[s.scope] == s.as_dict()
