import math

import pytest

from infosearch_eval.core import Mode, RunSet
from infosearch_eval.errors import MissingList
from infosearch_eval.harness import (build_gold_contexts, evaluate_system,
                                     relevance_sets)
from infosearch_eval.synth import SynthSpec, gen_synthetic_dataset, gen_synthetic_runs

from conftest import c0_q0_context, make_list


def test_relevance_sets(desk_dataset):
    iq = desk_dataset.instructed_queries["c0-q0"]  # gold d0, positives {d0, d1}
    rel_ori, rel_ins, rel_rev = relevance_sets(desk_dataset, iq)
    assert rel_ori == {"d0", "d1"}
    assert rel_ins == {"d0"}
    assert rel_rev == {"d1"}


def test_relevance_sets_degenerate(desk_dataset):
    core = desk_dataset.core_queries["c0"]
    object.__setattr__(core, "positives", (("d0", "Layman"),))
    iq = desk_dataset.instructed_queries["c0-q0"]
    assert relevance_sets(desk_dataset, iq)[2] is None


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
    with pytest.raises(MissingList):
        build_gold_contexts(desk_dataset, desk_runset)
    del desk_runset.lists[("c0", Mode.ORIGINAL)]  # shared by c0-q0 and c0-q1
    with pytest.raises(MissingList) as caught:
        build_gold_contexts(desk_dataset, desk_runset)
    assert caught.value.gaps == [("c0", "original"), ("c1-q0", "reversed")]
    assert str(caught.value) == "2 missing list(s): original 'c0', reversed 'c1-q0'"


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
        if r.sicr_i == 1:
            assert r.gold.r_ins < r.gold.r_ori < r.gold.r_rev


def test_aggregation_permutation_invariant():
    spec = SynthSpec(seed=11, cores_per_dim=3, conditions_per_core=2)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "random")
    _, rows = evaluate_system(ds, rs)

    shuffled = type(ds)(documents=ds.documents,
                        core_queries=dict(reversed(list(ds.core_queries.items()))),
                        instructed_queries=dict(reversed(list(ds.instructed_queries.items()))))
    _, rows2 = evaluate_system(shuffled, rs)
    assert rows[-1].as_dict() == rows2[-1].as_dict()


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
