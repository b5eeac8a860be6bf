"""Three-mode evaluation protocol: join dataset and runs, score, aggregate.

Per instructed query, the gold document's rank/score is looked up in the
core query's original-mode list and in the query's instructed/reversed
lists.  Per-dimension rows are unweighted means; the overall row is the
unweighted mean of the dimension rows (dimensions have unequal query
counts, so this is a macro-average).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, fields
from typing import Optional

from .core import (Dataset, Dimension, InstructedQuery, Mode, RankedList, RunSet,
                   rank_of, score_of)
from .errors import EmptyInput, MissingList
from .metrics import (GoldContext, MetricConfig, mrr_at_1, ndcg_at_k, p_mrr_doc,
                      robustness_at_k, sicr, sicr_indicator, wise_ideal_query,
                      wise_per, wise_query)


@dataclass
class EvalRecord:
    query_id: str
    core_id: str
    dimension: Dimension
    r_ori: int
    r_ins: int
    r_rev: int
    s_ori: float
    s_ins: float
    s_rev: float
    wise_f: float
    wise_ideal: float
    sicr_i: int
    p_mrr: float
    ndcg_ins: float
    ndcg_rev: Optional[float]  # None when the reversed relevant set is empty
    mrr1_ins: int
    mrr1_rev: Optional[int]


@dataclass
class DimensionSummary:
    scope: str  # dimension name or "overall"
    # the metric fields, up to query_count, in report column order
    ndcg_ori: float
    ndcg_ins: float
    ndcg_rev: Optional[float]
    mrr1_ori: float
    mrr1_ins: float
    mrr1_rev: Optional[float]
    robustness_ori: float
    robustness_ins: float
    robustness_rev: Optional[float]
    p_mrr: float
    wise_act: float
    wise_ideal: float
    per: Optional[float]  # (ideal - act)/ideal, None when ideal <= 0
    sicr: float
    query_count: int
    degenerate_reversed: int = 0

    def as_dict(self) -> dict[str, Optional[float]]:
        return {name: getattr(self, name) for name in METRICS}


METRICS = tuple(f.name for f in fields(DimensionSummary)[1:-2])


def relevance_sets(dataset: Dataset, iq: InstructedQuery
                   ) -> tuple[set[str], set[str], Optional[set[str]]]:
    """Relevant docs per mode: all positives / the gold alone / positives
    minus gold, the last None when the core has a single positive."""
    rel_ori = set(dataset.core_queries[iq.core_id].positive_ids())
    rel_ins = {iq.gold_doc_id}
    return rel_ori, rel_ins, (rel_ori - rel_ins) or None


def build_gold_contexts(dataset: Dataset, runset: RunSet
                        ) -> list[tuple[InstructedQuery, GoldContext,
                                        tuple[RankedList, RankedList, RankedList]]]:
    """One GoldContext per instructed query, with the query's original,
    instructed and reversed lists; raises one MissingList carrying every gap."""
    out = []
    gaps: dict[tuple[str, str], None] = {}  # ordered, and a shared core counts once
    for iq in dataset.instructed_queries.values():
        lists = []
        for key, mode in ((iq.core_id, Mode.ORIGINAL), (iq.query_id, Mode.INSTRUCTED),
                          (iq.query_id, Mode.REVERSED)):
            ranked = runset.get(key, mode)
            if ranked is None:
                gaps[key, mode.value] = None
            lists.append(ranked)
        if gaps:
            continue
        l_ori, l_ins, l_rev = lists
        gold = iq.gold_doc_id
        n = len(dataset.core_queries[iq.core_id].positives)
        ctx = GoldContext(
            r_ori=rank_of(l_ori, gold), r_ins=rank_of(l_ins, gold), r_rev=rank_of(l_rev, gold),
            s_ori=score_of(l_ori, gold), s_ins=score_of(l_ins, gold), s_rev=score_of(l_rev, gold),
            n_positives=n, depth_ori=len(l_ori), depth_ins=len(l_ins), depth_rev=len(l_rev))
        out.append((iq, ctx, (l_ori, l_ins, l_rev)))
    if gaps:
        raise MissingList(list(gaps))
    return out


def _mean(values) -> float:
    # fsum is exactly rounded, so aggregation is permutation-invariant
    values = list(values)
    return math.fsum(values) / len(values)


def _mean_or_none(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return math.fsum(values) / len(values) if values else None


def evaluate_system(dataset: Dataset, runset: RunSet, cfg: MetricConfig = MetricConfig()
                    ) -> tuple[list[EvalRecord], list[DimensionSummary], DimensionSummary]:
    """Full evaluation: per-query records, per-dimension rows, overall row."""
    if not dataset.instructed_queries:
        raise EmptyInput("dataset has no instructed queries")
    records: list[EvalRecord] = []
    originals: dict[str, tuple[RankedList, set[str]]] = {}  # core_id -> list, relevant
    for iq, ctx, (l_ori, l_ins, l_rev) in build_gold_contexts(dataset, runset):
        r_ori, r_ins, r_rev = ctx.resolved_ranks()
        s_ori, s_ins, s_rev = ctx.resolved_scores()
        rel_ori, rel_ins, rel_rev = relevance_sets(dataset, iq)
        originals[iq.core_id] = (l_ori, rel_ori)

        records.append(EvalRecord(
            query_id=iq.query_id, core_id=iq.core_id, dimension=iq.dimension,
            r_ori=r_ori, r_ins=r_ins, r_rev=r_rev,
            s_ori=s_ori, s_ins=s_ins, s_rev=s_rev,
            wise_f=wise_query(ctx, cfg),
            wise_ideal=wise_ideal_query(r_ori, ctx.n_positives, cfg.k_wise),
            sicr_i=sicr_indicator(ctx),
            p_mrr=p_mrr_doc(r_ori, r_ins, cfg.p_mrr_sign),
            ndcg_ins=ndcg_at_k(l_ins, rel_ins, cfg.k_ndcg),
            ndcg_rev=ndcg_at_k(l_rev, rel_rev, cfg.k_ndcg) if rel_rev else None,
            mrr1_ins=mrr_at_1(l_ins, rel_ins),
            mrr1_rev=mrr_at_1(l_rev, rel_rev) if rel_rev else None,
        ))

    dims = sorted({r.dimension for r in records}, key=lambda d: list(Dimension).index(d))
    summaries = [_summarize(originals, cfg, [r for r in records if r.dimension is dim],
                            dim.value)
                 for dim in dims]
    overall = _overall(summaries)
    return records, summaries, overall


def _summarize(originals: dict[str, tuple[RankedList, set[str]]], cfg: MetricConfig,
               records: list[EvalRecord], scope: str) -> DimensionSummary:
    core_ids = sorted({r.core_id for r in records})

    ndcg_ori_by_core: dict[str, float] = {}
    mrr1_ori_by_core: dict[str, float] = {}
    for core_id in core_ids:
        l_ori, rel = originals[core_id]
        ndcg_ori_by_core[core_id] = ndcg_at_k(l_ori, rel, cfg.k_ndcg)
        mrr1_ori_by_core[core_id] = mrr_at_1(l_ori, rel)

    # robustness groups: instruction variants sharing a core query
    ins_groups = [[r.ndcg_ins for r in records if r.core_id == core_id]
                  for core_id in core_ids]
    rev_groups = [[r.ndcg_rev for r in records
                   if r.core_id == core_id and r.ndcg_rev is not None]
                  for core_id in core_ids]
    rev_groups = [g for g in rev_groups if g]

    wise_act = _mean(r.wise_f for r in records)
    wise_ideal = _mean(r.wise_ideal for r in records)
    return DimensionSummary(
        scope=scope,
        ndcg_ori=_mean(ndcg_ori_by_core.values()),
        ndcg_ins=_mean(r.ndcg_ins for r in records),
        ndcg_rev=_mean_or_none(r.ndcg_rev for r in records),
        mrr1_ori=_mean(mrr1_ori_by_core.values()),
        mrr1_ins=_mean(r.mrr1_ins for r in records),
        mrr1_rev=_mean_or_none(r.mrr1_rev for r in records),
        robustness_ori=robustness_at_k([[v] for v in ndcg_ori_by_core.values()]),
        robustness_ins=robustness_at_k(ins_groups),
        robustness_rev=robustness_at_k(rev_groups) if rev_groups else None,
        p_mrr=_mean(r.p_mrr for r in records),
        wise_act=wise_act,
        wise_ideal=wise_ideal,
        per=wise_per(wise_act, wise_ideal),
        sicr=sicr(r.sicr_i for r in records),
        query_count=len(records),
        degenerate_reversed=sum(1 for r in records if r.ndcg_rev is None),
    )


def _overall(summaries: list[DimensionSummary]) -> DimensionSummary:
    """Unweighted mean of the dimension rows, metric by metric."""
    values = {name: _mean_or_none(getattr(s, name) for s in summaries) for name in METRICS}
    values["per"] = wise_per(values["wise_act"], values["wise_ideal"])
    return DimensionSummary(
        scope="overall", **values,
        query_count=sum(s.query_count for s in summaries),
        degenerate_reversed=sum(s.degenerate_reversed for s in summaries),
    )
