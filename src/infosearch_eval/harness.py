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

from .core import Dataset, Dimension, InstructedQuery, Mode, RankedList, RunSet, rank_of
from .errors import EmptyInput, MissingList
from .metrics import (GoldContext, MetricConfig, mrr_at_1, ndcg_at_k, p_mrr_doc,
                      robustness_at_k, sicr, sicr_indicator, wise_ideal_query,
                      wise_per, wise_query)


@dataclass
class EvalRecord:
    query_id: str
    core_id: str
    dimension: Dimension
    gold: GoldContext
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


def _gold_in(ranked: RankedList, doc_id: str) -> tuple[int, float]:
    """Rank and score of doc_id in ranked; depth+1 and -inf when it is absent."""
    rank = rank_of(ranked, doc_id)
    if rank is None:
        return len(ranked) + 1, float("-inf")
    return rank, ranked.entries[rank - 1][1]


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
        (r_ori, s_ori), (r_ins, s_ins), (r_rev, s_rev) = (
            _gold_in(ranked, iq.gold_doc_id) for ranked in lists)
        ctx = GoldContext(r_ori, r_ins, r_rev, s_ori, s_ins, s_rev,
                          n_positives=len(dataset.core_queries[iq.core_id].positives))
        out.append((iq, ctx, tuple(lists)))
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
                    ) -> tuple[list[EvalRecord], list[DimensionSummary]]:
    """Full evaluation: the per-query records, and the per-dimension rows in
    Dimension order followed by the overall row."""
    if not dataset.instructed_queries:
        raise EmptyInput("dataset has no instructed queries")
    records: list[EvalRecord] = []
    by_dimension: dict[Dimension, list[EvalRecord]] = {dim: [] for dim in Dimension}
    originals: dict[str, tuple[RankedList, set[str]]] = {}  # core_id -> list, relevant
    for iq, ctx, (l_ori, l_ins, l_rev) in build_gold_contexts(dataset, runset):
        rel_ori, rel_ins, rel_rev = relevance_sets(dataset, iq)
        originals[iq.core_id] = (l_ori, rel_ori)

        record = EvalRecord(
            query_id=iq.query_id, core_id=iq.core_id, dimension=iq.dimension, gold=ctx,
            wise_f=wise_query(ctx, cfg),
            wise_ideal=wise_ideal_query(ctx.r_ori, ctx.n_positives, cfg.k_wise),
            sicr_i=sicr_indicator(ctx),
            p_mrr=p_mrr_doc(ctx.r_ori, ctx.r_ins, cfg.p_mrr_sign),
            ndcg_ins=ndcg_at_k(l_ins, rel_ins, cfg.k_ndcg),
            ndcg_rev=ndcg_at_k(l_rev, rel_rev, cfg.k_ndcg) if rel_rev else None,
            mrr1_ins=mrr_at_1(l_ins, rel_ins),
            mrr1_rev=mrr_at_1(l_rev, rel_rev) if rel_rev else None,
        )
        records.append(record)
        by_dimension[iq.dimension].append(record)

    rows = [_summarize(originals, cfg, dim_records, dim.value)
            for dim, dim_records in by_dimension.items() if dim_records]
    rows.append(_overall(rows))
    return records, rows


def _summarize(originals: dict[str, tuple[RankedList, set[str]]], cfg: MetricConfig,
               records: list[EvalRecord], scope: str) -> DimensionSummary:
    by_core: dict[str, list[EvalRecord]] = {}
    for r in records:
        by_core.setdefault(r.core_id, []).append(r)

    # per core query: its original list's metrics, and the robustness groups
    # of the instruction variants sharing it; min and fsum ignore their order
    ndcg_ori, mrr1_ori, ins_groups, rev_groups = [], [], [], []
    for core_id, group in by_core.items():
        l_ori, rel = originals[core_id]
        ndcg_ori.append(ndcg_at_k(l_ori, rel, cfg.k_ndcg))
        mrr1_ori.append(mrr_at_1(l_ori, rel))
        ins_groups.append([r.ndcg_ins for r in group])
        rev = [r.ndcg_rev for r in group if r.ndcg_rev is not None]
        if rev:
            rev_groups.append(rev)

    wise_act = _mean(r.wise_f for r in records)
    wise_ideal = _mean(r.wise_ideal for r in records)
    return DimensionSummary(
        scope=scope,
        ndcg_ori=_mean(ndcg_ori),
        ndcg_ins=_mean(r.ndcg_ins for r in records),
        ndcg_rev=_mean_or_none(r.ndcg_rev for r in records),
        mrr1_ori=_mean(mrr1_ori),
        mrr1_ins=_mean(r.mrr1_ins for r in records),
        mrr1_rev=_mean_or_none(r.mrr1_rev for r in records),
        robustness_ori=robustness_at_k([[v] for v in ndcg_ori]),
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
