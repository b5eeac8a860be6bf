"""Three-mode evaluation protocol: join dataset and runs, score, aggregate.

Per instructed query, the gold's rank/score is looked up in the core's
original-mode list and the query's instructed/reversed lists; its EvalRecord
also carries the core's Original-mode nDCG@k and MRR@1.  rows_from_records
makes the rows from the records alone: a dimension row is the unweighted mean
over its queries (over its cores for the core's values); the overall row is
the unweighted mean of the dimension rows, a macro-average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .core import Dataset, Dimension, InstructedQuery, Mode, RankedList, RunSet
from .errors import InfoSearchError
from .metrics import (GoldContext, MetricConfig, mrr_at_1, ndcg_at_k, p_mrr_doc,
                      robustness_at_k, sicr_indicator, wise_ideal_query, wise_per,
                      wise_query)


@dataclass
class EvalRecord:
    query_id: str
    core_id: str
    dimension: Dimension
    gold: GoldContext
    ndcg_ori: float  # the core's, so its row column averages it once per core
    mrr1_ori: int
    # each field below is averaged by the row column of the same name
    wise_act: float
    wise_ideal: float
    sicr: int
    p_mrr: float
    ndcg_ins: float
    ndcg_rev: Optional[float]  # None when the reversed relevant set is empty
    mrr1_ins: int
    mrr1_rev: Optional[int]


RECORD_METRICS = tuple(f.name for f in fields(EvalRecord)[6:])


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
    per: float  # (ideal - act)/ideal
    sicr: float
    query_count: int
    degenerate_reversed: int = 0

    def as_dict(self) -> dict[str, Optional[float]]:
        return {name: getattr(self, name) for name in METRICS}


METRICS = tuple(f.name for f in fields(DimensionSummary)[1:-2])


def _gold_in(ranked: RankedList, doc_id: str) -> tuple[int, float]:
    """Rank and score of doc_id in ranked; depth+1 and -inf when it is absent."""
    try:
        pos = ranked.doc_ids.index(doc_id)
    except ValueError:
        return len(ranked) + 1, float("-inf")
    return pos + 1, ranked.scores[pos]


def build_gold_contexts(dataset: Dataset, runset: RunSet
                        ) -> list[tuple[InstructedQuery, GoldContext,
                                        tuple[RankedList, RankedList, RankedList]]]:
    """One GoldContext per instructed query, with the query's original,
    instructed and reversed lists.  Raises one InfoSearchError that names the
    system, counts every missing list and names the first five."""
    out = []
    gaps: dict[tuple[str, str], None] = {}  # ordered, and a shared core counts once
    for iq in dataset.instructed_queries.values():
        lists = []
        for key, mode in ((iq.core_id, Mode.ORIGINAL), (iq.query_id, Mode.INSTRUCTED),
                          (iq.query_id, Mode.REVERSED)):
            ranked = runset.lists.get((key, mode))
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
        named = ", ".join(f"{mode} {key!r}" for key, mode in list(gaps)[:5])
        raise InfoSearchError(f"{runset.system_id}: {len(gaps)} missing list(s): {named}"
                              f"{', ...' if len(gaps) > 5 else ''}")
    return out


def _mean(values) -> Optional[float]:
    """Mean of the values that are not None; None when none is left."""
    # fsum is exactly rounded, so aggregation is permutation-invariant
    values = [v for v in values if v is not None]
    return math.fsum(values) / len(values) if values else None


def evaluate_system(dataset: Dataset, runset: RunSet, cfg: MetricConfig = MetricConfig()
                    ) -> tuple[list[EvalRecord], list[DimensionSummary]]:
    """Full evaluation: the per-query records, and their rows_from_records."""
    if not dataset.instructed_queries:
        raise InfoSearchError("dataset has no instructed queries")
    records: list[EvalRecord] = []
    # core_id -> (its positives, its Original-mode nDCG@k and MRR@1); a
    # query's relevant sets: its gold, and the other positives (maybe none)
    cores: dict[str, tuple[set[str], float, int]] = {}
    for iq, ctx, (l_ori, l_ins, l_rev) in build_gold_contexts(dataset, runset):
        if iq.core_id not in cores:
            rel = set(dataset.core_queries[iq.core_id].positive_ids())
            cores[iq.core_id] = (rel, ndcg_at_k(l_ori, rel, cfg.k_ndcg), mrr_at_1(l_ori, rel))
        rel_ori, ndcg_ori, mrr1_ori = cores[iq.core_id]
        rel_ins = {iq.gold_doc_id}
        rel_rev = rel_ori - rel_ins
        records.append(EvalRecord(
            query_id=iq.query_id, core_id=iq.core_id, dimension=iq.dimension, gold=ctx,
            ndcg_ori=ndcg_ori, mrr1_ori=mrr1_ori,
            wise_act=wise_query(ctx, cfg),
            wise_ideal=wise_ideal_query(ctx.r_ori, ctx.n_positives, cfg.k_wise),
            sicr=sicr_indicator(ctx),
            p_mrr=p_mrr_doc(ctx.r_ori, ctx.r_ins, cfg.p_mrr_sign),
            ndcg_ins=ndcg_at_k(l_ins, rel_ins, cfg.k_ndcg),
            ndcg_rev=ndcg_at_k(l_rev, rel_rev, cfg.k_ndcg) if rel_rev else None,
            mrr1_ins=mrr_at_1(l_ins, rel_ins),
            mrr1_rev=mrr_at_1(l_rev, rel_rev) if rel_rev else None,
        ))
    return records, rows_from_records(records)


def rows_from_records(records: list[EvalRecord]) -> list[DimensionSummary]:
    """The per-dimension rows in Dimension order, then the overall row; the
    records may come in any order, and there must be at least one."""
    groups: dict[Dimension, dict[str, list[EvalRecord]]] = {dim: {} for dim in Dimension}
    for record in records:
        groups[record.dimension].setdefault(record.core_id, []).append(record)
    rows = [_summarize(cores, dim.value) for dim, cores in groups.items() if cores]
    rows.append(_overall(rows))
    return rows


def _summarize(cores: dict[str, list[EvalRecord]], scope: str) -> DimensionSummary:
    # per core: its Original-mode values, read from one of its records, and
    # the robustness groups of its instruction variants; min and fsum ignore order
    firsts = [group[0] for group in cores.values()]
    records = [r for group in cores.values() for r in group]
    ins_groups = [[r.ndcg_ins for r in group] for group in cores.values()]
    rev_groups = [rev for group in cores.values()
                  if (rev := [r.ndcg_rev for r in group if r.ndcg_rev is not None])]

    values = {name: _mean(getattr(r, name) for r in records) for name in RECORD_METRICS}
    # a core has one original list, so the minimum over its group is its nDCG
    values["ndcg_ori"] = values["robustness_ori"] = _mean(r.ndcg_ori for r in firsts)
    values["per"] = wise_per(values["wise_act"], values["wise_ideal"])
    return DimensionSummary(
        scope=scope, **values, mrr1_ori=_mean(r.mrr1_ori for r in firsts),
        robustness_ins=robustness_at_k(ins_groups),
        robustness_rev=robustness_at_k(rev_groups) if rev_groups else None,
        query_count=len(records),
        degenerate_reversed=sum(1 for r in records if r.ndcg_rev is None),
    )


def _overall(summaries: list[DimensionSummary]) -> DimensionSummary:
    """Unweighted mean of the dimension rows, metric by metric."""
    values = {name: _mean(getattr(s, name) for s in summaries) for name in METRICS}
    values["per"] = wise_per(values["wise_act"], values["wise_ideal"])
    return DimensionSummary(
        scope="overall", **values,
        query_count=sum(s.query_count for s in summaries),
        degenerate_reversed=sum(s.degenerate_reversed for s in summaries),
    )
