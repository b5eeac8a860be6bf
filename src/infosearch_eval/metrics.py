"""Pure metric kernel: nDCG@k, MRR@1, Robustness@k, p-MRR, SICR and WISE.

No I/O, no shared state; every function is deterministic and re-entrant.
All values are unscaled (nDCG in [0,1], WISE in [-1,1]); presentation
scaling happens in the report layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import RankedList

PMRR_AS_PRINTED = "as-printed"
PMRR_FLIPPED = "flipped"


@dataclass(frozen=True)
class MetricConfig:
    k_ndcg: int = 10
    k_wise: int = 20
    p_mrr_sign: str = PMRR_AS_PRINTED

    def __post_init__(self):
        if self.k_ndcg < 1 or self.k_wise < 1:
            raise ValueError("cutoffs must be >= 1")
        if self.p_mrr_sign not in (PMRR_AS_PRINTED, PMRR_FLIPPED):
            raise ValueError(f"unknown p_mrr_sign {self.p_mrr_sign!r}")


@dataclass(frozen=True)
class GoldContext:
    """Per-instructed-query view of the gold document across the three modes.

    Ranks and scores are final: a gold document outside a mode's list has
    rank depth+1 of that list and score -inf, so strict score comparisons fail.
    """
    r_ori: int
    r_ins: int
    r_rev: int
    s_ori: float
    s_ins: float
    s_rev: float
    n_positives: int


def ndcg_at_k(ranked: RankedList, relevant: set[str], k: int) -> float:
    """Binary-relevance nDCG@k with 1/log2(rank+1) discount; relevant is non-empty."""
    dcg = 0.0
    for pos, doc_id in enumerate(ranked.doc_ids[:k], start=1):
        if doc_id in relevant:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(i + 1) for i in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


def mrr_at_1(ranked: RankedList, relevant: set[str]) -> int:
    """1 iff the top-ranked document is relevant; 0 for an empty list."""
    if not ranked.doc_ids:
        return 0
    return 1 if ranked.doc_ids[0] in relevant else 0


def robustness_at_k(groups: Sequence[Sequence[float]]) -> float:
    """Mean over groups of the minimum nDCG within each group; groups and
    each group are non-empty."""
    minima = [min(g) for g in groups]
    return math.fsum(minima) / len(minima)


def p_mrr_doc(r_og: int, r_new: int, sign: str = PMRR_AS_PRINTED) -> float:
    """Reciprocal-rank-ratio change of one gold document between two modes."""
    mrr_og, mrr_new = 1.0 / r_og, 1.0 / r_new
    if r_og > r_new:
        value = mrr_og / mrr_new - 1.0
    else:
        value = 1.0 - mrr_new / mrr_og
    return -value if sign == PMRR_FLIPPED else value


def sicr_indicator(ctx: GoldContext) -> int:
    """Strict compliance: rank and score improve under the instruction and
    degrade under its reversal, all four comparisons strict."""
    ok = (ctx.r_ins < ctx.r_ori and ctx.s_ins > ctx.s_ori
          and ctx.r_ori < ctx.r_rev and ctx.s_ori > ctx.s_rev)
    return 1 if ok else 0


def wise_reward(r_ori: int, r_ins: int, n: int, k: int) -> float:
    """Reward component; caller guarantees r_ins <= r_ori < r_rev."""
    if r_ori <= n and r_ins == 1:
        return 1.0
    if r_ori <= k:
        return (1.0 - (r_ori - r_ins) / k) / math.sqrt(r_ins)
    return 0.01


def wise_query(ctx: GoldContext, cfg: MetricConfig) -> float:
    """Per-query WISE value in [-1, 1]: the reward, else one of three
    penalties; cases evaluated top-down."""
    r_ori, r_ins, r_rev = ctx.r_ori, ctx.r_ins, ctx.r_rev
    if r_ins <= r_ori < r_rev:
        return wise_reward(r_ori, r_ins, ctx.n_positives, cfg.k_wise)
    if r_rev < r_ori < r_ins:
        return -1.0
    if r_ori <= r_ins:
        return (r_ori - r_ins) / r_ins
    # r_ins < r_ori here, so the failed reward condition leaves r_rev <= r_ori
    return (r_rev - r_ori) / r_ori


def wise_ideal_query(r_ori: int, n: int, k: int) -> float:
    """Best reward achievable from r_ori, assuming the reversed rank can
    always be pushed below r_ori."""
    # when r_ori > k every r >= 2 is rewarded 0.01, so the scan stops at k
    return max(wise_reward(r_ori, r, n, k) for r in range(1, min(r_ori, k) + 1))


def wise_per(act: float, ideal: float, scale: float = 1.0) -> float:
    """WISE Per., the gap scale * (ideal - act) / ideal; ideal > 0, as every Ideal is."""
    return scale * (ideal - act) / ideal
