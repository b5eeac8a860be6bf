"""Brute-force reference evaluation, deliberately naive and slow.

Every formula is transcribed here from scratch, with no code shared with
the metrics or harness modules — differential testing against a shared
bug would be worthless.  Lists are scanned linearly, groups are rebuilt
by filtering, and aggregation is re-derived independently.  The oracle
command refuses datasets of more than MAX_ORACLE_QUERIES instructed queries
before it loads any run file.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import Dataset, Dimension, Mode, RunSet
from .metrics import MetricConfig

MAX_ORACLE_QUERIES = 10_000
# largest difference diff_reports accepts between two values of a field
TOLERANCE = 1e-12


def _linear_find(entries, doc_id) -> tuple[int, float]:
    """(rank, score) of doc_id, or (depth + 1, -inf) when the list lacks it."""
    for i, (d, s) in enumerate(entries):
        if d == doc_id:
            return i + 1, s
    return len(entries) + 1, float("-inf")


def _naive_ndcg(entries, relevant: set[str], k: int) -> float:
    dcg = 0.0
    for rank in range(1, min(k, len(entries)) + 1):
        if entries[rank - 1][0] in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = 0.0
    for rank in range(1, min(k, len(relevant)) + 1):
        idcg += 1.0 / math.log2(rank + 1)
    return dcg / idcg


def _naive_mrr1(entries, relevant: set[str]) -> int:
    if len(entries) == 0:
        return 0
    return 1 if entries[0][0] in relevant else 0


def _reward(r_ori: int, r_ins: int, n: int, k: int) -> float:
    if r_ori <= n and r_ins == 1:
        return 1.0
    if r_ori <= k:
        return (1.0 - (r_ori - r_ins) / k) * (1.0 / math.sqrt(r_ins))
    return 0.01


def _avg(values: list[float]) -> float:
    return sum(values) / len(values)


def _avg_opt(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return _avg(present)


def oracle_metrics(dataset: Dataset, runset: RunSet,
                   cfg: MetricConfig = MetricConfig()) -> dict[str, dict[str, Optional[float]]]:
    """Recompute the full report naively: {scope: {field: value}}."""
    per_query: list[dict] = []
    for iq in dataset.instructed_queries.values():
        core = dataset.core_queries[iq.core_id]
        # each read of entries builds the list's pairs: read them once per list
        e_ori = runset.lists[(iq.core_id, Mode.ORIGINAL)].entries
        e_ins = runset.lists[(iq.query_id, Mode.INSTRUCTED)].entries
        e_rev = runset.lists[(iq.query_id, Mode.REVERSED)].entries
        gold = iq.gold_doc_id
        r_ori, s_ori = _linear_find(e_ori, gold)
        r_ins, s_ins = _linear_find(e_ins, gold)
        r_rev, s_rev = _linear_find(e_rev, gold)

        n = len(core.positives)
        k = cfg.k_wise

        # strict compliance indicator
        if r_ins < r_ori and s_ins > s_ori and r_ori < r_rev and s_ori > s_rev:
            indicator = 1
        else:
            indicator = 0

        # per-query weighted sensitivity value
        if r_ins <= r_ori < r_rev:
            f_q = _reward(r_ori, r_ins, n, k)
        else:
            if r_rev < r_ori < r_ins:
                f_q = -1.0
            elif r_ori <= r_ins:
                f_q = (r_ori - r_ins) / r_ins
            else:
                f_q = (r_rev - r_ori) / r_ori

        # best achievable reward given r_ori
        ideal = max(_reward(r_ori, r, n, k) for r in range(1, r_ori + 1))

        # reciprocal-rank-ratio change, original vs instructed
        if r_ori > r_ins:
            p_mrr = (1.0 / r_ori) / (1.0 / r_ins) - 1.0
        else:
            p_mrr = 1.0 - (1.0 / r_ins) / (1.0 / r_ori)
        if cfg.p_mrr_sign == "flipped":
            p_mrr = -p_mrr

        rel_rev = set(d for d, _ in core.positives) - {gold}
        per_query.append({
            "query_id": iq.query_id, "core_id": iq.core_id, "dim": iq.dimension,
            "f": f_q, "ideal": ideal, "indicator": indicator, "p_mrr": p_mrr,
            "ndcg_ins": _naive_ndcg(e_ins, {gold}, cfg.k_ndcg),
            "ndcg_rev": _naive_ndcg(e_rev, rel_rev, cfg.k_ndcg) if rel_rev else None,
            "mrr1_ins": _naive_mrr1(e_ins, {gold}),
            "mrr1_rev": _naive_mrr1(e_rev, rel_rev) if rel_rev else None,
        })

    report: dict[str, dict[str, Optional[float]]] = {}
    dim_rows: list[dict[str, Optional[float]]] = []
    for dim in Dimension:
        rows = [q for q in per_query if q["dim"] is dim]
        if not rows:
            continue
        core_ids = sorted({q["core_id"] for q in rows})

        ndcg_ori_vals, mrr1_ori_vals = [], []
        ins_minima, rev_minima = [], []
        for core_id in core_ids:
            core = dataset.core_queries[core_id]
            e_ori = runset.lists[(core_id, Mode.ORIGINAL)].entries
            rel = set(d for d, _ in core.positives)
            ndcg_ori_vals.append(_naive_ndcg(e_ori, rel, cfg.k_ndcg))
            mrr1_ori_vals.append(float(_naive_mrr1(e_ori, rel)))
            group_ins = [q["ndcg_ins"] for q in rows if q["core_id"] == core_id]
            ins_minima.append(min(group_ins))
            group_rev = [q["ndcg_rev"] for q in rows
                         if q["core_id"] == core_id and q["ndcg_rev"] is not None]
            if group_rev:
                rev_minima.append(min(group_rev))

        act = _avg([q["f"] for q in rows])
        ideal = _avg([q["ideal"] for q in rows])
        row: dict[str, Optional[float]] = {
            "ndcg_ori": _avg(ndcg_ori_vals),
            "ndcg_ins": _avg([q["ndcg_ins"] for q in rows]),
            "ndcg_rev": _avg_opt([q["ndcg_rev"] for q in rows]),
            "mrr1_ori": _avg(mrr1_ori_vals),
            "mrr1_ins": _avg([float(q["mrr1_ins"]) for q in rows]),
            "mrr1_rev": _avg_opt([None if q["mrr1_rev"] is None else float(q["mrr1_rev"])
                                  for q in rows]),
            "robustness_ori": _avg(ndcg_ori_vals),
            "robustness_ins": _avg(ins_minima),
            "robustness_rev": _avg(rev_minima) if rev_minima else None,
            "p_mrr": _avg([q["p_mrr"] for q in rows]),
            "wise_act": act,
            "wise_ideal": ideal,
            "per": (ideal - act) / ideal if ideal > 0 else None,
            "sicr": _avg([float(q["indicator"]) for q in rows]),
        }
        report[dim.value] = row
        dim_rows.append(row)

    overall: dict[str, Optional[float]] = {}
    for field in dim_rows[0]:
        if field == "per":
            continue
        overall[field] = _avg_opt([row[field] for row in dim_rows])
    o_act, o_ideal = overall["wise_act"], overall["wise_ideal"]
    overall["per"] = (o_ideal - o_act) / o_ideal if o_ideal and o_ideal > 0 else None
    report["overall"] = overall
    return report


def diff_reports(a: dict[str, dict[str, Optional[float]]],
                 b: dict[str, dict[str, Optional[float]]]) -> list[str]:
    """Field-by-field comparison; returns human-readable mismatches."""
    mismatches = []
    for scope in sorted(set(a) | set(b)):
        if scope not in a or scope not in b:
            mismatches.append(f"{scope}: missing on one side")
            continue
        for field in sorted(set(a[scope]) | set(b[scope])):
            va, vb = a[scope].get(field), b[scope].get(field)
            if va is None and vb is None:
                continue
            if va is None or vb is None or abs(va - vb) > TOLERANCE:
                mismatches.append(f"{scope}.{field}: {va} != {vb}")
    return mismatches
