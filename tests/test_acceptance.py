"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one status line per
criterion.
"""

import os
import random
import time
from pathlib import Path

import pytest

from infosearch_eval import ingest
from infosearch_eval.bm25 import Bm25Params, build_index, search
from infosearch_eval.cli import main
from infosearch_eval.core import Dimension, RankedList, RunSet
from infosearch_eval.harness import evaluate_system
from infosearch_eval.metrics import (GoldContext, MetricConfig, p_mrr_doc,
                                     robustness_at_k, wise_per,
                                     wise_query, wise_reward)
from infosearch_eval.oracle import diff_reports, oracle_metrics
from infosearch_eval.synth import (BEHAVIORS, SynthSpec, gen_synthetic_dataset,
                                   gen_synthetic_runs)

from test_bm25 import brute_force_rank, random_corpus


def _report(n, label):
    print(f"\nACCEPTANCE {n}: PASS - {label}")


def _harness_view(ds, rs, cfg=MetricConfig()):
    return {row.scope: row.as_dict() for row in evaluate_system(ds, rs, cfg)[1]}


def test_criterion_1_counterexamples():
    t0 = time.perf_counter()
    assert p_mrr_doc(10, 5) == -0.5
    assert p_mrr_doc(100, 50) == -0.5
    assert robustness_at_k([[0.8, 0.5, 0.3, 0.2]]) == 0.2
    assert robustness_at_k([[0.9, 0.9, 0.9, 0.2]]) == 0.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.001
    _report(1, f"counter-example values exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_wise_boundaries():
    rev_ori_ins = GoldContext(r_ori=5, r_ins=9, r_rev=2, s_ori=1 / 5, s_ins=1 / 9,
                              s_rev=1 / 2, n_positives=1)
    assert wise_query(rev_ori_ins, MetricConfig()) == -1.0   # rev < ori < ins
    assert wise_reward(r_ori=3, r_ins=1, n=5, k=20) == 1.0   # ori <= N, ins = 1
    assert wise_reward(r_ori=25, r_ins=10, n=1, k=20) == 0.01  # beyond top K
    _report(2, "WISE boundary cases exact")


def test_criterion_3_per_reconstruction():
    value = wise_per(-3.0, 65.9, 100.0)
    assert abs(value - 104.6) <= 0.05
    _report(3, f"wise_per(-3.0, 65.9, 100.0) = {value:.3f} within +/-0.05 of 104.6")


def test_criterion_4_differential_oracle_1000():
    rng = random.Random(0xD1FF)
    t0 = time.perf_counter()
    for i in range(1000):
        spec = SynthSpec(seed=rng.randrange(2**32),
                         dims=tuple(rng.sample(list(Dimension), rng.randint(1, 2))),
                         cores_per_dim=rng.randint(1, 3),
                         conditions_per_core=rng.randint(1, 3),
                         corpus_noise_docs=rng.randint(1, 4),
                         run_depth=rng.randint(3, 10))
        ds = gen_synthetic_dataset(spec)
        assert len(ds.instructed_queries) <= 50
        rs = gen_synthetic_runs(ds, spec, rng.choice(BEHAVIORS))
        mismatches = diff_reports(_harness_view(ds, rs), oracle_metrics(ds, rs))
        assert mismatches == [], f"pair {i}: {mismatches[:3]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(4, f"1000 synthetic pairs agree to 1e-12 in {elapsed:.1f}s")


def test_criterion_5_case_totality():
    cfg = MetricConfig()
    t0 = time.perf_counter()
    for r_ins in range(1, 13):
        for r_ori in range(1, 13):
            for r_rev in range(1, 13):
                reward = r_ins <= r_ori < r_rev
                pen_a = (not reward) and r_rev < r_ori < r_ins
                pen_b = (not reward) and (not pen_a) and r_ori <= r_ins
                pen_c = (not reward) and (not pen_a) and (not pen_b) and r_rev <= r_ori
                assert reward + pen_a + pen_b + pen_c == 1
                ctx = GoldContext(r_ori=r_ori, r_ins=r_ins, r_rev=r_rev,
                                  s_ori=0.5, s_ins=0.5, s_rev=0.5, n_positives=1)
                assert -1.0 <= wise_query(ctx, cfg) <= 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _report(5, f"12^3 rank triples: exactly one branch, range [-1,1], {elapsed:.2f}s")


def test_criterion_6_behavior_ordering():
    t0 = time.perf_counter()
    spec = SynthSpec(seed=606, dims=tuple(Dimension), cores_per_dim=20,
                     conditions_per_core=3)
    ds = gen_synthetic_dataset(spec)
    overall = {}
    records = {}
    for b in BEHAVIORS:
        recs, rows = evaluate_system(ds, gen_synthetic_runs(ds, spec, b))
        overall[b], records[b] = rows[-1], recs
    assert overall["perfect"].sicr == 1.0
    assert all(r.wise_act == r.wise_ideal for r in records["perfect"])
    assert overall["anti"].wise_act < 0
    assert overall["anti"].sicr == 0.0
    assert overall["anti"].wise_act < overall["random"].wise_act < overall["perfect"].wise_act
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(6, f"perfect/random/anti ordering strict in {elapsed:.2f}s")


def test_criterion_7_bm25_vs_brute_force():
    params = Bm25Params()
    rng = random.Random(7)
    t0 = time.perf_counter()
    from test_bm25 import VOCAB
    for _ in range(200):
        docs = random_corpus(rng, max_docs=64)
        idx = build_index(docs, params)
        query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 5)))
        got = [d for d, _ in search(idx, params, query, top_k=len(docs))]
        expected = [d for d, _ in brute_force_rank(docs, params, query)]
        assert got == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(7, f"200 corpora <=64 docs: exact rank agreement in {elapsed:.1f}s")


def test_criterion_8_invariance():
    spec = SynthSpec(seed=808, cores_per_dim=3, conditions_per_core=2)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "random")
    base = _harness_view(ds, rs)

    for factor in (1e-3, 3.7, 1e9):
        scaled = RunSet(system_id="scaled")
        for (qk, mode), rl in rs.lists.items():
            scaled.add(RankedList(qk, mode, [(d, s * factor) for d, s in rl.entries]))
        assert _harness_view(ds, scaled) == base  # exact, including SICR

    shuffled = type(ds)(
        documents=ds.documents,
        core_queries=dict(reversed(list(ds.core_queries.items()))),
        instructed_queries=dict(reversed(list(ds.instructed_queries.items()))))
    assert _harness_view(shuffled, rs) == base
    _report(8, "positive score scaling and permutation leave all metrics unchanged")


OFFICIAL_DATASET = os.environ.get("INFOSEARCH_DATASET", "data/infosearch")


@pytest.mark.skipif(not Path(OFFICIAL_DATASET).is_dir(),
                    reason="official dataset not present (set INFOSEARCH_DATASET)")
def test_criterion_9_official_bm25_row(tmp_path):
    dataset = ingest.load_dataset(OFFICIAL_DATASET)
    from infosearch_eval.bm25 import run_all_modes
    runset = run_all_modes(dataset, Bm25Params(), 100)
    overall = evaluate_system(dataset, runset)[1][-1]
    assert abs(overall.ndcg_ori * 100 - 47.5) <= 3.0
    assert abs(overall.ndcg_ins * 100 - 39.1) <= 3.0
    assert overall.sicr == 0.0
    _report(9, "official BM25 row within +/-3.0 nDCG points, SICR exactly 0")


def test_criterion_10_throughput(tmp_path):
    # 6 dims x 89 cores x 3 conditions = 1602 instructed queries
    spec = SynthSpec(seed=1000, dims=tuple(Dimension), cores_per_dim=89,
                     conditions_per_core=3, corpus_noise_docs=4, run_depth=8)
    ds = gen_synthetic_dataset(spec)
    assert len(ds.instructed_queries) == 1602
    dataset_dir = tmp_path / "dataset"
    ingest.write_dataset(ds, dataset_dir)
    runs_dir = tmp_path / "runs"
    for i in range(16):
        sys_spec = SynthSpec(seed=2000 + i, dims=spec.dims,
                             cores_per_dim=spec.cores_per_dim,
                             conditions_per_core=spec.conditions_per_core,
                             corpus_noise_docs=spec.corpus_noise_docs,
                             run_depth=spec.run_depth)
        rs = gen_synthetic_runs(ds, sys_spec, BEHAVIORS[i % 3])
        ingest.write_system(ds, rs, runs_dir / f"sys{i:02d}", tag=f"sys{i:02d}")

    t0 = time.perf_counter()
    rc = main(["evaluate", str(dataset_dir), str(runs_dir),
               "--out", str(tmp_path / "reports")])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 5
    _report(10, f"16 systems x 1602 queries evaluated in {elapsed:.2f}s")
