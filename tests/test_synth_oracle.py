import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from infosearch_eval import ingest
from infosearch_eval.core import (Dataset, Dimension, Mode, RankedList, RunSet,
                                  validate_dataset)
from infosearch_eval.harness import evaluate_system
from infosearch_eval.metrics import PMRR_AS_PRINTED, PMRR_FLIPPED, MetricConfig
from infosearch_eval.oracle import diff_reports, oracle_metrics
from infosearch_eval.synth import (BEHAVIORS, SynthSpec, gen_synthetic_dataset,
                                   gen_synthetic_runs)


def harness_view(dataset, runset, cfg=MetricConfig()):
    return {row.scope: row.as_dict() for row in evaluate_system(dataset, runset, cfg)[1]}


def test_dataset_counts():
    spec = SynthSpec(seed=1, dims=(Dimension.AUDIENCE,), cores_per_dim=2,
                     conditions_per_core=3)
    ds = gen_synthetic_dataset(spec)
    assert len(ds.core_queries) == 2
    assert len(ds.instructed_queries) == 6
    assert len(ds.documents) >= 6
    assert validate_dataset(ds) == []


def test_dataset_determinism(tmp_path):
    spec = SynthSpec(seed=99)
    a, b = tmp_path / "a", tmp_path / "b"
    ingest.write_dataset(gen_synthetic_dataset(spec), a)
    ingest.write_dataset(gen_synthetic_dataset(spec), b)
    for name in ("documents.jsonl", "core_queries.jsonl", "instructed_queries.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_perfect_behavior_is_ideal():
    spec = SynthSpec(seed=5, cores_per_dim=3, conditions_per_core=3)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "perfect")
    records, rows = evaluate_system(ds, rs)
    assert rows[-1].sicr == 1.0
    for r in records:
        assert r.wise_f == r.wise_ideal


def test_anti_behavior_penalized():
    spec = SynthSpec(seed=5, cores_per_dim=3, conditions_per_core=3)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "anti")
    records, rows = evaluate_system(ds, rs)
    overall = rows[-1]
    assert all(r.wise_f <= 0 for r in records)
    assert overall.wise_act < 0
    assert overall.sicr == 0.0


def test_random_between_extremes():
    spec = SynthSpec(seed=5, cores_per_dim=3, conditions_per_core=3)
    ds = gen_synthetic_dataset(spec)
    wises = {}
    for b in BEHAVIORS:
        _, rows = evaluate_system(ds, gen_synthetic_runs(ds, spec, b))
        wises[b] = rows[-1].wise_act
    assert wises["anti"] < wises["random"] < wises["perfect"]


def test_differential_small_sweep():
    rng = random.Random(20240418)
    for i in range(60):
        spec = SynthSpec(seed=rng.randrange(2**32),
                         dims=tuple(rng.sample(list(Dimension), rng.randint(1, 3))),
                         cores_per_dim=rng.randint(1, 3),
                         conditions_per_core=rng.randint(1, 3),
                         corpus_noise_docs=rng.randint(1, 5),
                         run_depth=rng.randint(3, 12))
        ds = gen_synthetic_dataset(spec)
        rs = gen_synthetic_runs(ds, spec, rng.choice(BEHAVIORS))
        assert diff_reports(harness_view(ds, rs), oracle_metrics(ds, rs)) == []


def _like_real_runs(dataset, runset, rng):
    """Synth output reshaped like real data.

    Each core keeps all its positives, only its golds, or one gold (and the
    one instructed query that has it), so some reversed relevant sets are
    empty.  Each list's scores may be quantised into ties, and each list is
    cut at a random depth, 0 included.  Returns the dataset, the harness's
    RunSet, and the oracle's view of the same lists, ordered here by
    (-score, doc_id) and not by RankedList.
    """
    core_queries, instructed = {}, {}
    for core in dataset.core_queries.values():
        variants = [iq for iq in dataset.instructed_queries.values()
                    if iq.core_id == core.core_id]
        keep = rng.choice(("all", "golds", "one"))
        if keep == "one":
            variants = [rng.choice(variants)]
        if keep != "all":
            golds = {iq.gold_doc_id for iq in variants}
            core = replace(core, positives=tuple(p for p in core.positives if p[0] in golds))
        core_queries[core.core_id] = core
        instructed.update((iq.query_id, iq) for iq in variants)
    dataset = Dataset(dataset.documents, core_queries, instructed)

    runs, reference = RunSet(runset.system_id), {}
    for (key, mode), ranked in runset.lists.items():
        quantum = rng.choice((None, 2, 4, 8))
        entries = sorted(((d, s if quantum is None else round(s * quantum) / quantum)
                          for d, s in ranked.entries), key=lambda e: (-e[1], e[0]))
        del entries[rng.randint(0, len(entries)):]
        reference[key, mode] = SimpleNamespace(entries=tuple(entries))
        rng.shuffle(entries)
        runs.add(RankedList(key, mode, entries))
    return dataset, runs, SimpleNamespace(lists=reference)


def test_differential_on_cut_tied_single_positive_runs():
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spec=st.builds(
               SynthSpec, seed=st.integers(0, 2**32 - 1),
               dims=st.lists(st.sampled_from(list(Dimension)), min_size=1, max_size=3,
                             unique=True).map(tuple),
               cores_per_dim=st.integers(1, 3), conditions_per_core=st.integers(1, 3),
               corpus_noise_docs=st.integers(1, 5), run_depth=st.integers(3, 12)),
           behavior=st.sampled_from(BEHAVIORS),
           cfg=st.builds(MetricConfig, k_ndcg=st.integers(1, 10), k_wise=st.integers(1, 20),
                         p_mrr_sign=st.sampled_from((PMRR_AS_PRINTED, PMRR_FLIPPED))),
           rng=st.randoms(use_true_random=False))
    def check(spec, behavior, cfg, rng):
        ds = gen_synthetic_dataset(spec)
        ds, runs, reference = _like_real_runs(ds, gen_synthetic_runs(ds, spec, behavior), rng)
        assert validate_dataset(ds) == []
        assert diff_reports(harness_view(ds, runs, cfg), oracle_metrics(ds, reference, cfg)) == []
        for iq in ds.instructed_queries.values():
            lists = [reference.lists[key].entries for key in (
                (iq.core_id, Mode.ORIGINAL), (iq.query_id, Mode.INSTRUCTED),
                (iq.query_id, Mode.REVERSED))]
            seen["gold missing"] += any(iq.gold_doc_id not in dict(e) for e in lists)
            seen["tied list"] += any(len({s for _, s in e}) < len(e) for e in lists)
            seen["empty list"] += any(not e for e in lists)
            seen["degenerate reversed"] += len(ds.core_queries[iq.core_id].positives) == 1

    check()
    cases = ("gold missing", "tied list", "empty list", "degenerate reversed")
    assert all(seen[case] for case in cases), seen


def test_oracle_footnote_values():
    # the oracle transcribes the same formulas; spot-check the documented
    # counter-example pairs through its arithmetic
    from infosearch_eval.oracle import _naive_ndcg  # noqa: internal on purpose
    assert min([0.8, 0.5, 0.3, 0.2]) == min([0.9, 0.9, 0.9, 0.2]) == 0.2
    # p-MRR pairs (10,5) and (100,50): both improve by half
    for r_og, r_new in ((10, 5), (100, 50)):
        assert (1 / r_og) / (1 / r_new) - 1 == -0.5


def test_scale_invariance_of_all_metrics():
    from infosearch_eval.core import RankedList, RunSet
    spec = SynthSpec(seed=17, cores_per_dim=2, conditions_per_core=2)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "random")
    base = harness_view(ds, rs)
    for factor in (0.001, 7.0, 1e6):
        scaled = RunSet(system_id=rs.system_id)
        for (qk, mode), rl in rs.lists.items():
            scaled.add(RankedList(qk, mode, [(d, s * factor) for d, s in rl.entries]))
        assert diff_reports(base, harness_view(ds, scaled), tol=1e-12) == []
