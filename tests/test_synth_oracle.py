import json
import math
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from infosearch_eval import ingest
from infosearch_eval.cli import main
from infosearch_eval.core import (Dataset, Dimension, Mode, RankedList, RunSet,
                                  validate_dataset)
from infosearch_eval.harness import evaluate_system, rows_from_records
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
        assert r.wise_act == r.wise_ideal


def test_anti_behavior_penalized():
    spec = SynthSpec(seed=5, cores_per_dim=3, conditions_per_core=3)
    ds = gen_synthetic_dataset(spec)
    rs = gen_synthetic_runs(ds, spec, "anti")
    records, rows = evaluate_system(ds, rs)
    overall = rows[-1]
    assert all(r.wise_act <= 0 for r in records)
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
                         conditions_per_core=(conditions := rng.randint(1, 3)),
                         corpus_noise_docs=rng.randint(1, 5),
                         run_depth=rng.randint(conditions + 2, 12))
        ds = gen_synthetic_dataset(spec)
        rs = gen_synthetic_runs(ds, spec, rng.choice(BEHAVIORS))
        assert diff_reports(harness_view(ds, rs), oracle_metrics(ds, rs)) == []


def _like_real_runs(dataset, runset, rng, min_depth=0):
    """Synth output reshaped like real data.

    Each core keeps all its positives, only its golds, or one gold (and the
    one instructed query that has it), so some reversed relevant sets are
    empty.  Each list's scores may be quantised into ties, and each list is
    cut at a random depth of at least min_depth.  Returns the dataset, the
    harness's RunSet, and the oracle's view of the same lists, ordered here
    by (-score, doc_id) and not by RankedList.
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
        del entries[rng.randint(min_depth, len(entries)):]
        reference[key, mode] = SimpleNamespace(entries=tuple(entries))
        rng.shuffle(entries)
        runs.add(RankedList(key, mode, entries))
    return dataset, runs, SimpleNamespace(lists=reference)


QUERY_COLUMNS = ("ndcg_ins", "ndcg_rev", "mrr1_ins", "mrr1_rev", "p_mrr", "wise_act",
                 "wise_ideal", "sicr")

SPECS = st.integers(1, 3).flatmap(lambda conditions: st.builds(
    SynthSpec, seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.sampled_from(list(Dimension)), min_size=1, max_size=3,
                  unique=True).map(tuple),
    cores_per_dim=st.integers(1, 3), conditions_per_core=st.just(conditions),
    corpus_noise_docs=st.integers(1, 5), run_depth=st.integers(conditions + 2, 12)))
CONFIGS = st.builds(MetricConfig, k_ndcg=st.integers(1, 10), k_wise=st.integers(1, 20),
                    p_mrr_sign=st.sampled_from((PMRR_AS_PRINTED, PMRR_FLIPPED)))


def test_differential_on_cut_tied_single_positive_runs():
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spec=SPECS, behavior=st.sampled_from(BEHAVIORS), cfg=CONFIGS,
           rng=st.randoms(use_true_random=False))
    def check(spec, behavior, cfg, rng):
        ds = gen_synthetic_dataset(spec)
        ds, runs, reference = _like_real_runs(ds, gen_synthetic_runs(ds, spec, behavior), rng)
        assert validate_dataset(ds) == []
        records, rows = evaluate_system(ds, runs, cfg)
        assert diff_reports({row.scope: row.as_dict() for row in rows},
                            oracle_metrics(ds, reference, cfg)) == []
        # the rows are a function of the records alone, in any order
        assert rows_from_records(rng.sample(records, len(records))) == rows
        # a dimension row's query-level columns are the means of its records
        for row in rows[:-1]:
            own = [r for r in records if r.dimension.value == row.scope]
            assert row.query_count == len(own)
            assert row.robustness_ori == row.ndcg_ori
            for name in QUERY_COLUMNS:
                values = [getattr(r, name) for r in own if getattr(r, name) is not None]
                assert getattr(row, name) == (
                    math.fsum(values) / len(values) if values else None), name
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


def _append_below_the_gold(dataset, runs, system_dir, rng):
    """Append to the run files of system_dir 1 to 3 entries below each list
    that holds its gold (an Original list, every gold of its core), with
    scores below the list's lowest: the core's positives that the list lacks
    first, then other documents.  Returns the set of (key, mode) of the lists grown."""
    golds = {}
    for iq in dataset.instructed_queries.values():
        golds.setdefault((iq.core_id, Mode.ORIGINAL), set()).add(iq.gold_doc_id)
        golds[iq.query_id, Mode.INSTRUCTED] = golds[iq.query_id, Mode.REVERSED] = {
            iq.gold_doc_id}
    others = sorted(dataset.documents)
    grown = set()
    for (key, mode), gold in golds.items():
        ranked = runs.lists[key, mode]
        if not gold <= set(ranked.doc_ids):
            continue
        core_id = key if mode is Mode.ORIGINAL else dataset.instructed_queries[key].core_id
        rng.shuffle(others)
        extra = [d for d in dict.fromkeys(
            [*dataset.core_queries[core_id].positive_ids(), *others])
            if d not in ranked.doc_ids][:rng.randint(1, 3)]
        with (system_dir / ingest.MODE_FILES[mode]).open("a") as fh:
            for i, doc_id in enumerate(extra, start=1):
                fh.write(f"{key} Q0 {doc_id} {len(ranked) + i} {min(ranked.scores) - i!r} x\n")
        if extra:
            grown.add((key, mode))
    return grown


def test_entries_below_the_gold_change_no_score():
    # the gold keeps its rank and score in every mode, so SICR, WISE and
    # p-MRR stay bit-identical; nDCG@k does too where the list was k deep
    seen = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=SPECS, behavior=st.sampled_from(BEHAVIORS), cfg=CONFIGS,
           rng=st.randoms(use_true_random=False))
    def check(spec, behavior, cfg, rng):
        ds = gen_synthetic_dataset(spec)
        ds, runs, _ = _like_real_runs(ds, gen_synthetic_runs(ds, spec, behavior), rng,
                                      min_depth=1)  # a run file holds no empty list
        with tempfile.TemporaryDirectory() as tmp:
            system = Path(tmp) / behavior
            ingest.write_system(ds, runs, system, tag=behavior)
            before, rows_before = evaluate_system(ds, ingest.load_system(system), cfg)
            grown = _append_below_the_gold(ds, runs, system, rng)
            after, rows_after = evaluate_system(ds, ingest.load_system(system), cfg)
        seen["grown"] += len(grown)
        for old, new in zip(before, after):
            assert old.gold == new.gold
            for name in ("sicr", "wise_act", "wise_ideal", "p_mrr"):
                assert repr(getattr(old, name)) == repr(getattr(new, name)), name
            for name, key, mode in (("ndcg_ori", old.core_id, Mode.ORIGINAL),
                                    ("ndcg_ins", old.query_id, Mode.INSTRUCTED),
                                    ("ndcg_rev", old.query_id, Mode.REVERSED)):
                if (key, mode) in grown and len(runs.lists[key, mode]) >= cfg.k_ndcg:
                    seen["grown k deep"] += 1
                    assert repr(getattr(old, name)) == repr(getattr(new, name)), name
        for old, new in zip(rows_before, rows_after):
            for name in ("sicr", "wise_act", "wise_ideal", "per", "p_mrr"):
                assert repr(getattr(old, name)) == repr(getattr(new, name)), name

    check()
    assert seen["grown"] and seen["grown k deep"], seen


def _rename_doc_ids(dataset, runs, rename):
    """The dataset and runs with each doc_id d named rename[d]."""
    documents = {rename[d]: replace(doc, doc_id=rename[d]) for d, doc in dataset.documents.items()}
    core_queries = {c: replace(core, positives=tuple((rename[d], cond)
                                                     for d, cond in core.positives))
                    for c, core in dataset.core_queries.items()}
    instructed = {q: replace(iq, gold_doc_id=rename[iq.gold_doc_id])
                  for q, iq in dataset.instructed_queries.items()}
    renamed = RunSet(runs.system_id)
    for (key, mode), ranked in runs.lists.items():
        renamed.add(RankedList(key, mode, [(rename[d], s) for d, s in ranked.entries]))
    return Dataset(documents, core_queries, instructed), renamed


def test_renaming_doc_ids():
    # doc_ids only break ties: a renaming that keeps their order leaves every
    # row bit-identical, and one that reverses it changes rows only where a
    # list holds a tie, and does change some
    seen = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=SPECS, behavior=st.sampled_from(BEHAVIORS), cfg=CONFIGS,
           rng=st.randoms(use_true_random=False))
    def check(spec, behavior, cfg, rng):
        ds = gen_synthetic_dataset(spec)
        ds, runs, _ = _like_real_runs(ds, gen_synthetic_runs(ds, spec, behavior), rng)

        def rows(dataset, runset):
            return [repr(row) for row in evaluate_system(dataset, runset, cfg)[1]]

        before = rows(ds, runs)
        ids = sorted(ds.documents)
        names = [f"x{n:06d}" for n in sorted(rng.sample(range(10**6), len(ids)))]
        assert rows(*_rename_doc_ids(ds, runs, dict(zip(ids, names)))) == before
        changed = rows(*_rename_doc_ids(ds, runs, dict(zip(ids, names[::-1])))) != before
        tied = any(len(set(ranked.scores)) < len(ranked) for ranked in runs.lists.values())
        assert tied or not changed
        seen["changed"] += changed

    check()
    assert seen["changed"], seen


def _swap_modes(system_dir, out):
    """A copy of a system directory with instructed.run and reversed.run exchanged."""
    out.mkdir()
    for mode, other in ((Mode.ORIGINAL, Mode.ORIGINAL), (Mode.INSTRUCTED, Mode.REVERSED),
                        (Mode.REVERSED, Mode.INSTRUCTED)):
        shutil.copy(system_dir / ingest.MODE_FILES[mode], out / ingest.MODE_FILES[other])
    return out


def test_swapping_instructed_and_reversed_runs(tmp_path):
    # a query that complies (r_ins < r_ori < r_rev) moves the other way once
    # the two mode files are exchanged, which WISE scores -1 and SICR 0; and
    # no query complies both before and after
    spec = SynthSpec(seed=11, run_depth=20)
    ds = gen_synthetic_dataset(spec)
    ingest.write_system(ds, gen_synthetic_runs(ds, spec, "perfect"), tmp_path / "perfect",
                        tag="perfect")
    rows = evaluate_system(ds, ingest.load_system(_swap_modes(tmp_path / "perfect",
                                                              tmp_path / "perfect-swapped")))[1]
    assert (rows[-1].wise_act, rows[-1].sicr) == (-1.0, 0.0)

    rng, seen = random.Random(11), Counter()
    for i, behavior in enumerate(BEHAVIORS * 4):
        cut, runs, _ = _like_real_runs(ds, gen_synthetic_runs(ds, spec, behavior), rng,
                                       min_depth=1)  # a run file holds no empty list
        system = tmp_path / f"{behavior}-{i}"
        ingest.write_system(cut, runs, system, tag=behavior)
        before = evaluate_system(cut, ingest.load_system(system))[0]
        after = evaluate_system(cut, ingest.load_system(
            _swap_modes(system, system.with_name(system.name + "-swapped"))))[0]
        assert [r.query_id for r in before] == [r.query_id for r in after]
        for old, new in zip(before, after):
            g = old.gold
            if g.r_ins < g.r_ori < g.r_rev:
                seen["complied"] += 1
                assert (new.wise_act, new.sicr) == (-1.0, 0), old.query_id
            assert old.sicr + new.sicr <= 1
            ins = runs.lists[old.query_id, Mode.INSTRUCTED]
            seen["tied list"] += len(set(ins.scores)) < len(ins)
            seen["gold missing"] += g.r_ins > len(ins)
    assert all(seen[case] for case in ("complied", "tied list", "gold missing")), seen


def _gold_rank(entries, gold):
    """The gold's rank among (doc_id, score) entries in canonical order: depth+1 where absent."""
    doc_ids = [d for d, _ in entries]
    return doc_ids.index(gold) + 1 if gold in doc_ids else len(doc_ids) + 1


def _lift_gold(entries, gold, rng):
    """The entries, in canonical order, with the gold's score raised so that
    it moves up at least one rank, and every other entry's score kept: to
    the score of an entry above it, which may tie with it, or above the top.
    None when no score lifts it, as when it is first already."""
    others = [(d, s) for d, s in entries if d != gold]

    def rank(score):
        return 1 + sum((-s, d) < (-score, gold) for d, s in others)

    old = rank(dict(entries).get(gold, -math.inf))
    scores = {s for _, s in others} | {max(s for _, s in others) + 1.0} if others else set()
    lifts = [score for score in sorted(scores) if rank(score) < old]
    if not lifts:
        return None
    return sorted(others + [(gold, rng.choice(lifts))], key=lambda e: (-e[1], e[0]))


def _wise_fall_region(r_ori, r_ins, r_rev, k):
    """The region, of the two that README "Conventions" names, in which
    lifting the gold from r_ins may lower WISE; None outside both."""
    if r_ins <= r_ori < r_rev and k / 2 < r_ori <= k and r_ins > k - r_ori:
        return "the reward falls toward K - r_ori"
    if r_rev < r_ori == r_ins:
        return "a gold left in place leaves case 3's 0"
    return None


def _reports(out):
    """{system: {scope: report line less its system_id}} of evaluate's structured reports."""
    reports = {}
    for path in out.glob("*.jsonl"):
        reports[path.stem] = rows = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            del record["system_id"]
            rows[record.pop("scope")] = record
    return reports


def test_lifting_the_gold_in_an_instructed_run_file(tmp_path):
    # one system per instructed query of a cut, tied synth system, with the
    # gold moved up in that query's instructed list and every other entry and
    # list kept: evaluate's rows never lose SICR, p-MRR moves down under
    # as-printed and up under flipped, and WISE Act. falls only where
    # _wise_fall_region names, and there some lifts lower it
    rng, seen = random.Random(32), Counter()
    for seed, behavior in enumerate(BEHAVIORS * 4):
        spec = SynthSpec(seed=seed, corpus_noise_docs=12, run_depth=16)
        ds = gen_synthetic_dataset(spec)
        ds, runs, reference = _like_real_runs(ds, gen_synthetic_runs(ds, spec, behavior), rng,
                                              min_depth=1)  # a run file holds no empty list
        root = tmp_path / str(seed)
        ingest.write_dataset(ds, root / "dataset")
        ingest.write_system(ds, runs, root / "runs" / "base", tag=behavior)
        lifted = {}  # system -> (query, the gold's ranks before the lift)
        for iq in ds.instructed_queries.values():
            ranks = [_gold_rank(reference.lists[key].entries, iq.gold_doc_id) for key in (
                (iq.core_id, Mode.ORIGINAL), (iq.query_id, Mode.INSTRUCTED),
                (iq.query_id, Mode.REVERSED))]
            entries = _lift_gold(reference.lists[iq.query_id, Mode.INSTRUCTED].entries,
                                 iq.gold_doc_id, rng)
            if entries is None:
                continue
            system = RunSet(iq.query_id, dict(runs.lists))
            system.add(RankedList(iq.query_id, Mode.INSTRUCTED, entries))
            ingest.write_system(ds, system, root / "runs" / iq.query_id, tag=behavior)
            for mode in (Mode.ORIGINAL, Mode.REVERSED):
                name = ingest.MODE_FILES[mode]
                assert ((root / "runs" / iq.query_id / name).read_bytes()
                        == (root / "runs" / "base" / name).read_bytes())
            lifted[iq.query_id] = iq, ranks
            seen["gold absent before"] += ranks[1] > len(runs.lists[iq.query_id, Mode.INSTRUCTED])
        k = rng.choice((6, 8, 10, 12))
        for sign, way in ((PMRR_AS_PRINTED, -1), (PMRR_FLIPPED, 1)):
            out = root / sign
            assert main(["evaluate", str(root / "dataset"), str(root / "runs"),
                         "--out", str(out), "--format", "structured",
                         "--p-mrr-sign", sign, "--wise-k", str(k)]) == 0
            reports = _reports(out)
            base = reports["base"]
            for system, (iq, (r_ori, r_ins, r_rev)) in lifted.items():
                rows = reports[system]
                scopes = (iq.dimension.value, "overall")
                for scope in scopes:
                    old, new = base[scope], rows[scope]
                    assert new["sicr"] >= old["sicr"], (system, scope)
                    assert way * (new["p_mrr"] - old["p_mrr"]) >= 0, (system, scope, sign)
                    seen["SICR rises"] += new["sicr"] > old["sicr"]
                    seen["p-MRR moves"] += new["p_mrr"] != old["p_mrr"]
                    if new["wise_act"] < old["wise_act"]:
                        region = _wise_fall_region(r_ori, r_ins, r_rev, k)
                        assert region, (system, scope, r_ori, r_ins, r_rev, k)
                        seen[region] += 1
                # the rows of the other dimensions stay as they were
                assert all(rows[scope] == base[scope] for scope in rows if scope not in scopes)
    assert all(seen[case] for case in (
        "gold absent before", "SICR rises", "p-MRR moves", "the reward falls toward K - r_ori",
        "a gold left in place leaves case 3's 0")), seen


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
        assert diff_reports(base, harness_view(ds, scaled)) == []


def test_diff_reports_names_a_missing_scope_and_a_value_against_none():
    assert diff_reports({"Audience": {"sicr": 1.0}, "overall": {"sicr": 1.0}},
                        {"overall": {"sicr": None}}) == [
        "Audience: missing on one side", "overall.sicr: 1.0 != None"]
