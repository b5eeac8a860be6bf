import json
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infosearch_eval import cli, ingest
from infosearch_eval.bm25 import Bm25Params, run_all_modes
from infosearch_eval.core import Mode, RankedList, RunSet
from infosearch_eval.errors import InfoSearchError
from infosearch_eval.synth import SynthSpec, gen_synthetic_dataset, gen_synthetic_runs


FIRST_RANK_OUT_OF_ORDER = ": score order contradicts rank order for 'q1' at rank 1 "


def test_load_run_single_line(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d3 1 12.5 bm25\n")
    rs = ingest.load_run(path, Mode.ORIGINAL)
    assert rs.lists["q1", Mode.ORIGINAL].entries == (("d3", 12.5),)


def test_load_run_score_from_rank(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d9 1 0.0 x\nq1 Q0 d4 2 0.0 x\n")
    rs = ingest.load_run(path, Mode.INSTRUCTED, score_from_rank=True)
    assert rs.lists["q1", Mode.INSTRUCTED].entries == (("d9", 1.0), ("d4", 0.5))


def test_load_run_skips_blank_and_whitespace_only_lines(tmp_path):
    lines = ["q1 Q0 d9 1 3.0 x\n", "q1 Q0 d4 2 2.0 x\n", "q2 Q0 d1 1 1.0 x\n"]
    plain, spaced = tmp_path / "plain.run", tmp_path / "spaced.run"
    plain.write_text("".join(lines))
    spaced.write_text(lines[0] + "\n \t\n" + lines[1] + "   \r\n" + lines[2])
    expected = ingest.load_run(plain, Mode.ORIGINAL).lists
    assert len(expected) == 2
    assert ingest.load_run(spaced, Mode.ORIGINAL).lists == expected


def test_load_run_rank_gap(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d1 1 2.0 x\nq1 Q0 d2 3 1.0 x\n")
    with pytest.raises(InfoSearchError) as got:
        ingest.load_run(path, Mode.ORIGINAL)
    assert str(got.value) == f"{path}: rank gap in list for 'q1'"


def test_load_run_duplicate_doc(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d1 1 2.0 x\nq1 Q0 d1 2 1.0 x\n")
    with pytest.raises(InfoSearchError) as got:
        ingest.load_run(path, Mode.ORIGINAL)
    assert str(got.value) == f"{path}: duplicate doc 'd1' in list for 'q1'"


def test_load_run_malformed(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 d1 1 2.0 x\n")
    with pytest.raises(InfoSearchError, match=":1: malformed line: expected 6 columns with Q0$"):
        ingest.load_run(path, Mode.ORIGINAL)


def test_load_run_score_order_contradiction(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d1 1 1.0 x\nq1 Q0 d2 2 5.0 x\n")
    with pytest.raises(InfoSearchError, match=f"^{re.escape(str(path))}{FIRST_RANK_OUT_OF_ORDER}"):
        ingest.load_run(path, Mode.ORIGINAL)


def test_score_order_violation_names_the_first_rank_out_of_order(tmp_path):
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d0 3 5.0 x\nq1 Q0 d1 1 9.0 x\nq1 Q0 d2 2 1.0 x\n")
    with pytest.raises(InfoSearchError, match="'q1' at rank 2 .*--score-from-rank"):
        ingest.load_run(path, Mode.ORIGINAL)


def test_load_run_tie_in_descending_doc_id_order(tmp_path):
    # equal scores must be ranked by ascending doc_id
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d2 1 1.0 x\nq1 Q0 d1 2 1.0 x\n")
    with pytest.raises(InfoSearchError, match=f"^{re.escape(str(path))}{FIRST_RANK_OUT_OF_ORDER}"):
        ingest.load_run(path, Mode.ORIGINAL)


def test_load_run_duplicate_after_a_gap_is_a_duplicate(tmp_path):
    # rank 2 is missing and d2 repeats: the duplicate is reported, whichever
    # comes first in rank order
    path = tmp_path / "a.run"
    path.write_text("q1 Q0 d1 1 3.0 x\nq1 Q0 d2 3 2.0 x\nq1 Q0 d2 4 1.0 x\n")
    with pytest.raises(InfoSearchError) as got:
        ingest.load_run(path, Mode.ORIGINAL)
    assert str(got.value) == f"{path}: duplicate doc 'd2' in list for 'q1'"


def _strings_per_doc_id(runsets):
    """doc_id -> the distinct string objects that hold it across the runsets' entries."""
    strings = {}
    for runset in runsets:
        for ranked in runset.lists.values():
            for doc_id, _ in ranked.entries:
                strings.setdefault(doc_id, {})[id(doc_id)] = doc_id
    return strings


def test_ranked_lists_hold_under_24_bytes_per_entry(tmp_path):
    # a doc_id column holds one pointer and a score column one double per entry;
    # a (doc_id, score) tuple and a float object per entry would hold about 88 bytes
    doc_ids = [sys.intern(f"doc{i:05d}") for i in range(5_000)]  # made before tracing
    rng = random.Random(15)
    path = tmp_path / "sys.run"
    with path.open("w") as fh:
        for query in range(1_000):
            for rank, doc_id in enumerate(sorted(rng.sample(doc_ids, 100)), start=1):
                fh.write(f"q{query:04d} Q0 {doc_id} {rank} {round(1.0 / rank, 2)!r} t\n")
    tracemalloc.start()
    try:
        runset = ingest.load_run(path, Mode.ORIGINAL)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, runset.lists.values())) == 100_000
    assert held / 100_000 < 24


def test_load_run_keeps_one_string_per_doc_id(tmp_path):
    system = tmp_path / "sys"
    system.mkdir()
    for mode, fname in ingest.MODE_FILES.items():
        # every list repeats doc-a and doc-b, and q2's lines are out of rank order
        (system / fname).write_text(f"q1 Q0 doc-a 1 2.0 {mode.value}\n"
                                    f"q1 Q0 doc-b 2 1.0 {mode.value}\n"
                                    f"q2 Q0 doc-a 2 1.0 {mode.value}\n"
                                    f"q2 Q0 doc-c 3 0.5 {mode.value}\n"
                                    f"q2 Q0 doc-b 1 3.0 {mode.value}\n")
    one_file = ingest.load_run(system / "original.run", Mode.ORIGINAL)
    strings = _strings_per_doc_id([one_file])
    assert {doc_id: len(objs) for doc_id, objs in strings.items()} == {
        "doc-a": 1, "doc-b": 1, "doc-c": 1}
    three_files = ingest.load_system(system)
    assert len(three_files.lists) == 6
    strings = _strings_per_doc_id([three_files])
    assert {doc_id: len(objs) for doc_id, objs in strings.items()} == {
        "doc-a": 1, "doc-b": 1, "doc-c": 1}


def _reference_lists(per_query, mode, score_from_rank):
    """Canonicalise by sorting on rank, then check against RankedList's order."""
    lists = {}
    for query_key, rows in per_query.items():
        rows = sorted(rows, key=lambda r: r[0])
        seen = set()
        for expected, (rank, doc_id, _) in enumerate(rows, start=1):
            if doc_id in seen:
                raise InfoSearchError(f"duplicate doc {doc_id!r} in list for {query_key!r}")
            seen.add(doc_id)
            if rank != expected:
                raise InfoSearchError(f"rank gap in list for {query_key!r}")
        if score_from_rank:
            entries = [(doc_id, 1.0 / rank) for rank, doc_id, _ in rows]
        else:
            entries = [(doc_id, score) for _, doc_id, score in rows]
        ranked = RankedList(query_key, mode, entries)
        for rank, ((want, _), (got, _)) in enumerate(zip(ranked.entries, entries), start=1):
            if got != want:
                raise InfoSearchError(
                    f"score order contradicts rank order for {query_key!r} at rank {rank} (tied"
                    " scores rank by ascending doc_id; --score-from-rank uses the ranks alone)")
        lists[(query_key, mode)] = ranked
    return lists


FAULTS = ("none", "duplicate", "gap", "repeated-rank", "swapped-scores", "descending-tie")


@st.composite
def faulty_runs(draw):
    """Valid rank-ordered lists, one of them with at most one fault."""
    per_query = {}
    for q in range(draw(st.integers(1, 3))):
        doc_ids = draw(st.lists(st.integers(0, 20).map(lambda i: f"d{i:02d}"),
                                min_size=1, max_size=8, unique=True))
        scores = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0]),
                               min_size=len(doc_ids), max_size=len(doc_ids)))
        canonical = sorted(zip(doc_ids, scores), key=lambda e: (-e[1], e[0]))
        per_query[f"q{q}"] = [[rank, doc_id, score] for rank, (doc_id, score)
                              in enumerate(canonical, start=1)]
    fault = draw(st.sampled_from(FAULTS))
    rows = per_query[draw(st.sampled_from(sorted(per_query)))]
    n = len(rows)
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1).filter(lambda j: j != i)) if n > 1 else i
    if fault == "duplicate" and n > 1:
        rows[j][1] = rows[i][1]
    elif fault == "gap":
        shift = draw(st.integers(1, 3))
        for row in rows[i:]:
            row[0] += shift
    elif fault == "repeated-rank" and n > 1:
        rows[j][0] = rows[i][0]
    elif fault == "swapped-scores":
        rows[i][2], rows[j][2] = rows[j][2], rows[i][2]
    elif fault == "descending-tie" and n > 1:
        i = min(i, n - 2)
        rows[i + 1][2] = rows[i][2]
        rows[i + 1][1], rows[i][1] = sorted((rows[i][1], rows[i + 1][1]))
    lines = [(query_key, *row) for query_key, rows in per_query.items() for row in rows]
    return draw(st.permutations(lines))


@given(faulty_runs(), st.booleans())
def test_load_run_matches_rank_sort_reference(tmp_path_factory, lines, score_from_rank):
    path = tmp_path_factory.mktemp("ref") / "x.run"
    path.write_text("".join(f"{q} Q0 {d} {r} {s!r} t\n" for q, r, d, s in lines))
    per_query = {}
    for query_key, rank, doc_id, score in lines:  # file order, as load_run reads it
        per_query.setdefault(query_key, []).append((rank, doc_id, score))
    try:
        expected = _reference_lists(per_query, Mode.REVERSED, score_from_rank)
    except InfoSearchError as exc:
        with pytest.raises(InfoSearchError) as got:
            ingest.load_run(path, Mode.REVERSED, score_from_rank=score_from_rank)
        assert str(got.value) == f"{path}: {exc}"
    else:
        runset = ingest.load_run(path, Mode.REVERSED, score_from_rank=score_from_rank)
        assert runset.lists == expected
        assert [ranked.entries for ranked in runset.lists.values()] == [
            ranked.entries for ranked in expected.values()]


def test_write_run_empty_and_counts(tmp_path):
    path = tmp_path / "out.run"
    ingest.write_run(RunSet("s"), path)
    assert path.read_text() == ""
    rs = RunSet("s")
    rs.add(RankedList("q1", Mode.ORIGINAL, [("a", 3.0), ("b", 2.0), ("c", 1.0)]))
    ingest.write_run(rs, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [ln.split()[3] for ln in lines] == ["1", "2", "3"]


@given(st.dictionaries(
    st.integers(0, 5).map(lambda i: f"q{i}"),
    st.lists(st.tuples(st.integers(0, 50).map(lambda i: f"d{i:02d}"),
                       st.floats(-100, 100, allow_nan=False)),
             min_size=1, max_size=10, unique_by=lambda e: e[0]),
    min_size=1, max_size=4))
def test_run_round_trip(tmp_path_factory, lists):
    # identity oracle: load(write(x)) == x on canonical run sets
    path = tmp_path_factory.mktemp("rt") / "x.run"
    rs = RunSet("sys")
    for qk, entries in lists.items():
        rs.add(RankedList(qk, Mode.INSTRUCTED, entries))
    ingest.write_run(rs, path)
    back = ingest.load_run(path, Mode.INSTRUCTED)
    assert back.lists == rs.lists


@pytest.mark.parametrize("score_from_rank", [False, True])
def test_run_round_trip_is_byte_exact(tmp_path, score_from_rank):
    # the score column must keep every bit: == alone would let -0.0 pass for 0.0
    scores = {"q1": [1.7976931348623157e308, 5e-324, 5e-324, 0.0, -0.0, -0.0, 0.0,
                     -1.7976931348623157e308],
              "q0": [2.5, 2.5, -0.0]}
    lines = []
    for query_key, column in scores.items():
        for rank, score in enumerate(column, start=1):
            score = 1.0 / rank if score_from_rank else score
            lines.append(f"{query_key} Q0 d{rank} {rank} {score!r} run\n")
    text = "".join(lines)
    path, out = tmp_path / "in.run", tmp_path / "out.run"
    path.write_text(text)
    ingest.write_run(ingest.load_run(path, Mode.ORIGINAL, score_from_rank), out)
    assert out.read_bytes() == text.encode()


def test_system_round_trip(tmp_path):
    spec = SynthSpec(seed=7)
    dataset = gen_synthetic_dataset(spec)
    for runset in (gen_synthetic_runs(dataset, spec, "random"),
                   run_all_modes(dataset, Bm25Params(), 5)):
        directory = tmp_path / runset.system_id
        ingest.write_system(dataset, runset, directory, tag="t")
        assert sorted(p.name for p in directory.iterdir()) == sorted(ingest.MODE_FILES.values())
        assert ingest.load_system(directory) == runset
    # an empty list would be written as no lines, and not read back
    key = next(iter(dataset.instructed_queries))
    runset.lists[key, Mode.REVERSED] = RankedList(key, Mode.REVERSED, [])
    directory = tmp_path / "with-empty"
    with pytest.raises(InfoSearchError) as got:
        ingest.write_system(dataset, runset, directory, tag="t")
    assert str(got.value) == f"bm25: cannot write the empty reversed list for {key!r}"
    assert not directory.exists()


def test_dataset_round_trip(tmp_path, desk_dataset):
    ingest.write_dataset(desk_dataset, tmp_path)
    loaded = ingest.load_dataset(tmp_path)
    assert loaded.documents == desk_dataset.documents
    assert loaded.core_queries == desk_dataset.core_queries
    assert loaded.instructed_queries == desk_dataset.instructed_queries


def test_load_dataset_duplicate_doc_id(tmp_path, desk_dataset):
    ingest.write_dataset(desk_dataset, tmp_path)
    docs = tmp_path / "documents.jsonl"
    lines = docs.read_text().splitlines()
    docs.write_text(docs.read_text() + lines[0] + "\n")
    # the repeat is the appended line
    line = f"{docs}:{len(lines) + 1}: duplicate doc_id {json.loads(lines[0])['doc_id']!r}"
    with pytest.raises(InfoSearchError) as got:
        ingest.load_dataset(tmp_path)
    assert str(got.value) == line


def test_load_dataset_broken_reference(tmp_path, desk_dataset):
    ingest.write_dataset(desk_dataset, tmp_path)
    iqs = tmp_path / "instructed_queries.jsonl"
    rec = json.loads(iqs.read_text().splitlines()[0])
    rec["gold_doc_id"] = "nope"
    iqs.write_text(json.dumps(rec) + "\n")
    with pytest.raises(InfoSearchError, match="gold nope not among parent positives"):
        ingest.load_dataset(tmp_path)


def test_load_dataset_accepts_per_dimension_files(tmp_path, desk_dataset):
    ingest.write_dataset(desk_dataset, tmp_path)
    # split documents into two files; the loader globs documents*.jsonl
    lines = (tmp_path / "documents.jsonl").read_text().splitlines()
    (tmp_path / "documents.jsonl").unlink()
    (tmp_path / "documents_a.jsonl").write_text("\n".join(lines[:4]) + "\n")
    (tmp_path / "documents_b.jsonl").write_text("\n".join(lines[4:]) + "\n")
    loaded = ingest.load_dataset(tmp_path)
    assert len(loaded.documents) == 8


# each edit returns the JSON value to write in place of the file's first line
def _set(key, value):
    return lambda rec: {**rec, key: value}


def _drop(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


def _replace(value):
    return lambda rec: value


def _set_first_positive(value):
    return lambda rec: {**rec, "positives": [{**rec["positives"][0], "doc_id": value},
                                             *rec["positives"][1:]]}


ID_FAULT = "{} must be one token with no whitespace"


@pytest.mark.parametrize("stem, edit, message", [
    ("documents", _set("doc_id", "d 0"), ID_FAULT.format("doc_id")),
    ("documents", _set("doc_id", ""), ID_FAULT.format("doc_id")),
    ("core_queries", _set("core_id", "c0\t"), ID_FAULT.format("core_id")),
    ("core_queries", _set_first_positive("d0\u00a0x"), ID_FAULT.format("doc_id")),
    ("instructed_queries", _set("query_id", "c0 q0"), ID_FAULT.format("query_id")),
    ("instructed_queries", _set("core_id", ""), ID_FAULT.format("core_id")),
    ("instructed_queries", _set("gold_doc_id", "d0\n"), ID_FAULT.format("gold_doc_id")),
    # a line with several faults reports the first faulty key in declaration order
    ("documents", _replace({"doc_id": 5}), "doc_id must be a string"),
    ("core_queries", lambda rec: {**rec, "core_id": "a b", "dimension": "Bogus"},
     ID_FAULT.format("core_id")),
    # faults of shape name the field, or what was expected
    ("core_queries", _drop("dimension"), "missing key dimension"),
    ("core_queries", _set("positives", 5), "positives must be a list of objects"),
    ("instructed_queries", _replace(["q0", "c0"]), "expected a JSON object"),
], ids=["doc-id-space", "doc-id-empty", "core-id-tab", "positive-no-break-space",
        "query-id-space", "instructed-core-id-empty", "gold-newline",
        "numeric-doc-id-before-missing-keys", "spaced-core-id-before-bogus-dimension",
        "missing-dimension", "positives-not-a-list", "line-not-an-object"])
def test_load_dataset_rejects_an_id_no_run_file_can_carry(tmp_path, desk_dataset, stem,
                                                          edit, message, capsys):
    # a run file splits its columns on whitespace, so such an id could never match
    dataset, runs = tmp_path / "dataset", tmp_path / "runs"
    ingest.write_dataset(desk_dataset, dataset)
    runs.mkdir()
    path = dataset / f"{stem}.jsonl"
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps(edit(json.loads(first))) + "\n" + "".join(rest))
    line = f"{path}:1: malformed line: {message}"
    with pytest.raises(InfoSearchError) as got:
        ingest.load_dataset(dataset)
    assert str(got.value) == line
    # validate reports it on stdout, evaluate on stderr, both with exit code 1
    capsys.readouterr()
    assert cli.main(["validate", str(dataset)]) == 1
    assert capsys.readouterr() == (f"invalid dataset: {line}\n", "")
    assert cli.main(["evaluate", str(dataset), str(runs), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("load", [ingest.load_dataset, ingest.load_system])
def test_loading_a_missing_directory_names_it(tmp_path, load):
    (tmp_path / "a-file").write_text("")
    for path in (tmp_path / "nope", tmp_path / "a-file"):
        with pytest.raises(NotADirectoryError) as got:
            load(path)
        assert str(got.value) == f"no such directory: {path}"
