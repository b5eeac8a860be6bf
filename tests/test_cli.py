import argparse
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from infosearch_eval import core, harness, ingest, oracle
from infosearch_eval.bm25 import Bm25Params
from infosearch_eval.cli import build_parser, main
from infosearch_eval.core import validate_dataset
from infosearch_eval.synth import SynthSpec


@pytest.fixture
def fixture_dirs(tmp_path):
    rc = main(["synth", "--out", str(tmp_path), "--seed", "13",
               "--dims", "Audience,Format", "--cores", "2", "--conditions", "2"])
    assert rc == 0
    return tmp_path / "dataset", tmp_path / "runs"


def test_validate_ok(fixture_dirs, capsys):
    dataset_dir, _ = fixture_dirs
    assert main(["validate", str(dataset_dir)]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out
    assert "Audience,2,4,4," in out


def test_validate_checks_the_dataset_once(fixture_dirs, capsys, monkeypatch):
    dataset_dir, _ = fixture_dirs
    calls = []

    def counted(dataset):
        calls.append(dataset)
        return validate_dataset(dataset)

    # count calls made through the core name and the ingest name alike
    monkeypatch.setattr(core, "validate_dataset", counted)
    monkeypatch.setattr(ingest, "validate_dataset", counted)
    assert main(["validate", str(dataset_dir)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "dimension,core,instructed,reversed,docs\nAudience,2,4,4,10\nFormat,2,4,4,10\n"
        "total,4,8,8,20\nOK: 0 violations\n")


def test_validate_broken_reference(fixture_dirs, capsys):
    dataset_dir, _ = fixture_dirs
    path = dataset_dir / "instructed_queries.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["gold_doc_id"] = "missing-doc"
    path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    assert main(["validate", str(dataset_dir)]) == 1
    assert "gold" in capsys.readouterr().out


@pytest.mark.parametrize("argv, line", [
    (["validate", "{nope}"], "no such directory: {nope}"),
    (["evaluate", "{nope}", "{runs}"], "no such directory: {nope}"),
    (["evaluate", "{dataset}", "{nope}"], "no such directory: {nope}"),
    (["bm25-run", "{nope}"], "no such directory: {nope}"),
    (["oracle", "{nope}", "{runs}/random"], "no such directory: {nope}"),
    (["oracle", "{dataset}", "{nope}"], "no such directory: {nope}"),
    (["evaluate", "{dataset}", "{empty}"], "no system subdirectories in runs directory"),
    (["evaluate", "{dataset}", "{board}"],
     "system directory name reserved for the leaderboard: {board}/leaderboard"),
], ids=["validate", "evaluate-dataset", "evaluate-runs", "bm25-run", "oracle-dataset",
        "oracle-runs", "evaluate-empty-runs", "evaluate-leaderboard-system"])
def test_validate_missing_directory(argv, line, fixture_dirs, tmp_path, capsys):
    dataset_dir, runs_dir = fixture_dirs
    (tmp_path / "empty").mkdir()
    (tmp_path / "board" / "leaderboard").mkdir(parents=True)
    paths = dict(dataset=dataset_dir, runs=runs_dir, nope=tmp_path / "nope",
                 empty=tmp_path / "empty", board=tmp_path / "board")
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err.splitlines() == ["error: " + line.format(**paths)]
    assert out.out == ""


def test_evaluate_writes_reports(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    out = tmp_path / "reports"
    assert main(["evaluate", str(dataset_dir), str(runs_dir),
                 "--out", str(out), "--format", "csv"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["anti.csv", "leaderboard.csv", "perfect.csv", "random.csv"]
    board = (out / "leaderboard.csv").read_text().splitlines()
    assert len(board) == 4  # header + 3 systems
    # perfect behavior has robustness_ori == ndcg_ori on every row
    perfect = (out / "perfect.csv").read_text().splitlines()
    header = perfect[0].split(",")
    for line in perfect[1:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["ndcg_ori"] == cells["robustness_ori"]


def test_evaluate_idempotent(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["evaluate", str(dataset_dir), str(runs_dir), "--out", str(out)]) == 0
        outs.append((out / "leaderboard.csv").read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_flipped_sign_negates_p_mrr(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    vals = {}
    for sign in ("as-printed", "flipped"):
        out = tmp_path / sign
        assert main(["evaluate", str(dataset_dir), str(runs_dir), "--p-mrr-sign", sign,
                     "--out", str(out), "--format", "structured"]) == 0
        recs = [json.loads(ln) for ln in
                (out / "random.jsonl").read_text().splitlines()]
        vals[sign] = [r["p_mrr"] for r in recs]
    assert vals["flipped"] == [-v for v in vals["as-printed"]]


def test_evaluate_missing_run_file(fixture_dirs, tmp_path, capsys):
    dataset_dir, runs_dir = fixture_dirs
    missing = runs_dir / "random" / "reversed.run"
    missing.unlink()
    assert main(["evaluate", str(dataset_dir), str(runs_dir),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: missing run file: {missing}"]


def test_oracle_missing_run_file(fixture_dirs, capsys):
    dataset_dir, runs_dir = fixture_dirs
    missing = runs_dir / "random" / "instructed.run"
    missing.unlink()
    assert main(["oracle", str(dataset_dir), str(runs_dir / "random")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: missing run file: {missing}"]


def test_bm25_run_and_evaluate(fixture_dirs, tmp_path, capsys):
    dataset_dir, _ = fixture_dirs
    out = tmp_path / "bm25" / "bm25"
    assert main(["bm25-run", str(dataset_dir), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "instructed.run", "original.run", "reversed.run"]
    # rerun produces identical bytes
    before = (out / "original.run").read_bytes()
    assert main(["bm25-run", str(dataset_dir), "--out", str(out)]) == 0
    assert (out / "original.run").read_bytes() == before
    rep = tmp_path / "bm25-report"
    assert main(["evaluate", str(dataset_dir), str(tmp_path / "bm25"),
                 "--out", str(rep)]) == 0


def test_oracle_agrees(fixture_dirs, capsys):
    dataset_dir, runs_dir = fixture_dirs
    assert main(["oracle", str(dataset_dir), str(runs_dir / "random")]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_oracle_reports_each_mismatch(tmp_path, capsys, monkeypatch):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    dataset_dir, system_dir = tmp_path / "dataset", tmp_path / "runs" / "random"
    expected = oracle.oracle_metrics(ingest.load_dataset(dataset_dir),
                                     ingest.load_system(system_dir))
    # the harness now counts every query as an instruction-following one
    monkeypatch.setattr(harness, "sicr_indicator", lambda ctx: 1)
    capsys.readouterr()
    assert main(["oracle", str(dataset_dir), str(system_dir)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"MISMATCH {scope}.sicr: 1.0 != {expected[scope]['sicr']}" for scope in sorted(expected)
    ] + ["7 mismatches"]


def test_oracle_rejects_oversize(fixture_dirs, capsys, monkeypatch):
    dataset_dir, runs_dir = fixture_dirs
    monkeypatch.setattr(oracle, "MAX_ORACLE_QUERIES", 1)
    # the cap is checked before any run file is read: a missing one is not reached
    (runs_dir / "random" / "reversed.run").unlink()
    capsys.readouterr()
    assert main(["oracle", str(dataset_dir), str(runs_dir / "random")]) == 1
    out = capsys.readouterr()
    assert out.err.splitlines() == ["error: oracle input exceeds 1 queries"]
    assert out.out == ""


def test_synth_deterministic(tmp_path):
    args = ["synth", "--seed", "21", "--dims", "Length", "--behaviors", "random"]
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    for rel in ("dataset/documents.jsonl", "runs/random/original.run"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_score_from_rank_flag(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    # zero out all scores; plain load must reject, 1/rank synthesis must pass
    run = runs_dir / "perfect" / "instructed.run"
    lines = [ln.split() for ln in run.read_text().splitlines()]
    run.write_text("\n".join(" ".join(p[:4] + ["0.0", p[5]]) for p in lines) + "\n")
    assert main(["evaluate", str(dataset_dir), str(runs_dir),
                 "--out", str(tmp_path / "no")]) == 1
    assert main(["evaluate", str(dataset_dir), str(runs_dir), "--score-from-rank",
                 "--out", str(tmp_path / "yes")]) == 0


def _not_utf8(dataset_dir, runs_dir):
    (runs_dir / "random" / "instructed.run").write_bytes(b"\xff\xfe not utf-8\n")


def _append(name, line):
    def prepare(dataset_dir, runs_dir):
        with (dataset_dir / f"{name}.jsonl").open("a") as fh:
            fh.write(line + "\n")
    return prepare


# JSON that Python's parser rejects with ValueError and RecursionError: an
# integer over its 4,300-digit conversion limit, and nesting deeper than its stack
_LONG_INTEGER_LINE = '{"doc_id": ' + "1" * 5000 + "}"
_DEEP_NESTING_LINE = "[" * 100_000 + "]" * 100_000
_LONG_INTEGER = _append("documents", _LONG_INTEGER_LINE)
_DEEP_NESTING = _append("core_queries", _DEEP_NESTING_LINE)


def _json_error(text: str) -> str:
    """What Python's JSON parser says of text, whose wording varies by version."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("the parser accepts it")


# each appended line follows the fixture's 20 documents and 4 core queries
_LONG_INTEGER_ERROR = ("{dataset}/documents.jsonl:21: malformed line: "
                       + _json_error(_LONG_INTEGER_LINE))
_DEEP_NESTING_ERROR = ("{dataset}/core_queries.jsonl:5: malformed line: "
                       + _json_error(_DEEP_NESTING_LINE))


def _non_string_text(dataset_dir, runs_dir):
    path = dataset_dir / "documents.jsonl"
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps({**json.loads(first), "text": 123}) + "\n" + "".join(rest))


def _rewrite_doc_ids(dataset_dir, change):
    """Pass every doc_id of the dataset through change, consistently; the runs keep theirs."""
    def rewrite(name, edit):
        path = dataset_dir / f"{name}.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            edit(rec)
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))

    def doc_id(rec, key="doc_id"):
        rec[key] = change(rec[key])

    rewrite("documents", doc_id)
    rewrite("core_queries", lambda rec: [doc_id(p) for p in rec["positives"]])
    rewrite("instructed_queries", lambda rec: doc_id(rec, "gold_doc_id"))


def _numeric_doc_ids(dataset_dir, runs_dir):
    numbers = {}
    _rewrite_doc_ids(dataset_dir, lambda doc_id: numbers.setdefault(doc_id, len(numbers)))


def _spaced_doc_ids(dataset_dir, runs_dir):
    # 'audience-c000-d1' becomes 'audience-c000 d1', which a run-file column cannot hold
    _rewrite_doc_ids(dataset_dir, lambda doc_id: doc_id.replace("-d", " d"))


def _bom(dataset_dir, runs_dir):
    path = dataset_dir / "documents.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def _leaderboard_system(dataset_dir, runs_dir):
    (runs_dir / "anti").rename(runs_dir / "leaderboard")


def _repeat_first(name):
    """Repeat the first line of a dataset file as its second line."""
    def prepare(dataset_dir, runs_dir):
        path = dataset_dir / f"{name}.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(first + first + "".join(rest))
    return prepare


def _format_query_of_an_audience_core(dataset_dir, runs_dir):
    path = dataset_dir / "instructed_queries.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        if rec["query_id"] == "audience-c000-q1":
            rec["dimension"] = "Format"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def _condition_of_another_positive(dataset_dir, runs_dir):
    # audience-c000-q1's gold audience-c000-d1 is the core's c1 positive; c0 is d0's
    path = dataset_dir / "instructed_queries.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        if rec["query_id"] == "audience-c000-q1":
            rec["condition"] = "c0"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def _no_documents(dataset_dir, runs_dir):
    (dataset_dir / "documents.jsonl").unlink()


def _documents_not_utf8(dataset_dir, runs_dir):
    path = dataset_dir / "documents.jsonl"
    path.write_bytes(path.read_bytes() + b"\xff\n")


def _one_system(prepare):
    """prepare, on runs that hold the random system alone, which evaluate
    then reads in its own process."""
    def one(dataset_dir, runs_dir):
        for name in ("anti", "perfect"):
            shutil.rmtree(runs_dir / name)
        prepare(dataset_dir, runs_dir)
    return one


def _blank(*names):
    def prepare(dataset_dir, runs_dir):
        for name in names:
            (dataset_dir / f"{name}.jsonl").write_text("")
    return prepare


# a usage error's line is argparse's, named by the parser that reports it; a data
# error's is the one on stderr, or for validate the one on stdout
USAGE, DATA = "infosearch: error: ", "error: "
EVALUATE, SYNTH, BM25_RUN = (f"infosearch {command}: error: "
                             for command in ("evaluate", "synth", "bm25-run"))
NOT_OBJECT = "malformed line: expected a JSON object"
SPACED = "{dataset}/documents.jsonl:1: malformed line: doc_id must be one token with no whitespace"


@pytest.mark.parametrize("argv, prepare, code, line", [
    (["evaluate", "{dataset}", "{runs}", "--k", "0"], None, 2, EVALUATE + "cutoffs must be >= 1"),
    (["evaluate", "{dataset}", "{runs}", "--wise-k", "0"], None, 2,
     EVALUATE + "cutoffs must be >= 1"),
    (["synth", "--depth", "3"], None, 2,
     SYNTH + "run_depth must be >= conditions_per_core + 2"),
    (["synth", "--dims", "Foo"], None, 2, SYNTH + "'Foo' is not a valid Dimension"),
    (["synth", "--behaviors", "perfect,foo"], None, 2, SYNTH + "unknown behavior 'foo'"),
    (["bm25-run", "{dataset}", "--k1", "-1"], None, 2,
     BM25_RUN + "require 0 <= k1 < inf and 0 <= b <= 1"),
    (["bm25-run", "{dataset}", "--k1", "nan"], None, 2,
     BM25_RUN + "require 0 <= k1 < inf and 0 <= b <= 1"),
    (["bm25-run", "{dataset}", "--k1", "inf"], None, 2,
     BM25_RUN + "require 0 <= k1 < inf and 0 <= b <= 1"),
    (["bm25-run", "{dataset}", "--top-k", "0"], None, 2, BM25_RUN + "require --top-k >= 1"),
    (["bm25-run", "{dataset}", "--top-k", "-1"], None, 2, BM25_RUN + "require --top-k >= 1"),
    (["evaluate", "{dataset}", "{runs}"], _not_utf8, 1,
     DATA + "{runs}/random/instructed.run: not UTF-8 (invalid start byte)"),
    (["bm25-run", "{dataset}"], _blank("documents", "core_queries", "instructed_queries"), 1,
     DATA + "no documents to index"),
    (["evaluate", "{dataset}", "{runs}"], _blank("instructed_queries"), 1,
     DATA + "dataset has no instructed queries"),
    (["evaluate", "{dataset}", "{runs}"], _append("documents", "[1, 2]"), 1,
     DATA + "{dataset}/documents.jsonl:21: " + NOT_OBJECT),
    (["evaluate", "{dataset}", "{runs}"], _append("instructed_queries", '"x"'), 1,
     DATA + "{dataset}/instructed_queries.jsonl:9: " + NOT_OBJECT),
    (["bm25-run", "{dataset}"], _non_string_text, 1,
     DATA + "{dataset}/documents.jsonl:1: malformed line: text must be a string"),
    (["evaluate", "{dataset}", "{runs}"], _numeric_doc_ids, 1,
     DATA + "{dataset}/documents.jsonl:1: malformed line: doc_id must be a string"),
    (["validate", "{dataset}"], _bom, 0, None),
    (["validate", "{dataset}"], _spaced_doc_ids, 1, "invalid dataset: " + SPACED),
    (["bm25-run", "{dataset}"], _spaced_doc_ids, 1, DATA + SPACED),
    (["evaluate", "{dataset}", "{runs}"], _spaced_doc_ids, 1, DATA + SPACED),
    (["evaluate", "{dataset}", "{runs}"], _leaderboard_system, 2,
     DATA + "system directory name reserved for the leaderboard: {runs}/leaderboard"),
    (["validate", "{dataset}"], _LONG_INTEGER, 1, "invalid dataset: " + _LONG_INTEGER_ERROR),
    (["evaluate", "{dataset}", "{runs}"], _LONG_INTEGER, 1, DATA + _LONG_INTEGER_ERROR),
    (["validate", "{dataset}"], _DEEP_NESTING, 1, "invalid dataset: " + _DEEP_NESTING_ERROR),
    (["evaluate", "{dataset}", "{runs}"], _DEEP_NESTING, 1, DATA + _DEEP_NESTING_ERROR),
    (["evaluate", "{dataset}", "{runs}"], _repeat_first("documents"), 1,
     DATA + "{dataset}/documents.jsonl:2: duplicate doc_id 'audience-c000-d0'"),
    (["validate", "{dataset}"], _repeat_first("core_queries"), 1,
     "invalid dataset: {dataset}/core_queries.jsonl:2: duplicate core_id 'audience-c000'"),
    (["bm25-run", "{dataset}"], _repeat_first("instructed_queries"), 1,
     DATA + "{dataset}/instructed_queries.jsonl:2: duplicate query_id 'audience-c000-q1'"),
    (["validate", "{dataset}"], _no_documents, 1,
     "invalid dataset: no documents*.jsonl file in {dataset}"),
    (["evaluate", "{dataset}", "{runs}"], _no_documents, 1,
     DATA + "no documents*.jsonl file in {dataset}"),
    (["evaluate", "{dataset}", "{runs}"], _documents_not_utf8, 1,
     DATA + "{dataset}/documents.jsonl: not UTF-8 (invalid start byte)"),
    (["evaluate", "{dataset}", "{runs}"], _format_query_of_an_audience_core, 1,
     DATA + "instructed query audience-c000-q1: dimension Format differs from core"
     " audience-c000's Audience"),
    (["validate", "{dataset}"], _condition_of_another_positive, 1,
     "invalid dataset: instructed query audience-c000-q1: condition c0 differs from gold"
     " audience-c000-d1's c1"),
    (["evaluate", "{dataset}", "{runs}"], _one_system(_not_utf8), 1,
     DATA + "{runs}/random/instructed.run: not UTF-8 (invalid start byte)"),
    (["evaluate", "{dataset}", "{runs}"], _one_system(_blank("instructed_queries")), 1,
     DATA + "dataset has no instructed queries"),
    (["validate", "{dataset}"], _blank("instructed_queries"), 0, None),
    (["synth", "--cores", "0"], None, 2, SYNTH + "all counts must be >= 1"),
    (["synth", "--dims", "Audience,Audience"], None, 2, SYNTH + "a dimension is repeated"),
], ids=["k", "wise-k", "synth-depth", "synth-dims", "synth-behaviors", "bm25-k1",
        "bm25-k1-nan", "bm25-k1-inf",
        "bm25-top-k-0", "bm25-top-k-negative", "run-not-utf8", "bm25-no-documents",
        "evaluate-no-instructed", "document-not-object", "instructed-not-object",
        "bm25-non-string-text", "evaluate-numeric-doc-ids", "validate-dataset-bom",
        "validate-spaced-doc-ids", "bm25-spaced-doc-ids", "evaluate-spaced-doc-ids",
        "evaluate-leaderboard-system", "validate-long-integer", "evaluate-long-integer",
        "validate-deep-nesting", "evaluate-deep-nesting", "evaluate-duplicate-doc-id",
        "validate-duplicate-core-id", "bm25-duplicate-query-id", "validate-no-documents",
        "evaluate-no-documents", "evaluate-documents-not-utf8",
        "evaluate-dimension-other-than-the-cores", "validate-condition-other-than-the-golds",
        "run-not-utf8-one-system", "evaluate-no-instructed-one-system",
        "validate-no-instructed", "synth-cores-0", "synth-dims-repeated"])
def test_bad_input_exits_with_one_line(argv, prepare, code, line, fixture_dirs, tmp_path,
                                       capsys):
    dataset_dir, runs_dir = fixture_dirs
    if prepare:
        prepare(dataset_dir, runs_dir)
    out = tmp_path / "out"
    argv = [a.format(dataset=dataset_dir, runs=runs_dir) for a in argv]
    if "validate" not in argv:  # every other command here writes files
        argv += ["--out", str(out)]
    capsys.readouterr()
    usage = False
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc, usage = exc.code, True
    assert rc == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if code == 0:
        assert err == []
        return
    line = line.format(dataset=dataset_dir, runs=runs_dir)
    if code == 1 and "validate" in argv:  # validate reports a faulty dataset on stdout
        assert err == []
        assert captured.out == line + "\n"
    elif usage:  # argparse prints its usage line first
        assert err[-1] == line
    else:
        assert err == [line]
    assert not out.exists()  # nothing written, not even the first behaviour


SCORING_OPTIONS = {"k": ["--k", "5"], "wise-k": ["--wise-k", "5"],
                   "p-mrr-sign": ["--p-mrr-sign", "flipped"],
                   "score-from-rank": ["--score-from-rank"]}
COMMANDS = {"validate": ["validate", "{dataset}"],
            "evaluate": ["evaluate", "{dataset}", "{runs}", "--out", "{out}"],
            "bm25-run": ["bm25-run", "{dataset}", "--out", "{out}"],
            "synth": ["synth", "--out", "{out}"],
            "oracle": ["oracle", "{dataset}", "{runs}/random"]}


@pytest.mark.parametrize("option", SCORING_OPTIONS.values(), ids=list(SCORING_OPTIONS))
@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("before", [False, True], ids=["after-command", "before-command"])
def test_scoring_options_belong_to_evaluate_and_oracle(before, command, option, fixture_dirs,
                                                       tmp_path, capsys):
    dataset_dir, runs_dir = fixture_dirs
    out = tmp_path / "out"
    argv = [a.format(dataset=dataset_dir, runs=runs_dir, out=out) for a in COMMANDS[command]]
    argv = option + argv if before else argv + option
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    err = capsys.readouterr().err.splitlines()
    if command in ("evaluate", "oracle") and not before:
        assert (rc, err) == (0, [])
        return
    assert rc == 2
    assert err[-1].startswith(USAGE)
    if not before:  # before the command, argparse takes an option's value for the command
        assert err[-1] == USAGE + "unrecognized arguments: " + " ".join(option)
    assert not out.exists()


@pytest.mark.parametrize("argv, abbreviated", [
    (["--he", "validate", "dataset"], "--he"),
    (["validate", "dataset", "--he"], "--he"),
    (["evaluate", "dataset", "runs", "--s"], "--s"),
    (["bm25-run", "dataset", "--top", "3"], "--top 3"),
    (["synth", "--no", "2"], "--no 2"),
    (["oracle", "dataset", "runs", "--wise", "5"], "--wise 5"),
], ids=["before-command", "validate", "evaluate", "bm25-run", "synth", "oracle"])
def test_an_abbreviated_option_is_unrecognized(argv, abbreviated, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        USAGE + "unrecognized arguments: " + abbreviated)


@pytest.mark.parametrize("argv, settings", [
    (["bm25-run", "dataset"], Bm25Params()),
    (["bm25-run", "dataset", "--b", "0.4"], Bm25Params(b=0.4)),
    (["synth"], (SynthSpec(seed=0), ["perfect", "anti", "random"])),
    (["synth", "--seed", "3", "--cores", "3", "--depth", "12"],
     (SynthSpec(seed=3, cores_per_dim=3, run_depth=12), ["perfect", "anti", "random"])),
], ids=["bm25-run", "bm25-run-b", "synth", "synth-cores-depth"])
def test_options_not_given_take_the_settings_type_defaults(argv, settings):
    args = build_parser().parse_args(argv)
    assert args.configure(args) == settings


def test_readme_names_only_existing_options():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    named = {option for span in re.findall(r"`([^`]+)`", prose)
             for option in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    subparsers, = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    known = {option for parser in subparsers.choices.values()
             for option in parser._option_string_actions}
    assert {"--k", "--score-from-rank", "--top-k"} <= named
    assert sorted(named - known) == []


# the one-decimal leaderboard of the quick start; the structured format's
# full-precision floats may differ in the last bit across libm builds
QUICK_START_LEADERBOARD = """\
system_id,scope,ndcg_ori,ndcg_ins,ndcg_rev,mrr1_ori,mrr1_ins,mrr1_rev,robustness_ori,robustness_ins,robustness_rev,p_mrr,wise_act,wise_ideal,per,sicr
anti,overall,100.0,50.0,69.3,100.0,0.0,0.0,100.0,50.0,69.3,16.7,-50.0,100.0,150.0,0.0
bm25,overall,9.7,15.7,6.7,0.0,0.0,0.0,9.7,0.0,1.5,-47.5,-47.5,24.2,296.1,0.0
perfect,overall,100.0,100.0,100.0,100.0,100.0,100.0,100.0,100.0,100.0,-58.3,100.0,100.0,0.0,100.0
random,overall,72.8,50.4,60.3,41.7,12.5,16.7,72.8,38.8,52.4,-1.2,-27.2,87.1,131.2,12.5
"""


def _readme_block(heading, lang):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return readme.split(f"## {heading}")[1].split(f"```{lang}\n")[1].split("```")[0]


def _run_quick_start():
    commands = [shlex.split(line) for line in _readme_block("Quick start", "sh").splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(commands) == 5
    for command in commands:
        assert command[0] == "infosearch"
        assert main(command[1:]) == 0, command


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_quick_start()
    assert Path("out/reports/leaderboard.csv").read_text() == QUICK_START_LEADERBOARD


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run_quick_start()
    capsys.readouterr()
    namespace = {}
    exec(_readme_block("Library use", "python"), namespace)
    overall = namespace["rows"][-1]
    assert overall.scope == "overall"
    assert overall.sicr == 1.0  # the quick start's perfect system
    assert capsys.readouterr().out == f"{overall.as_dict()}\n"


# a value for every key the README may list; load_dataset must accept the
# records built from exactly the listed keys
README_VALUES = {"doc_id": "d1", "text": "a document", "dimension": "Audience",
                 "condition": "expert", "core_id": "c1", "query_id": "q1",
                 "instructed_text": "for experts", "reversed_text": "not for experts",
                 "gold_doc_id": "d1"}


def test_readme_data_formats_load(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Data formats")[1].split("\n## ")[0]
    formats = dict(re.findall(r"`(\w+)\*\.jsonl` — `([^`]*)`", section))
    assert sorted(formats) == ["core_queries", "documents", "instructed_queries"]
    for stem, keys in formats.items():
        record = {}
        # '"key"' takes a value; '"key": [{"a", "b"}, ...]' a list of one object
        for key, nested in re.findall(r'"(\w+)"(?::\s*\[\{([^}]*)\})?', keys):
            record[key] = ([{k: README_VALUES[k] for k in re.findall(r'"(\w+)"', nested)}]
                           if nested else README_VALUES[key])
        (tmp_path / f"{stem}.jsonl").write_text(json.dumps(record) + "\n")
    dataset = ingest.load_dataset(tmp_path)
    assert list(dataset.documents) == ["d1"]
    assert dataset.core_queries["c1"].positives == (("d1", "expert"),)
    assert dataset.instructed_queries["q1"].gold_doc_id == "d1"
