import json
import shlex
from pathlib import Path

import pytest

from infosearch_eval import core, ingest
from infosearch_eval.cli import main
from infosearch_eval.core import validate_dataset
from infosearch_eval.synth import SynthSpec, gen_synthetic_dataset


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


def test_validate_missing_directory(tmp_path):
    assert main(["validate", str(tmp_path / "nope")]) == 2


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
        assert main(["--p-mrr-sign", sign, "evaluate", str(dataset_dir),
                     str(runs_dir), "--out", str(out), "--format", "structured"]) == 0
        recs = [json.loads(ln) for ln in
                (out / "random.jsonl").read_text().splitlines()]
        vals[sign] = [r["p_mrr"] for r in recs]
    assert vals["flipped"] == [-v for v in vals["as-printed"]]


def test_evaluate_missing_run_file(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    (runs_dir / "random" / "reversed.run").unlink()
    assert main(["evaluate", str(dataset_dir), str(runs_dir),
                 "--out", str(tmp_path / "x")]) == 2


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
    assert main(["--score-from-rank", "evaluate", str(dataset_dir), str(runs_dir),
                 "--out", str(tmp_path / "yes")]) == 0


def _not_utf8(dataset_dir, runs_dir):
    (runs_dir / "random" / "instructed.run").write_bytes(b"\xff\xfe not utf-8\n")


def _blank(*names):
    def prepare(dataset_dir, runs_dir):
        for name in names:
            (dataset_dir / f"{name}.jsonl").write_text("")
    return prepare


@pytest.mark.parametrize("argv, prepare, code", [
    (["--k", "0", "evaluate", "{dataset}", "{runs}"], None, 2),
    (["--wise-k", "0", "evaluate", "{dataset}", "{runs}"], None, 2),
    (["synth", "--depth", "1"], None, 2),
    (["synth", "--dims", "Foo"], None, 2),
    (["synth", "--behaviors", "perfect,foo"], None, 2),
    (["bm25-run", "{dataset}", "--k1", "-1"], None, 2),
    (["bm25-run", "{dataset}", "--top-k", "0"], None, 2),
    (["bm25-run", "{dataset}", "--top-k", "-1"], None, 2),
    (["evaluate", "{dataset}", "{runs}"], _not_utf8, 1),
    (["bm25-run", "{dataset}"],
     _blank("documents", "core_queries", "instructed_queries"), 1),
    (["evaluate", "{dataset}", "{runs}"], _blank("instructed_queries"), 1),
], ids=["k", "wise-k", "synth-depth", "synth-dims", "synth-behaviors", "bm25-k1",
        "bm25-top-k-0", "bm25-top-k-negative", "run-not-utf8", "bm25-no-documents",
        "evaluate-no-instructed"])
def test_bad_input_exits_with_one_line(argv, prepare, code, fixture_dirs, tmp_path, capsys):
    dataset_dir, runs_dir = fixture_dirs
    if prepare:
        prepare(dataset_dir, runs_dir)
    out = tmp_path / "out"
    argv = [a.format(dataset=dataset_dir, runs=runs_dir) for a in argv] + ["--out", str(out)]
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    assert "error: " in err[-1]
    if code == 1:
        assert len(err) == 1
    assert not out.exists()  # nothing written, not even the first behaviour


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start")[1].split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert command[0] == "infosearch"
        assert main(command[1:]) == 0, command
