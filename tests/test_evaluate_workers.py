"""``evaluate`` in worker processes gives what the plain loop gives.

The CPU count is forced by replacing ``os.sched_getaffinity``: one CPU takes
the plain loop in this process, the reference; two take the forked workers.
The fixture has three systems, anti, perfect and random in sorted order, and
each fault, or run-file shape, goes into perfect, the second.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from infosearch_eval import cli, ingest

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker path needs the fork start method")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fixture_dirs(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "13",
                     "--dims", "Audience,Format", "--cores", "2", "--conditions", "2"]) == 0
    return tmp_path / "dataset", tmp_path / "runs"


def _evaluate(fixture_dirs, out, cpus, monkeypatch, capsys, *options):
    """(exit code, stdout, stderr) of evaluate with ``cpus`` CPUs available."""
    dataset_dir, runs_dir = fixture_dirs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    capsys.readouterr()
    rc = cli.main(["evaluate", str(dataset_dir), str(runs_dir), "--out", str(out), *options])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _record_pids(monkeypatch, log: Path):
    """Log the pid of each process that loads a system; forked workers
    inherit the patched ``ingest.load_system``."""
    load_system = ingest.load_system

    def recording(*args):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return load_system(*args)
    monkeypatch.setattr(ingest, "load_system", recording)


def _pids(log: Path) -> set[int]:
    pids = {int(line) for line in log.read_text().split()}
    log.unlink()
    return pids


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))}


@needs_fork
@pytest.mark.parametrize("fmt", ["markdown", "csv", "structured"])
def test_reports_identical_across_worker_counts(fmt, fixture_dirs, tmp_path, monkeypatch,
                                                capsys):
    log, out = tmp_path / "pids", tmp_path / "reports"
    _record_pids(monkeypatch, log)
    one = _evaluate(fixture_dirs, out, 1, monkeypatch, capsys, "--format", fmt)
    assert _pids(log) == {os.getpid()}
    one_tree = _tree(out)
    out.rename(tmp_path / "one")
    two = _evaluate(fixture_dirs, out, 2, monkeypatch, capsys, "--format", fmt)
    assert os.getpid() not in _pids(log)
    assert one == two and one[0] == 0
    assert _tree(out) == one_tree and len(one_tree) == 4


@needs_fork
def test_plain_loop_without_fork(fixture_dirs, tmp_path, monkeypatch, capsys):
    log = tmp_path / "pids"
    _record_pids(monkeypatch, log)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _evaluate(fixture_dirs, tmp_path / "out", 2, monkeypatch, capsys)[0] == 0
    assert _pids(log) == {os.getpid()}


def _edit(name, edit):
    """Rewrite runs/perfect/<name> as edit(lines) gives it."""
    def prepare(runs_dir):
        path = runs_dir / "perfect" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    return prepare


def _set_column(row, column, value):
    def edit(lines):
        parts = lines[row].split()
        parts[column] = value
        return lines[:row] + [" ".join(parts)] + lines[row + 1:]
    return edit


def _swap_scores(lines):
    first, second = lines[0].split(), lines[1].split()
    first[4], second[4] = second[4], first[4]
    return [" ".join(first), " ".join(second)] + lines[2:]


def _drop_first_list(lines):
    key = lines[0].split()[0]
    return [line for line in lines if line.split()[0] != key]


def _missing_file(runs_dir):
    (runs_dir / "perfect" / "reversed.run").unlink()


def _tie_in_descending_doc_id_order(lines):
    # rank 1 holds audience-c000-d1 and rank 2 audience-c000-d0: give them one score
    return _set_column(1, 4, lines[0].split()[4])(lines)


PERFECT = "{runs}/perfect/"
SCORE_ORDER_AT_RANK_1 = (
    f"{PERFECT}instructed.run: score order contradicts rank order for 'audience-c000-q1'"
    " at rank 1 (tied scores rank by ascending doc_id; --score-from-rank uses the ranks alone)")


@needs_fork
@pytest.mark.parametrize("prepare, code, line", [
    (_edit("instructed.run", lambda lines: lines[:2] + ["garbage"] + lines[3:]), 1,
     f"{PERFECT}instructed.run:3: malformed line: expected 6 columns with Q0"),
    (_edit("instructed.run", lambda lines: _set_column(1, 2, lines[0].split()[2])(lines)), 1,
     f"{PERFECT}instructed.run: duplicate doc 'audience-c000-d1' in list for 'audience-c000-q1'"),
    (_edit("instructed.run", _set_column(0, 3, "999")), 1,
     f"{PERFECT}instructed.run: rank gap in list for 'audience-c000-q1'"),
    (_edit("instructed.run", _swap_scores), 1,
     SCORE_ORDER_AT_RANK_1),
    (_edit("reversed.run", _drop_first_list), 1,
     "perfect: 1 missing list(s): reversed 'audience-c000-q1'"),
    (_missing_file, 2, f"missing run file: {PERFECT}reversed.run"),
    (_edit("original.run", lambda lines: ["\ufeff" + lines[0]] + lines[1:]), 0, None),
    (_edit("instructed.run", lambda lines: ["\t".join(line.split()) for line in lines]), 0, None),
    (_edit("reversed.run", lambda lines: [line + "\r" for line in lines]), 0, None),
    (_edit("instructed.run", lambda lines: lines[:1] + lines), 1,
     f"{PERFECT}instructed.run: duplicate doc 'audience-c000-d1' in list for 'audience-c000-q1'"),
    (_edit("instructed.run", _set_column(0, 3, "0")), 1,
     f"{PERFECT}instructed.run:1: malformed line: rank must be >= 1"),
    (_edit("instructed.run", _set_column(0, 4, "nan")), 1,
     f"{PERFECT}instructed.run:1: malformed line: non-finite score"),
    (_edit("instructed.run", _tie_in_descending_doc_id_order), 1,
     SCORE_ORDER_AT_RANK_1),
], ids=["malformed-line", "repeated-doc", "rank-gap", "score-order", "missing-list",
        "missing-run-file", "byte-order-mark", "tab-separated", "crlf", "repeated-line",
        "rank-0", "nan-score", "tie-in-descending-doc-id-order"])
def test_fault_in_second_system(prepare, code, line, fixture_dirs, tmp_path, monkeypatch,
                                capsys):
    """Each fault, or each shape a run file takes, in the second system.

    A shape that is not a fault (code 0) must give the reports of the file
    as this toolkit writes it.
    """
    clean, out = tmp_path / "clean", tmp_path / "out"
    if code == 0:
        assert _evaluate(fixture_dirs, clean, 1, monkeypatch, capsys)[0] == 0
    prepare(fixture_dirs[1])
    one = _evaluate(fixture_dirs, out, 1, monkeypatch, capsys)
    if code == 0:
        assert _tree(out) == _tree(clean)
        shutil.rmtree(out)
    two = _evaluate(fixture_dirs, out, 2, monkeypatch, capsys)
    assert two == one
    rc, stdout, stderr = two
    assert rc == code
    if code == 0:
        assert stderr == "" and stdout == f"wrote 3 system report(s) to {out}\n"
        assert _tree(out) == _tree(clean)
    else:
        assert stdout == ""
        assert stderr.splitlines() == ["error: " + line.format(runs=fixture_dirs[1])]
        assert not out.exists()


@needs_fork
def test_first_faulty_system_in_sorted_order_is_named(fixture_dirs, tmp_path, monkeypatch,
                                                      capsys):
    runs_dir = fixture_dirs[1]
    # perfect fails on the last line it reads, random on the first
    _edit("reversed.run", lambda lines: lines[:-1] + ["garbage"])(runs_dir)
    (runs_dir / "random" / "original.run").write_text("garbage\n")
    out = tmp_path / "out"
    one = _evaluate(fixture_dirs, out, 1, monkeypatch, capsys)
    two = _evaluate(fixture_dirs, out, 2, monkeypatch, capsys)
    assert two == one
    assert two[0] == 1
    assert two[2].splitlines() == [
        f"error: {runs_dir / 'perfect' / 'reversed.run'}:"
        f"{len((runs_dir / 'perfect' / 'reversed.run').read_text().splitlines())}: "
        "malformed line: expected 6 columns with Q0"]


def _run_python(args, tmp_path):
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    # a timeout, so that a worker path that hangs fails the test instead of stalling it
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)


@needs_fork
@pytest.mark.skipif(cli._cpu_count() < 2, reason="needs two CPUs for the worker path")
def test_malformed_line_exits_1_from_the_command_line(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    _edit("instructed.run", lambda lines: lines[:2] + ["garbage"] + lines[3:])(runs_dir)
    out = tmp_path / "out"
    proc = _run_python(["-m", "infosearch_eval.cli", "evaluate", str(dataset_dir),
                        str(runs_dir), "--out", str(out)], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {runs_dir / 'perfect' / 'instructed.run'}:3: "
        "malformed line: expected 6 columns with Q0"]
    assert proc.stdout == "" and not out.exists()


DYING_WORKER = """
import os, sys
from infosearch_eval import cli, ingest

parent = os.getpid()
os.sched_getaffinity = lambda pid: {0, 1}
load_system = ingest.load_system

def dying(system_dir, *rest):
    if system_dir.name == "perfect":
        assert os.getpid() != parent, "evaluated in the parent process"
        os._exit(3)
    return load_system(system_dir, *rest)

ingest.load_system = dying
sys.exit(cli.main(sys.argv[1:]))
"""


@needs_fork
def test_dead_worker_exits_2(fixture_dirs, tmp_path):
    dataset_dir, runs_dir = fixture_dirs
    out = tmp_path / "out"
    proc = _run_python(["-c", DYING_WORKER, "evaluate", str(dataset_dir), str(runs_dir),
                        "--out", str(out)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: an evaluate worker process died"]
    assert proc.stdout == "" and not out.exists()


def test_importing_the_cli_leaves_out_multiprocessing(tmp_path):
    """Only evaluate's worker path pays for importing multiprocessing, and
    only the commands that use bm25, oracle and synth import them."""
    modules = ["multiprocessing", "infosearch_eval.bm25", "infosearch_eval.oracle",
               "infosearch_eval.synth"]
    proc = _run_python(["-c", "import sys, infosearch_eval.cli; "
                        f"print([m for m in {modules!r} if m in sys.modules])"], tmp_path)
    assert proc.returncode == 0 and proc.stdout == "[]\n"
