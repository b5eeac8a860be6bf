"""``evaluate`` in worker processes gives what the plain loop gives.

The CPU count is forced by replacing ``os.sched_getaffinity``: one CPU takes
the plain loop in this process, the reference; two take the forked workers.
The fixture has three systems, anti, perfect and random in sorted order, and
each fault goes into perfect, the second.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infosearch_eval import cli

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
    evaluate_one = cli._evaluate_one

    def recording(*args):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return evaluate_one(*args)
    monkeypatch.setattr(cli, "_evaluate_one", recording)


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
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)))
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


@needs_fork
@pytest.mark.parametrize("prepare, code, message", [
    (_edit("instructed.run", lambda lines: lines[:2] + ["garbage"] + lines[3:]), 1,
     "perfect/instructed.run:3: malformed line"),
    (_edit("instructed.run", lambda lines: _set_column(1, 2, lines[0].split()[2])(lines)), 1,
     "duplicate doc"),
    (_edit("instructed.run", _set_column(0, 3, "999")), 1, "rank gap"),
    (_edit("instructed.run", _swap_scores), 1, "score order contradicts rank order"),
    (_edit("reversed.run", _drop_first_list), 1, "1 missing list(s): reversed"),
    (_missing_file, 2, "missing run file"),
], ids=["malformed-line", "repeated-doc", "rank-gap", "score-order", "missing-list",
        "missing-run-file"])
def test_fault_in_second_system(prepare, code, message, fixture_dirs, tmp_path, monkeypatch,
                                capsys):
    prepare(fixture_dirs[1])
    out = tmp_path / "out"
    one = _evaluate(fixture_dirs, out, 1, monkeypatch, capsys)
    two = _evaluate(fixture_dirs, out, 2, monkeypatch, capsys)
    assert two == one
    rc, stdout, stderr = two
    assert rc == code and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert message in stderr
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
from infosearch_eval import cli

parent = os.getpid()
os.sched_getaffinity = lambda pid: {0, 1}
evaluate_one = cli._evaluate_one

def dying(dataset, system_dir, *rest):
    if system_dir.name == "perfect":
        assert os.getpid() != parent, "evaluated in the parent process"
        os._exit(3)
    return evaluate_one(dataset, system_dir, *rest)

cli._evaluate_one = dying
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
    """Only evaluate's worker path pays for importing multiprocessing."""
    proc = _run_python(["-c", "import sys, infosearch_eval.cli; "
                        "print('multiprocessing' in sys.modules)"], tmp_path)
    assert proc.returncode == 0 and proc.stdout == "False\n"
