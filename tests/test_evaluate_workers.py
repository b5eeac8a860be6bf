"""``evaluate`` in forked children gives what the plain loop gives.

The CPU count is forced by replacing ``os.sched_getaffinity``: one CPU takes
the plain loop in this process, the reference; two fork two children, each
taking the next system in sorted order as soon as it has finished its last.
The fixture has three systems, anti, perfect and random in sorted order, and
each fault, or run-file shape, goes into perfect, the second.  No evaluate
leaves a child process behind.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from infosearch_eval import cli, ingest, synth
from infosearch_eval.core import RankedList

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker path needs fork")

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
    with pytest.raises(ChildProcessError):  # every child has been reaped
        os.waitpid(-1, os.WNOHANG)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _record_pids(monkeypatch, log: Path):
    """Log the pid of each process that loads a system; forked children
    inherit the patched ``ingest.load_system``."""
    load_system = ingest.load_system

    def recording(*args):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return load_system(*args)
    monkeypatch.setattr(ingest, "load_system", recording)


def _record_forks(monkeypatch) -> list[int]:
    """The pids of the children that os.fork starts from now on."""
    forks, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording)
    return forks


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
    forks = _record_forks(monkeypatch)
    two = _evaluate(fixture_dirs, out, 2, monkeypatch, capsys, "--format", fmt)
    # one child per CPU, not one per system; which child loads which system
    # depends on how soon each starts
    assert len(forks) == 2 and _pids(log) <= set(forks)
    assert one == two and one[0] == 0
    assert _tree(out) == one_tree and len(one_tree) == 4


@needs_fork
def test_plain_loop_without_fork(fixture_dirs, tmp_path, monkeypatch, capsys):
    log = tmp_path / "pids"
    _record_pids(monkeypatch, log)
    monkeypatch.delattr(os, "fork")
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
LONG_SCORE = "x" * 100_000
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
    # a rank that no C long holds
    (_edit("instructed.run", _set_column(0, 3, "9" * 23)), 1,
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
    # float() repeats the token, so the outcome is larger than a pipe's buffer
    (_edit("instructed.run", _set_column(0, 4, LONG_SCORE)), 1,
     f"{PERFECT}instructed.run:1: malformed line: could not convert string to float: "
     f"'{LONG_SCORE}'"),
], ids=["malformed-line", "repeated-doc", "rank-gap", "rank-beyond-c-long", "score-order",
        "missing-list", "missing-run-file", "byte-order-mark", "tab-separated", "crlf",
        "repeated-line", "rank-0", "nan-score", "tie-in-descending-doc-id-order", "long-score"])
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


@needs_fork
def test_dead_worker_exits_2(fixture_dirs, tmp_path, monkeypatch, capsys):
    parent, load_system = os.getpid(), ingest.load_system

    def dying(system_dir, *rest):
        if system_dir.name == "perfect":
            assert os.getpid() != parent, "evaluated in the parent process"
            os._exit(3)
        return load_system(system_dir, *rest)
    monkeypatch.setattr(ingest, "load_system", dying)
    out = tmp_path / "out"
    assert _evaluate(fixture_dirs, out, 2, monkeypatch, capsys) == (
        2, "", "error: an evaluate worker process died\n")
    assert not out.exists()


@needs_fork
def test_death_after_a_faulty_system(fixture_dirs, tmp_path, monkeypatch, capsys):
    """A child that dies on a system after a faulty one leaves the faulty
    system's error line and exit code, as the plain loop gives them."""
    runs_dir, load_system = fixture_dirs[1], ingest.load_system
    _edit("instructed.run", _set_column(0, 3, "999"))(runs_dir)

    def dying(system_dir, *rest):
        if system_dir.name == "random":
            os._exit(3)
        return load_system(system_dir, *rest)
    out = tmp_path / "out"
    one = _evaluate(fixture_dirs, out, 1, monkeypatch, capsys)
    monkeypatch.setattr(ingest, "load_system", dying)
    assert _evaluate(fixture_dirs, out, 2, monkeypatch, capsys) == one == (
        1, "", f"error: {runs_dir / 'perfect' / 'instructed.run'}: "
        "rank gap in list for 'audience-c000-q1'\n")


@needs_fork
def test_other_systems_reports_do_not_depend_on_an_added_system(fixture_dirs, tmp_path,
                                                                monkeypatch, capsys):
    """Adding a system directory leaves every other system's report, and its
    leaderboard row, byte-identical, on one CPU and on two."""
    dataset_dir, runs_dir = fixture_dirs
    reference = tmp_path / "reference"
    assert _evaluate(fixture_dirs, reference, 1, monkeypatch, capsys)[0] == 0
    # far deeper than the others, and sorted second: on two CPUs the other
    # child takes perfect and random while it is evaluated, so they finish first
    dataset = ingest.load_dataset(dataset_dir)
    runs = synth.gen_synthetic_runs(dataset, synth.SynthSpec(seed=14), "random")
    extra = tuple((f"extra-d{n:05d}", 0.0) for n in range(2000))
    for key, ranked in runs.lists.items():
        runs.lists[key] = RankedList(ranked.query_key, ranked.mode, ranked.entries + extra)
    ingest.write_system(dataset, runs, runs_dir / "deep", tag="deep")
    for cpus in (1, 2):
        out = tmp_path / f"cpus-{cpus}"
        assert _evaluate(fixture_dirs, out, cpus, monkeypatch, capsys)[0] == 0
        reports = _tree(out)
        leaderboard = reports.pop("leaderboard.csv").splitlines()
        reference_reports = _tree(reference)
        assert reference_reports.pop("leaderboard.csv").splitlines() == [
            line for line in leaderboard if not line.startswith(b"deep,")]
        assert reports.pop("deep.csv") and reports == reference_reports


@needs_fork
def test_each_system_taken_once_by_more_children_than_cpus(fixture_dirs, tmp_path, monkeypatch,
                                                          capsys):
    """Eight children share the queue of 24 systems, whatever the machine's
    CPUs: each system is loaded once, and the reports are the plain loop's."""
    dataset_dir, runs_dir = fixture_dirs
    for system_dir in sorted(runs_dir.iterdir()):
        for copy in range(8):
            shutil.copytree(system_dir, runs_dir / f"{system_dir.name}-{copy}")
        shutil.rmtree(system_dir)
    assert _evaluate(fixture_dirs, tmp_path / "one", 1, monkeypatch, capsys)[0] == 0
    log = tmp_path / "loads"
    proc = _run_python(["-c", EVALUATE_ON_EIGHT_CPUS, str(log), "evaluate", str(dataset_dir),
                        str(runs_dir), "--out", str(tmp_path / "eight")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(log.read_text().split()) == sorted(p.name for p in runs_dir.iterdir())
    assert _tree(tmp_path / "eight") == _tree(tmp_path / "one")


EVALUATE_ON_EIGHT_CPUS = """
import os, sys
from infosearch_eval import cli, ingest

os.sched_getaffinity = lambda pid: set(range(8))
load_system = ingest.load_system

def logged(system_dir, *rest):
    with open(sys.argv[1], "a") as log:  # one write per line, appended
        log.write(system_dir.name + "\\n")
    return load_system(system_dir, *rest)

ingest.load_system = logged
sys.exit(cli.main(sys.argv[2:]))
"""


def test_importing_the_cli_leaves_out_multiprocessing(fixture_dirs, tmp_path):
    """Only the commands that use bm25, oracle and synth import them, and
    evaluate forks its children without multiprocessing or concurrent.futures."""
    modules = ["multiprocessing", "concurrent.futures", "infosearch_eval.bm25",
               "infosearch_eval.oracle", "infosearch_eval.synth"]
    proc = _run_python(["-c", "import sys, infosearch_eval.cli; "
                        f"print([m for m in {modules!r} if m in sys.modules])"], tmp_path)
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    if not hasattr(os, "fork"):
        return
    dataset_dir, runs_dir = fixture_dirs
    proc = _run_python(["-c", EVALUATE_ON_TWO_CPUS, "evaluate", str(dataset_dir), str(runs_dir),
                        "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


EVALUATE_ON_TWO_CPUS = """
import os, sys
from infosearch_eval import cli, ingest

parent = os.getpid()
os.sched_getaffinity = lambda pid: {0, 1}
load_system = ingest.load_system

def in_a_child(*args):
    assert os.getpid() != parent, "evaluated in the parent process"
    return load_system(*args)

ingest.load_system = in_a_child
rc = cli.main(sys.argv[1:])
print([m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
sys.exit(rc)
"""
