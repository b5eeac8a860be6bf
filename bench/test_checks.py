"""Each output check passes on the program's output and fails on a corrupted copy.

    python3 -m unittest discover -s bench -p 'test_*.py'

Small versions of the three workloads are generated, the CLI is run on them
in-process, and then single values of the output are changed.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from infosearch_eval import cli, core, ingest  # noqa: E402
from infosearch_eval.ingest import load_run  # noqa: E402

WORK = BENCH / ".work" / "test-checks"


def setUpModule():
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


def _run(workload) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for command in (workload.warmup_command, workload.command):
            assert cli.main(command) == 0


def _reversed_ties(self, query_key, mode, entries):
    """A faulty ``RankedList.__init__``: ties by descending doc_id."""
    self.query_key, self.mode = query_key, mode
    by_id_desc = sorted(entries, key=lambda e: e[0], reverse=True)
    self.entries = tuple(sorted(by_id_desc, key=lambda e: -e[1]))
    self._positions = {doc_id: i + 1 for i, (doc_id, _) in enumerate(self.entries)}


def _load_run_trusting_ranked_list(path, mode, score_from_rank=False, system_id=""):
    """A ``load_run`` that keeps whatever order ``RankedList`` makes."""
    rows: dict[str, list] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, doc_id, rank, score, _ = line.split()
        rows.setdefault(key, []).append(
            (doc_id, 1.0 / int(rank) if score_from_rank else float(score)))
    runset = core.RunSet(system_id=system_id or Path(path).stem)
    for key, entries in rows.items():
        runset.add(core.RankedList(key, mode, entries))
    return runset


class EvaluateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wide = inputs.eval_wide(5, WORK / "wide", cores_per_dim=3, n_systems=3)
        cls.deep = inputs.eval_deep(5, WORK / "deep", cores_per_dim=3)
        _run(cls.wide)
        _run(cls.deep)

    def outputs(self, wl):
        full = checks.read_reports(wl.warmup_out_dir, "structured")
        printed = checks.read_reports(wl.out_dir, "csv")
        return full, printed

    def test_program_output_passes(self):
        for wl in (self.wide, self.deep):
            self.assertEqual(checks.check_evaluate(wl.warmup_out_dir, wl.out_dir, wl.expected), [])

    def test_deep_lists_reach_the_missing_gold_and_tie_paths(self):
        self.assertGreater(self.deep.stats["gold_missing_any_mode_share"], 0)
        self.assertGreater(self.deep.stats["lists_with_ties_share"], 0)

    def test_full_precision_catches_one_changed_value(self):
        (systems, _), _ = self.outputs(self.deep)
        row = systems["sys02-noisy"][0]
        row["ndcg_ins"] += 1e-8
        failures = checks.check_full_precision(systems, self.deep.expected)
        self.assertEqual(len(failures), 1)
        self.assertIn("ndcg_ins", failures[0])

    def test_full_precision_catches_a_wrong_tie_order(self):
        # the inputs are made under the fault too: the reference must not follow it
        with mock.patch.object(core.RankedList, "__init__", _reversed_ties), \
                mock.patch.object(ingest, "load_run", _load_run_trusting_ranked_list):
            wl = inputs.eval_deep(5, WORK / "deep-ties", cores_per_dim=3)
            _run(wl)
        systems, _ = checks.read_reports(wl.warmup_out_dir, "structured")
        self.assertTrue(checks.check_full_precision(systems, wl.expected))

    def test_printed_catches_one_changed_cell(self):
        _, (systems, board) = self.outputs(self.wide)
        row = systems["sys02-random"][1]
        row["p_mrr"] = f"{float(row['p_mrr']) + 0.1:.1f}"
        failures = checks.check_printed(systems, board, self.wide.expected)
        self.assertEqual(len(failures), 1)
        self.assertIn("p_mrr", failures[0])

    def test_perfect_system_property(self):
        (systems, _), _ = self.outputs(self.deep)
        systems["sys00-perfect"][-1]["per"] = 0.5
        failures = checks.check_full_precision(systems, self.deep.expected)
        self.assertTrue(any("perfect system" in f for f in failures))

    def test_anti_system_property(self):
        (systems, _), _ = self.outputs(self.wide)
        systems["sys01-anti"][0]["wise_act"] = 1.0
        failures = checks.check_full_precision(systems, self.wide.expected)
        self.assertTrue(any("anti system" in f for f in failures))

    def test_shape_catches_a_missing_row(self):
        _, (systems, board) = self.outputs(self.wide)
        del systems["sys00-perfect"][2]
        self.assertTrue(checks.check_shape(systems, board, self.wide.expected))
        _, (systems, board) = self.outputs(self.wide)
        del board[1]
        self.assertTrue(checks.check_shape(systems, board, self.wide.expected))

    def test_digest_sees_one_byte(self):
        before = checks.digest(self.wide.out_dir)
        path = self.wide.out_dir / "leaderboard.csv"
        data = path.read_bytes()
        try:
            path.write_bytes(data[:-2] + b"9\n")
            self.assertNotEqual(checks.digest(self.wide.out_dir), before)
        finally:
            path.write_bytes(data)


class Bm25Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = inputs.bm25_corpus(5, WORK / "bm25", cores_per_dim=2, noise_docs_per_dim=20)
        _run(cls.wl)
        cls.sample = checks.SAMPLE_PER_MODE
        checks.SAMPLE_PER_MODE = 10**6  # every list, so any corrupted one is compared

    @classmethod
    def tearDownClass(cls):
        checks.SAMPLE_PER_MODE = cls.sample

    def check(self):
        return checks.check_bm25(self.wl.out_dir, self.wl.expected, 5, load_run)

    def corrupt(self, mode_file: str, edit):
        path = self.wl.out_dir / mode_file
        original = path.read_text(encoding="utf-8")
        lines = original.splitlines(keepends=True)
        path.write_text("".join(edit(lines)), encoding="utf-8")
        try:
            return self.check()
        finally:
            path.write_text(original, encoding="utf-8")

    def test_program_output_passes(self):
        self.assertEqual(self.check(), [])

    def test_one_changed_score(self):
        def edit(lines):  # raise a rank-1 score, so the order still holds
            parts = lines[0].split()
            parts[4] = repr(float(parts[4]) + 1e-9)
            lines[0] = " ".join(parts) + "\n"
            return lines
        failures = self.corrupt("instructed.run", edit)
        self.assertEqual(len(failures), 1)
        self.assertIn("scores differ", failures[0])

    def test_one_swapped_rank(self):
        def edit(lines):
            a, b = lines[1].split(), lines[2].split()
            a[2], b[2] = b[2], a[2]
            lines[1], lines[2] = " ".join(a) + "\n", " ".join(b) + "\n"
            return lines
        failures = self.corrupt("reversed.run", edit)
        self.assertTrue(any("ranking differs" in f for f in failures))

    def test_one_missing_entry(self):
        failures = self.corrupt("original.run", lambda lines: lines[:-1])
        self.assertTrue(any("entries" in f for f in failures))

    def test_file_that_does_not_load_back(self):
        def edit(lines):
            lines[0] = lines[0].replace(" Q0 ", " Q1 ")
            return lines
        failures = self.corrupt("original.run", edit)
        self.assertTrue(any("load_run failed" in f for f in failures))


class SelfTime(unittest.TestCase):
    def test_children_on_two_threads_are_counted_once(self):
        path = WORK / "spans.json"
        tracer = tracing.Tracer()
        root = ["cli.evaluate", 0.0, 10.0, None, 1, 1]
        tracer.spans = [root,
                        ["ingest.load_run", 1.0, 5.0, root, 2, 7],
                        ["ingest.load_run", 3.0, 6.0, root, 3, 5],
                        ["core.RankedList", 8.0, 9.0, root, 1, 2]]
        tracer.dump(path)
        derived = tracing.derive(path)
        self.assertAlmostEqual(derived["cli.evaluate.self_s"], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(derived["ingest.load_run.s"], 7.0)
        self.assertEqual(derived["ingest.load_run.lines"], 12)
        self.assertEqual(derived["bm25.search.calls"], 0)


if __name__ == "__main__":
    unittest.main()
