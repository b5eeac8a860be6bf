"""Command-line surface: validate, evaluate, bm25-run, synth, oracle.

Exit codes: 0 success, 1 data problem (an ``InfoSearchError``), 2 usage or
environment problem (a ``ValueError`` from an option's settings, an
``OSError``).  ``main`` turns every failure into its exit code and one
``error:`` line on stderr; ``validate`` prints what is wrong with a dataset
on stdout instead, as its report.  Run directories hold one subdirectory per
system, which ``ingest.load_system`` reads and ``ingest.write_system``
writes.  ``evaluate`` loads the dataset once and forks one child per CPU in
the process's affinity mask, so ``taskset`` caps them, and never more
children than systems; each child takes the next system in sorted order as
soon as it has finished its last.  With one such CPU, or where ``os.fork``
is not available, it evaluates the systems one after another in this
process.  Reports and errors are the same either way: the first faulty
system in sorted order, or the first whose child died on it, decides the
exit code and the one error line.  The scoring options (``--k``,
``--wise-k``, ``--p-mrr-sign``, ``--score-from-rank``) follow ``evaluate``
or ``oracle``.  Each command imports the modules that only it uses,
``bm25``, ``synth`` or ``oracle``, when it runs, and a settings option that
is not given takes its default from the settings type.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from . import ingest, report
from .core import Dataset, Dimension
from .errors import InfoSearchError
from .harness import DimensionSummary, evaluate_system
from .metrics import PMRR_AS_PRINTED, PMRR_FLIPPED, MetricConfig


def _config(args) -> MetricConfig:
    return MetricConfig(k_ndcg=args.k, k_wise=args.wise_k, p_mrr_sign=args.p_mrr_sign)


def _given(args, **options: str) -> dict:
    """Settings field -> value of its option, for the options given."""
    return {field: getattr(args, option) for field, option in options.items()
            if getattr(args, option) is not None}


def _bm25_params(args):
    from .bm25 import Bm25Params
    if args.top_k < 1:
        raise ValueError("require --top-k >= 1")
    return Bm25Params(**_given(args, k1="k1", b="b"))


def _synth_spec(args):
    from .synth import BEHAVIORS, SynthSpec
    behaviors = args.behaviors.split(",")
    for behavior in behaviors:
        if behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {behavior!r}")
    dims = (tuple(Dimension) if args.dims == "all"
            else tuple(Dimension(name) for name in args.dims.split(",")))
    return SynthSpec(seed=args.seed, dims=dims, **_given(
        args, cores_per_dim="cores", conditions_per_core="conditions",
        corpus_noise_docs="noise_docs", run_depth="depth")), behaviors


def cmd_validate(args) -> int:
    try:
        dataset = ingest.load_dataset(args.dataset)
    except InfoSearchError as exc:
        print(f"invalid dataset: {exc}")
        return 1
    cores, queries, docs = (Counter(r.dimension for r in records.values()) for records in (
        dataset.core_queries, dataset.instructed_queries, dataset.documents))
    # the reversed column repeats the instructed one: each instructed query has a reversed text
    print("dimension,core,instructed,reversed,docs")
    for dim in Dimension:
        if cores[dim] or queries[dim] or docs[dim]:
            print(f"{dim.value},{cores[dim]},{queries[dim]},{queries[dim]},{docs[dim]}")
    print(f"total,{cores.total()},{queries.total()},{queries.total()},{docs.total()}")
    print("OK: 0 violations")
    return 0


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fork_children(evaluate_each, count: int, workers: int) -> list:
    """The outcome of evaluate_each for each of count systems, from ``workers``
    forked children, or None where no child finished the system.

    The children share one queue file of system indices and its offset, so
    that each read takes the next system; each child appends its pickled
    (index, outcome) pairs to its own file and never waits for this process.
    """
    # imported here: only this path uses them
    import contextlib
    import pickle
    import signal
    import tempfile
    outcomes: list = [None] * count
    with contextlib.ExitStack() as files:
        queue, *results = [files.enter_context(tempfile.TemporaryFile())
                           for _ in range(workers + 1)]
        queue.write(b"".join(index.to_bytes(4, "little") for index in range(count)))
        queue.seek(0)  # which first writes the buffered indices to the file
        pids = []  # the children not yet reaped
        try:
            for result in results:
                # this process runs no other thread when it forks
                pid = os.fork()
                # the child leaves through os._exit, so that it flushes none of this
                # process's buffers and runs none of its clean-up
                if pid == 0:
                    try:
                        taken = iter(lambda: os.read(queue.fileno(), 4), b"")
                        for pair in evaluate_each(int.from_bytes(b, "little") for b in taken):
                            pickle.dump(pair, result)
                            result.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
            while pids:
                os.waitpid(pids.pop(), 0)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for result in results:
            result.seek(0)
            try:
                while True:
                    index, outcome = pickle.load(result)
                    outcomes[index] = outcome
            except (EOFError, pickle.UnpicklingError):  # its end, or a pair its child cut short
                pass
    return outcomes


def _evaluate_all(dataset: Dataset, system_dirs: list[Path], cfg: MetricConfig,
                  score_from_rank: bool) -> list[list[DimensionSummary]]:
    """The result rows of each system, in the order of system_dirs.

    Raises what evaluating the first faulty system raises, or
    ChildProcessError when a forked child died on a system before that one.
    """
    def evaluate_each(indices):
        """(index, rows) per system index, until the first that raises: (index, exception)."""
        for index in indices:
            try:
                rows = evaluate_system(
                    dataset, ingest.load_system(system_dirs[index], score_from_rank), cfg)[1]
            except Exception as exc:
                yield index, exc
                return
            yield index, rows

    workers = min(_cpu_count(), len(system_dirs))
    # forked, so that each child sees the dataset instead of unpickling it
    outcomes = ([outcome for _, outcome in evaluate_each(range(len(system_dirs)))]
                if workers < 2 or not hasattr(os, "fork")
                else _fork_children(evaluate_each, len(system_dirs), workers))
    # systems are taken in sorted order, and a child stops taking them only at an
    # exception or by dying: the first system without rows is faulty, or its child died
    for outcome in outcomes:
        if outcome is None:
            raise ChildProcessError("an evaluate worker process died")
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def cmd_evaluate(args) -> int:
    dataset = ingest.load_dataset(args.dataset)
    system_dirs = sorted(p for p in ingest.existing_dir(args.runs).iterdir() if p.is_dir())
    if not system_dirs:
        raise FileNotFoundError("no system subdirectories in runs directory")
    if args.runs / "leaderboard" in system_dirs:  # its report would be the leaderboard's file
        raise FileExistsError("system directory name reserved for the leaderboard: "
                              f"{args.runs / 'leaderboard'}")
    all_rows = _evaluate_all(dataset, system_dirs, args.settings, args.score_from_rank)

    args.out.mkdir(parents=True, exist_ok=True)
    ext = report.FORMATS[args.format]
    for d, rows in zip(system_dirs, all_rows):
        (args.out / f"{d.name}.{ext}").write_bytes(
            report.render([(d.name, row) for row in rows], args.format))
    leaderboard = [(d.name, rows[-1]) for d, rows in zip(system_dirs, all_rows)]  # overall rows
    (args.out / f"leaderboard.{ext}").write_bytes(report.render(leaderboard, args.format))
    print(f"wrote {len(all_rows)} system report(s) to {args.out}")
    return 0


def cmd_bm25_run(args) -> int:
    from . import bm25
    dataset = ingest.load_dataset(args.dataset)
    runset = bm25.run_all_modes(dataset, args.settings, args.top_k)
    ingest.write_system(dataset, runset, args.out, tag="bm25")
    print(f"wrote BM25 runs ({len(runset.lists)} lists) to {args.out}")
    return 0


def cmd_synth(args) -> int:
    from . import synth
    out_dir, (spec, behaviors) = args.out, args.settings
    dataset = synth.gen_synthetic_dataset(spec)
    ingest.write_dataset(dataset, out_dir / "dataset")
    for behavior in behaviors:
        runset = synth.gen_synthetic_runs(dataset, spec, behavior)
        ingest.write_system(dataset, runset, out_dir / "runs" / behavior, tag=behavior)
    print(f"wrote synthetic fixtures to {out_dir}")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle
    dataset = ingest.load_dataset(args.dataset)
    if len(dataset.instructed_queries) > oracle.MAX_ORACLE_QUERIES:
        raise InfoSearchError(f"oracle input exceeds {oracle.MAX_ORACLE_QUERIES} queries")
    runset = ingest.load_system(args.runs, args.score_from_rank)
    harness_view = {row.scope: row.as_dict()
                    for row in evaluate_system(dataset, runset, args.settings)[1]}
    mismatches = oracle.diff_reports(harness_view,
                                     oracle.oracle_metrics(dataset, runset, args.settings))
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(mismatches)} mismatches")
    return 0 if not mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosearch", allow_abbrev=False,
        description="Instruction-following retrieval evaluation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    scoring = argparse.ArgumentParser(add_help=False)  # evaluate's and oracle's options
    scoring.add_argument("--k", type=int, default=MetricConfig.k_ndcg,
                         help="nDCG/Robustness cutoff")
    scoring.add_argument("--wise-k", type=int, default=MetricConfig.k_wise,
                         help="WISE top-K focus")
    scoring.add_argument("--p-mrr-sign", choices=[PMRR_AS_PRINTED, PMRR_FLIPPED],
                         default=MetricConfig.p_mrr_sign)
    scoring.add_argument("--score-from-rank", action="store_true",
                         help="replace run scores with 1/rank (rank-only systems)")

    p = sub.add_parser("validate", allow_abbrev=False, help="check dataset integrity and counts")
    p.add_argument("dataset", type=Path)
    p.set_defaults(func=cmd_validate, configure=lambda args: None)

    p = sub.add_parser("evaluate", parents=[scoring], allow_abbrev=False,
                       help="score one run directory per system")
    p.add_argument("dataset", type=Path)
    p.add_argument("runs", type=Path)
    p.add_argument("--out", type=Path, default="reports")
    p.add_argument("--format", choices=list(report.FORMATS), default="csv")
    p.set_defaults(func=cmd_evaluate, configure=_config)

    p = sub.add_parser("bm25-run", allow_abbrev=False, help="produce three-mode BM25 run files")
    p.add_argument("dataset", type=Path)
    p.add_argument("--out", type=Path, default="bm25-runs")
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--top-k", type=int, default=100)
    p.set_defaults(func=cmd_bm25_run, configure=_bm25_params)

    p = sub.add_parser("synth", allow_abbrev=False, help="generate seeded synthetic fixtures")
    p.add_argument("--out", type=Path, default="synth-fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="all", help="comma-separated dimension names or 'all'")
    p.add_argument("--cores", type=int)
    p.add_argument("--conditions", type=int)
    p.add_argument("--noise-docs", type=int)
    p.add_argument("--depth", type=int,
                   help="most entries in a list, noise included (at least --conditions + 2)")
    p.add_argument("--behaviors", default="perfect,anti,random")
    p.set_defaults(func=cmd_synth, configure=_synth_spec)

    p = sub.add_parser("oracle", parents=[scoring], allow_abbrev=False,
                       help="diff harness output against the naive oracle")
    p.add_argument("dataset", type=Path)
    p.add_argument("runs", type=Path, help="one system directory with three mode files")
    p.set_defaults(func=cmd_oracle, configure=_config)

    parser.set_defaults(commands=sub.choices)  # each command's own parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the options' own objects check their ranges: a bad value is a usage error
        args.settings = args.configure(args)
    except ValueError as exc:
        # named by the command's parser, as argparse names its own errors
        args.commands[args.command].error(str(exc))
    try:
        return args.func(args)
    except (InfoSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
