"""Command-line surface: validate, evaluate, bm25-run, synth, oracle.

Exit codes: 0 success, 1 data problem (violations, missing lists,
oversize oracle input), 2 usage or environment problem (bad option
values, I/O, missing paths).  Run directories hold one subdirectory per
system with three mode files: original.run, instructed.run, reversed.run.
``evaluate`` loads the dataset once and evaluates the systems in forked
worker processes, one per CPU in the process's affinity mask and at most one
per system, so ``taskset`` caps them; with one such CPU, or where ``fork`` is
not available, it evaluates them one after another in this process.  Reports
and errors are the same either way: the first faulty system in sorted order
decides the exit code and the one error line.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bm25, ingest, oracle, report, synth
from .core import Dataset, Dimension, Mode, RunSet
from .errors import InfoSearchError
from .harness import evaluate_system
from .metrics import PMRR_AS_PRINTED, PMRR_FLIPPED, MetricConfig

MODE_FILES = {Mode.ORIGINAL: "original.run",
              Mode.INSTRUCTED: "instructed.run",
              Mode.REVERSED: "reversed.run"}


def _config(args) -> MetricConfig:
    sign = PMRR_FLIPPED if args.p_mrr_sign == "flipped" else PMRR_AS_PRINTED
    return MetricConfig(k_ndcg=args.k, k_wise=args.wise_k, p_mrr_sign=sign)


def _bm25_params(args) -> bm25.Bm25Params:
    if args.top_k < 1:
        raise ValueError("require --top-k >= 1")
    return bm25.Bm25Params(k1=args.k1, b=args.b)


def _synth_spec(args) -> synth.SynthSpec:
    for behavior in args.behaviors.split(","):
        if behavior not in synth.BEHAVIORS:
            raise ValueError(f"unknown behavior {behavior!r}")
    dims = (tuple(Dimension) if args.dims == "all"
            else tuple(Dimension(name) for name in args.dims.split(",")))
    return synth.SynthSpec(seed=args.seed, dims=dims, cores_per_dim=args.cores,
                           conditions_per_core=args.conditions,
                           corpus_noise_docs=args.noise_docs, run_depth=args.depth)


def _load_system_runs(system_dir: Path, score_from_rank: bool) -> RunSet:
    runset = RunSet(system_id=system_dir.name)
    for mode, fname in MODE_FILES.items():
        path = system_dir / fname
        if not path.is_file():
            raise FileNotFoundError(path)
        part = ingest.load_run(path, mode, score_from_rank=score_from_rank)
        for ranked in part.lists.values():
            runset.add(ranked)
    return runset


def _write_system_runs(runset: RunSet, out_dir: Path, tag: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for mode, fname in MODE_FILES.items():
        part = RunSet(system_id=runset.system_id)
        for (key, m), ranked in runset.lists.items():
            if m is mode:
                part.add(ranked)
        ingest.write_run(part, out_dir / fname, tag=tag)


def cmd_validate(args) -> int:
    dataset_dir = Path(args.dataset)
    if not dataset_dir.is_dir():
        print(f"error: no such directory: {dataset_dir}", file=sys.stderr)
        return 2
    try:
        _, rep = ingest.load_dataset_with_report(dataset_dir)
    except InfoSearchError as exc:
        print(f"invalid dataset: {exc}")
        return 1
    print("dimension,core,instructed,reversed,docs")
    for dim, (c, i, r, d) in rep.counts.items():
        print(f"{dim.value},{c},{i},{r},{d}")
    c, i, r, d = rep.totals()
    print(f"total,{c},{i},{r},{d}")
    print("OK: 0 violations")
    return 0


def _evaluate_one(dataset: Dataset, system_dir: Path, cfg: MetricConfig,
                  score_from_rank: bool):
    runset = _load_system_runs(system_dir, score_from_rank)
    _, summaries, overall = evaluate_system(dataset, runset, cfg)
    rows = [report.row_from_summary(runset.system_id, s) for s in summaries]
    rows.append(report.row_from_summary(runset.system_id, overall))
    return rows


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# (dataset, cfg, score_from_rank), set in each worker process only
_worker_args = None


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _evaluate_in_worker(system_dir: Path):
    dataset, cfg, score_from_rank = _worker_args
    return _evaluate_one(dataset, system_dir, cfg, score_from_rank)


def _evaluate_all(dataset: Dataset, system_dirs: list[Path], cfg: MetricConfig,
                  score_from_rank: bool) -> list[list]:
    """The report rows of each system, in the order of system_dirs.

    Raises what evaluating the first faulty system raises, and
    ChildProcessError when a worker process dies.
    """
    workers = min(_cpu_count(), len(system_dirs))
    if workers > 1:
        # imported here: it costs every other command time and memory
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            # fork, so that each worker inherits the dataset instead of
            # unpickling it; this process runs no other thread when it forks
            try:
                with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                         initializer=_init_worker,
                                         initargs=(dataset, cfg, score_from_rank)) as pool:
                    return list(pool.map(_evaluate_in_worker, system_dirs))
            except BrokenProcessPool as exc:
                raise ChildProcessError("an evaluate worker process died") from exc
    return [_evaluate_one(dataset, d, cfg, score_from_rank) for d in system_dirs]


def cmd_evaluate(args) -> int:
    dataset_dir, runs_dir, out_dir = Path(args.dataset), Path(args.runs), Path(args.out)
    if not dataset_dir.is_dir() or not runs_dir.is_dir():
        print("error: dataset or runs directory missing", file=sys.stderr)
        return 2
    try:
        dataset = ingest.load_dataset(dataset_dir)
        system_dirs = sorted(p for p in runs_dir.iterdir() if p.is_dir())
        if not system_dirs:
            print("error: no system subdirectories in runs directory", file=sys.stderr)
            return 2
        all_rows = _evaluate_all(dataset, system_dirs, args.settings, args.score_from_rank)
    except FileNotFoundError as exc:
        print(f"error: missing run file: {exc}", file=sys.stderr)
        return 2
    except InfoSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    ext = {"markdown": "md", "csv": "csv", "structured": "jsonl"}[args.format]
    leaderboard = []
    for rows in all_rows:
        (out_dir / f"{rows[0].system_id}.{ext}").write_bytes(report.render(rows, args.format))
        leaderboard.append(rows[-1])  # the overall row
    (out_dir / f"leaderboard.{ext}").write_bytes(report.render(leaderboard, args.format))
    print(f"wrote {len(all_rows)} system report(s) to {out_dir}")
    return 0


def cmd_bm25_run(args) -> int:
    dataset_dir, out_dir = Path(args.dataset), Path(args.out)
    if not dataset_dir.is_dir():
        print(f"error: no such directory: {dataset_dir}", file=sys.stderr)
        return 2
    try:
        dataset = ingest.load_dataset(dataset_dir)
        runset = bm25.run_all_modes(dataset, args.settings, top_k=args.top_k)
    except InfoSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_system_runs(runset, out_dir, tag="bm25")
    print(f"wrote BM25 runs ({len(runset.lists)} lists) to {out_dir}")
    return 0


def cmd_synth(args) -> int:
    out_dir, spec = Path(args.out), args.settings
    dataset = synth.gen_synthetic_dataset(spec)
    ingest.write_dataset(dataset, out_dir / "dataset")
    for behavior in args.behaviors.split(","):
        runset = synth.gen_synthetic_runs(dataset, spec, behavior)
        _write_system_runs(runset, out_dir / "runs" / behavior, tag=behavior)
    print(f"wrote synthetic fixtures to {out_dir}")
    return 0


def cmd_oracle(args) -> int:
    dataset_dir, system_dir = Path(args.dataset), Path(args.runs)
    if not dataset_dir.is_dir() or not system_dir.is_dir():
        print("error: dataset or runs directory missing", file=sys.stderr)
        return 2
    cfg = args.settings
    try:
        dataset = ingest.load_dataset(dataset_dir)
        if len(dataset.instructed_queries) > oracle.MAX_ORACLE_QUERIES:
            print(f"error: oracle input exceeds {oracle.MAX_ORACLE_QUERIES} queries",
                  file=sys.stderr)
            return 1
        runset = _load_system_runs(system_dir, args.score_from_rank)
        _, summaries, overall = evaluate_system(dataset, runset, cfg)
    except FileNotFoundError as exc:
        print(f"error: missing run file: {exc}", file=sys.stderr)
        return 2
    except InfoSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    harness_view = {s.scope: s.as_dict() for s in summaries}
    harness_view["overall"] = overall.as_dict()
    mismatches = oracle.diff_reports(harness_view,
                                     oracle.oracle_metrics(dataset, runset, cfg))
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(mismatches)} mismatches")
    return 0 if not mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosearch",
        description="Instruction-following retrieval evaluation toolkit.")
    parser.add_argument("--k", type=int, default=10, help="nDCG/Robustness cutoff")
    parser.add_argument("--wise-k", type=int, default=20, help="WISE top-K focus")
    parser.add_argument("--p-mrr-sign", choices=["as-printed", "flipped"], default="as-printed")
    parser.add_argument("--score-from-rank", action="store_true",
                        help="replace run scores with 1/rank (rank-only systems)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check dataset integrity and counts")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_validate, configure=_config)

    p = sub.add_parser("evaluate", help="score one run directory per system")
    p.add_argument("dataset")
    p.add_argument("runs")
    p.add_argument("--out", default="reports")
    p.add_argument("--format", choices=list(report.FORMATS), default="csv")
    p.set_defaults(func=cmd_evaluate, configure=_config)

    p = sub.add_parser("bm25-run", help="produce three-mode BM25 run files")
    p.add_argument("dataset")
    p.add_argument("--out", default="bm25-runs")
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--top-k", type=int, default=100)
    p.set_defaults(func=cmd_bm25_run, configure=_bm25_params)

    p = sub.add_parser("synth", help="generate seeded synthetic fixtures")
    p.add_argument("--out", default="synth-fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="all", help="comma-separated dimension names or 'all'")
    p.add_argument("--cores", type=int, default=2)
    p.add_argument("--conditions", type=int, default=2)
    p.add_argument("--noise-docs", type=int, default=4)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--behaviors", default="perfect,anti,random")
    p.set_defaults(func=cmd_synth, configure=_synth_spec)

    p = sub.add_parser("oracle", help="diff harness output against the naive oracle")
    p.add_argument("dataset")
    p.add_argument("runs", help="one system directory with three mode files")
    p.set_defaults(func=cmd_oracle, configure=_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the options' own objects check their ranges: a bad value is a usage error
        args.settings = args.configure(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
