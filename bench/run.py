"""Benchmark of ``infosearch evaluate`` and ``infosearch bm25-run``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  The run generates the workload's inputs from the seed, runs one
untimed warm-up command whose output is checked in depth, then repeats
rounds until S seconds have passed:

* ``--trace 0``: one CLI command in its default configuration, timed from
  outside as a child process, then one set-up probe in a fresh interpreter.
  Prints the end-to-end metrics: median queries per second, median set-up
  time, median peak resident memory of the command's process.
* ``--trace 1``: one untraced command, then one command with every measured
  layer traced (``tracing.py``).  Prints the per-layer metrics (medians over
  the traced commands) and the tracing overhead.

Every command's output must be byte-identical to the first timed one, and the
last one is checked against independent references (``checks.py``).  A
command or set-up probe that fails also fails the run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (operations: the queries of each command, one per set-up probe)
and ``metrics``.  Details of each run go
to standard error.  Generated inputs live in ``bench/.work`` and are removed
when the run ends; the span file of the last traced command is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("eval-wide", "eval-deep", "bm25-corpus")
END_TO_END_UNITS = {"queries_per_s": "queries/s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_ROUNDS, MIN_TRACED_ROUNDS = 3, 2
# stop starting rounds after this long, so a run on a slow machine still ends
# well inside three minutes
HARD_STOP_S = 140.0


def _log(msg: str, **fields) -> None:
    print(json.dumps({"msg": msg, **fields}), file=sys.stderr, flush=True)


def _run_child(argv: list[str], env: dict, log_path: Path) -> dict:
    """Run a child to its end through launch.py; return launch.py's report."""
    report = log_path.with_suffix(".report")
    with log_path.open("wb") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py"), str(report), *argv],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait()
        except BaseException:
            proc.terminate()  # launch.py stops its own child before it exits
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited with {proc.returncode}")
    return json.loads(report.read_text())


def _steal_ticks() -> int | None:
    """Clock ticks the hypervisor has withheld from this machine's CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


class Runner:
    """Starts the children of one run: CLI commands, traced commands, set-up probes."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.log = work / "child.log"

    def _run(self, argv: list[str]) -> dict:
        result = _run_child(argv, self.env, self.log)
        if result["rc"] != 0:
            _log("child failed", argv=argv, rc=result["rc"],
                 output=self.log.read_text(errors="replace")[-2000:])
        return result

    def command(self, args: list[str]) -> dict:
        return self._run([sys.executable, "-m", "infosearch_eval.cli", *args])

    def traced(self, trace_file: Path) -> dict:
        return self._run([sys.executable, str(BENCH / "traced_cli.py"), str(trace_file),
                          *self.wl.command])

    def setup(self) -> float | None:
        if self._run([sys.executable, str(BENCH / "probe_setup.py"),
                      *self.wl.setup_args])["rc"] != 0:
            return None
        return json.loads(self.log.read_text().splitlines()[-1])["setup_s"]


def measure(runner: Runner, seconds: int, trace_file: Path | None, started: float):
    """Repeat whole rounds for ``seconds``.

    A round is one timed command followed, untraced, by set-up probes worth
    at least a quarter of the command's wall time (one at least), or, traced,
    by one traced command.
    """
    wl = runner.wl
    samples: dict[str, list] = {"wall": [], "rss": [], "cpu": [], "setup": [],
                                "traced_wall": [], "layers": []}
    attempted = failed = rounds = 0
    digests = {checks.digest(wl.out_dir)} if wl.warmup_command == wl.command else set()
    t0 = time.perf_counter()

    def command(run):
        nonlocal attempted, failed
        result = run()
        attempted += wl.queries
        if result["rc"] != 0:
            failed += wl.queries
            return None
        digests.add(checks.digest(wl.out_dir))
        return result

    while True:
        result = command(lambda: runner.command(wl.command))
        if result:
            samples["wall"].append(result["wall_s"])
            samples["rss"].append(result["peak_rss_mb"])
            samples["cpu"].append(result["cpu_s"])
        if trace_file is not None:
            traced = command(lambda: runner.traced(trace_file))
            if traced:
                samples["traced_wall"].append(traced["wall_s"])
                samples["layers"].append(tracing.derive(trace_file))
        else:
            budget = time.perf_counter() + 0.25 * (result["wall_s"] if result else 0.0)
            while True:
                setup = runner.setup()
                attempted += 1
                if setup is None:
                    failed += 1
                else:
                    samples["setup"].append(setup)
                if time.perf_counter() >= budget:
                    break
        rounds += 1
        if time.perf_counter() - started > HARD_STOP_S:
            break
        min_rounds = MIN_ROUNDS if trace_file is None else MIN_TRACED_ROUNDS
        if rounds >= min_rounds and time.perf_counter() - t0 >= seconds:
            break
    return samples, attempted, failed, digests, rounds


def _end_to_end(wl, samples) -> dict:
    metrics = {}
    if samples["wall"]:
        metrics["queries_per_s"] = statistics.median(wl.queries / w for w in samples["wall"])
        metrics["peak_rss_mb"] = statistics.median(samples["rss"])
    if samples["setup"]:
        metrics["setup_s"] = statistics.median(samples["setup"])
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _per_layer(samples) -> dict:
    layers = samples["layers"]
    if not layers or not samples["wall"]:
        return {}
    metrics = {name: {"value": statistics.median(d[name] for d in layers),
                      "unit": tracing.UNITS[name]}
               for name in layers[0]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(samples["traced_wall"]) - statistics.median(samples["wall"]),
        "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM unwind normally, so that children are stopped and inputs removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "infosearch_eval" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'infosearch_eval' / 'cli.py'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import infosearch_eval
    if Path(infosearch_eval.__file__).resolve().parent != SRC / "infosearch_eval":
        print(f"error: imported {infosearch_eval.__file__}, not the program under {SRC}",
              file=sys.stderr)
        return 2
    import inputs  # imports the program

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t = time.perf_counter()
        wl = inputs.BUILDERS[args.workload](args.seed, work)
        _log("inputs", workload=wl.name, seed=args.seed, queries_per_command=wl.queries,
             generate_s=round(time.perf_counter() - t, 3), **wl.stats)
        runner = Runner(wl, work)

        # warm-up: file cache, byte-code cache, and the output checked in depth
        if runner.setup() is None:
            print("error: warm-up set-up probe failed", file=sys.stderr)
            return 1
        if runner.command(wl.warmup_command)["rc"] != 0:
            print("error: warm-up command failed", file=sys.stderr)
            return 1

        trace_file = WORK / f"trace-{wl.name}.json" if args.trace else None
        steal0, t = _steal_ticks(), time.perf_counter()
        samples, attempted, failed, digests, rounds = measure(runner, args.seconds,
                                                              trace_file, started)
        steal1, window = _steal_ticks(), time.perf_counter() - t
        # a slow run on a shared machine often coincides with a high share here
        steal_share = (None if steal0 is None or steal1 is None else
                       (steal1 - steal0) / (window * os.sysconf("SC_CLK_TCK") * os.cpu_count()))

        t = time.perf_counter()
        failures = [f"{failed} of {attempted} operations failed"] if failed else []
        if len(digests) > 1:
            failures.append(f"outputs of repeated commands differ ({len(digests)} versions)")
        if wl.name == "bm25-corpus":
            from infosearch_eval.ingest import load_run
            failures += checks.check_bm25(wl.out_dir, wl.expected, args.seed, load_run)
        else:
            failures += checks.check_evaluate(wl.warmup_out_dir, wl.out_dir, wl.expected)
        for line in failures[:20]:
            _log("check failed", detail=line)
        _log("samples", rounds=rounds, check_s=round(time.perf_counter() - t, 3),
             machine_steal_share=steal_share, wall_s=samples["wall"], cpu_s=samples["cpu"],
             traced_wall_s=samples["traced_wall"], setup_s=samples["setup"],
             peak_rss_mb=samples["rss"])

        metrics = _per_layer(samples) if args.trace else _end_to_end(wl, samples)
        correct = not failures
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
