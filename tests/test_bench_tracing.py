"""The benchmark's tracer still reaches every layer it reports.

``bench/tracing.py`` wraps the program's functions by name, and a layer whose
wrapped name is no longer called reads 0 under ``bench/run.py --trace 1``
instead of failing.  This runs the traced CLI on a small fixture and requires
each per-layer metric to be non-zero in the ``evaluate`` or the ``bm25-run``
trace.  ``bm25-run`` must also send every query through ``bm25.search``, the
name its per-layer search metrics are recorded under, and count one posting
per document and distinct term that some query holds in ``bm25.build_index``;
``evaluate`` on one system must count one ``EvalRecord`` per instructed query.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from infosearch_eval.bm25 import tokenize
from infosearch_eval.cli import main
from infosearch_eval.ingest import load_dataset

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_reached(tmp_path):
    tracing = _load_tracing()
    fixture = tmp_path / "fixture"
    assert main(["synth", "--out", str(fixture), "--seed", "7", "--dims", "Audience,Format",
                 "--behaviors", "random"]) == 0
    dataset = str(fixture / "dataset")
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    derived = []
    for name, argv in (
            ("evaluate", ["evaluate", dataset, str(fixture / "runs"), "--out", str(tmp_path / "reports")]),
            ("bm25-run", ["bm25-run", dataset, "--out", str(tmp_path / "bm25")])):
        trace = tmp_path / f"{name}.trace.json"
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(trace), *argv],
                       env=env, check=True, capture_output=True, timeout=120)
        derived.append(tracing.derive(trace))
    assert [m for m in tracing.LAYER_METRICS if not any(d[m] for d in derived)] == []
    ds = load_dataset(dataset)
    # one system, so evaluate_system returns one record per instructed query
    assert derived[0]["harness.evaluate_system.queries"] == len(ds.instructed_queries)
    assert derived[1]["bm25.search.calls"] == len(ds.core_queries) + 2 * len(ds.instructed_queries)
    # one posting per document and distinct query term, counted without the index
    texts = [cq.text for cq in ds.core_queries.values()]
    for iq in ds.instructed_queries.values():
        texts += iq.instructed_text, iq.reversed_text
    query_terms = {token for text in texts for token in tokenize(text)}
    postings = sum(len(set(tokenize(d.text)) & query_terms) for d in ds.documents.values())
    assert derived[1]["bm25.build_index.postings"] == postings == 25
