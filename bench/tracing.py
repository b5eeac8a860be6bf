"""Spans around calls into the program's layers, recorded from outside.

``install`` replaces public functions of the ``infosearch_eval`` modules with
wrappers that record a span per call: name, start, end, parent and thread,
plus a count of the work done where the layer has one.  The code under
``src/`` is not edited.  Spans stay in memory and are written out once, when
the traced command ends.  ``derive`` turns a span file into the per-layer
metrics.

A span opened on a thread with no open span of its own (the CLI's worker
pool) takes the main thread's open top-level span as its parent, so the
self time of ``cli.evaluate`` is the part of its interval that no span on
any thread covers.  Span intervals are wall time: on a thread pool that
shares the interpreter lock they overlap, so sums over threads exceed the
command's wall time.
"""

from __future__ import annotations

import functools
import json
import threading
import time

# the calls from harness into the metric kernel
KERNEL = ("ndcg_at_k", "mrr_at_1", "robustness_at_k", "p_mrr_doc",
          "sicr_indicator", "wise_query", "wise_ideal_query")


class Tracer:
    def __init__(self):
        # [name, start, end, parent record or None, thread id, count]
        self.spans: list[list] = []
        self._local = threading.local()
        self._root: list | None = None
        self._main = threading.get_ident()

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn``; ``count(args, result)`` gives the span's work count."""
        perf_counter, get_ident, spans, local = (time.perf_counter, threading.get_ident,
                                                 self.spans, self._local)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            thread = get_ident()
            parent = stack[-1] if stack else self._root
            rec = [name, 0.0, 0.0, parent, thread, 1]
            top_level = not stack and thread == self._main
            if top_level:
                self._root = rec
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if top_level:
                    self._root = None
                spans.append(rec)
            if count is not None:
                rec[5] = count(args, result)
            return result
        return traced

    def dump(self, path) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        names = sorted({rec[0] for rec in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        rows = [[name_ix[name], start, end, -1 if parent is None else index[id(parent)],
                 thread, count]
                for name, start, end, parent, thread, count in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "count"],
                       "names": names, "spans": rows}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer where its callers look it up."""
    from infosearch_eval import bm25, cli, core, harness, ingest, report

    def lines(args, runset):
        return sum(len(r.entries) for r in runset.lists.values())

    def records(args, dataset):
        return (len(dataset.documents) + len(dataset.core_queries)
                + len(dataset.instructed_queries))

    cli.cmd_evaluate = tracer.wrap("cli.evaluate", cli.cmd_evaluate)
    cli.cmd_bm25_run = tracer.wrap("cli.bm25_run", cli.cmd_bm25_run)
    ingest.load_dataset = tracer.wrap("ingest.load_dataset", ingest.load_dataset, records)
    ingest.validate_dataset = tracer.wrap("core.validate_dataset", ingest.validate_dataset)
    ingest.load_run = tracer.wrap("ingest.load_run", ingest.load_run, lines)
    ingest.write_run = tracer.wrap("ingest.write_run", ingest.write_run,
                                   lambda args, _: lines((), args[0]))
    init = core.RankedList.__init__
    core.RankedList.__init__ = tracer.wrap("core.RankedList", init,
                                           lambda args, _: len(args[3]))
    harness.build_gold_contexts = tracer.wrap("harness.build_gold_contexts",
                                              harness.build_gold_contexts)
    cli.evaluate_system = tracer.wrap("harness.evaluate_system", cli.evaluate_system,
                                      lambda args, result: len(result[0]))
    for fn in KERNEL:
        setattr(harness, fn, tracer.wrap(f"metrics.kernel.{fn}", getattr(harness, fn)))
    report.render = tracer.wrap("report.render", report.render,
                                lambda args, result: len(result))
    raw_tokenize = bm25.tokenize
    bm25.tokenize = tracer.wrap("bm25.tokenize", raw_tokenize,
                                lambda args, _: len(args[0]))
    bm25.build_index = tracer.wrap(
        "bm25.build_index", bm25.build_index,
        lambda args, index: sum(len(p) for p in index.postings.values()))

    def matched(args, _):
        # share of the corpus with a non-zero score: the union of the query
        # terms' postings, since every idf of this variant is positive
        index, _, text = args[:3]
        docs = set()
        for term in set(raw_tokenize(text)):
            docs.update(ordinal for ordinal, _ in index.postings.get(term, ()))
        return len(docs) / index.doc_count

    bm25.search = tracer.wrap("bm25.search", bm25.search, matched)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# per-layer metric -> (span names, what to take from them)
LAYER_METRICS = {
    "cli.evaluate.self_s": (("cli.evaluate",), "self"),
    "cli.bm25_run.self_s": (("cli.bm25_run",), "self"),
    "ingest.load_dataset.s": (("ingest.load_dataset",), "self"),
    "ingest.load_dataset.records": (("ingest.load_dataset",), "count"),
    "core.validate_dataset.s": (("core.validate_dataset",), "self"),
    "ingest.load_run.s": (("ingest.load_run",), "self"),
    "ingest.load_run.lines": (("ingest.load_run",), "count"),
    "core.RankedList.s": (("core.RankedList",), "self"),
    "core.RankedList.entries": (("core.RankedList",), "count"),
    "ingest.write_run.s": (("ingest.write_run",), "self"),
    "ingest.write_run.lines": (("ingest.write_run",), "count"),
    "harness.build_gold_contexts.s": (("harness.build_gold_contexts",), "self"),
    "harness.evaluate_system.s": (("harness.evaluate_system",), "self"),
    "harness.evaluate_system.queries": (("harness.evaluate_system",), "count"),
    "metrics.kernel.s": (tuple(f"metrics.kernel.{fn}" for fn in KERNEL), "self"),
    "metrics.kernel.calls": (tuple(f"metrics.kernel.{fn}" for fn in KERNEL), "calls"),
    "report.render.s": (("report.render",), "self"),
    "report.render.bytes": (("report.render",), "count"),
    "bm25.tokenize.s": (("bm25.tokenize",), "self"),
    "bm25.tokenize.chars": (("bm25.tokenize",), "count"),
    "bm25.build_index.s": (("bm25.build_index",), "self"),
    "bm25.build_index.postings": (("bm25.build_index",), "count"),
    "bm25.search.s": (("bm25.search",), "self"),
    "bm25.search.calls": (("bm25.search",), "calls"),
    "bm25.search.matched_share": (("bm25.search",), "mean_count"),
}


def derive(path) -> dict[str, float]:
    """Per-layer self times and counts from a span file.

    A layer that did not run reads 0 (no time, no work).
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names, spans = doc["names"], doc["spans"]
    children: dict[int, list[tuple[float, float]]] = {}
    for name_ix, start, end, parent, _thread, _count in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, (name_ix, start, end, _parent, _thread, n) in enumerate(spans):
        name = names[name_ix]
        kids = children.get(i)
        covered = 0.0
        if kids:
            covered = _union([(max(s, start), min(e, end)) for s, e in kids if e > start and s < end])
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        count[name] = count.get(name, 0) + n
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for metric, (span_names, what) in LAYER_METRICS.items():
        if what == "self":
            out[metric] = sum(self_s.get(n, 0.0) for n in span_names)
        elif what == "count":
            out[metric] = sum(count.get(n, 0) for n in span_names)
        elif what == "calls":
            out[metric] = sum(calls.get(n, 0) for n in span_names)
        else:
            n_calls = sum(calls.get(n, 0) for n in span_names)
            total = sum(count.get(n, 0) for n in span_names)
            out[metric] = total / n_calls if n_calls else 0.0
    out["trace.spans"] = len(spans)
    return out


UNITS = {name: ("s" if what == "self" else "share" if what == "mean_count" else
                "bytes" if name.endswith(".bytes") else "count")
         for name, (_, what) in LAYER_METRICS.items()}
UNITS["trace.spans"] = "count"
