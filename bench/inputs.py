"""Seeded input generation for the three benchmark workloads.

Every workload is a pure function of its seed: the same seed writes the same
dataset and run files.  The generators write the files themselves (not
through ``infosearch_eval.ingest``) so that a change to the program's writers
cannot change the benchmark's inputs.  ``synth`` is used only to make the
evaluation datasets and the eval-wide systems.

Each builder returns a ``Workload``: the CLI arguments of the timed command,
the queries one command handles, the arguments of the set-up probe, what the
output checks need, and measured properties of the inputs.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from infosearch_eval import synth
from infosearch_eval.core import (CoreQuery, Dataset, Dimension, Document,
                                  InstructedQuery, Mode)
from infosearch_eval.oracle import oracle_metrics

MODE_FILES = {Mode.ORIGINAL: "original.run",
              Mode.INSTRUCTED: "instructed.run",
              Mode.REVERSED: "reversed.run"}

# the 1,602-query shape of acceptance criterion 10: 6 dims x 89 cores x 3
CORES_PER_DIM = 89
CONDITIONS_PER_CORE = 3


@dataclass
class Workload:
    name: str
    command: list[str]          # arguments after ``-m infosearch_eval.cli``
    warmup_command: list[str]   # untimed first command, its output is checked in depth
    out_dir: Path               # where the timed command writes
    warmup_out_dir: Path
    queries: int                # queries one command handles
    setup_args: list[str]       # arguments of probe_setup.py
    expected: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------- writers

def write_dataset(dataset: Dataset, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)

    def dump(name, records):
        with (directory / name).open("w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")

    dump("documents.jsonl",
         ({"doc_id": d.doc_id, "text": d.text, "dimension": d.dimension.value,
           "condition": d.condition} for d in dataset.documents.values()))
    dump("core_queries.jsonl",
         ({"core_id": c.core_id, "text": c.text, "dimension": c.dimension.value,
           "positives": [{"doc_id": d, "condition": cond} for d, cond in c.positives]}
          for c in dataset.core_queries.values()))
    dump("instructed_queries.jsonl",
         ({"query_id": q.query_id, "core_id": q.core_id, "dimension": q.dimension.value,
           "condition": q.condition, "instructed_text": q.instructed_text,
           "reversed_text": q.reversed_text, "gold_doc_id": q.gold_doc_id}
          for q in dataset.instructed_queries.values()))


def write_system(lists: dict[Mode, list[tuple[str, list[tuple[str, float]]]]],
                 directory: Path, tag: str) -> None:
    """Write canonical lists (score non-increasing, ties by ascending doc_id)."""
    directory.mkdir(parents=True, exist_ok=True)
    for mode, fname in MODE_FILES.items():
        with (directory / fname).open("w", encoding="utf-8", newline="\n") as fh:
            for key, entries in lists[mode]:
                fh.writelines(f"{key} Q0 {doc_id} {rank} {score!r} {tag}\n"
                              for rank, (doc_id, score) in enumerate(entries, start=1))


def _oracle_runs(lists) -> SimpleNamespace:
    """The lists as ``oracle_metrics`` reads them: ``lists[(key, mode)].entries``.

    The entries are the canonical order the files were written in, not the
    order ``core.RankedList`` makes, so a fault in the program's
    canonicalisation changes its report and not the reference.
    """
    return SimpleNamespace(lists={(key, mode): SimpleNamespace(entries=tuple(entries))
                                  for mode, items in lists.items() for key, entries in items})


def _canonical(entries: list[tuple[str, float]]) -> list[tuple[str, float]]:
    return sorted(entries, key=lambda e: (-e[1], e[0]))


def _eval_dataset(seed: int, cores_per_dim: int, noise_docs: int) -> Dataset:
    return synth.gen_synthetic_dataset(synth.SynthSpec(
        seed=seed, cores_per_dim=cores_per_dim, conditions_per_core=CONDITIONS_PER_CORE,
        corpus_noise_docs=noise_docs))


def _eval_workload(name: str, root: Path, dataset: Dataset, systems) -> Workload:
    """Write the dataset and every system; keep only the oracle's report per system."""
    dataset_dir, runs_dir = root / "dataset", root / "runs"
    write_dataset(dataset, dataset_dir)
    expected = {"dims": sorted({q.dimension.value for q in dataset.instructed_queries.values()},
                               key=[d.value for d in Dimension].index),
                "systems": {}}
    for system_id, behavior, lists in systems:
        write_system(lists, runs_dir / system_id, tag=system_id)
        expected["systems"][system_id] = {
            "behavior": behavior,
            "oracle": oracle_metrics(dataset, _oracle_runs(lists))}
    out, full = root / "reports", root / "reports-full"
    return Workload(
        name=name,
        command=["evaluate", str(dataset_dir), str(runs_dir), "--out", str(out)],
        warmup_command=["evaluate", str(dataset_dir), str(runs_dir), "--out", str(full),
                        "--format", "structured"],
        out_dir=out, warmup_out_dir=full,
        queries=len(dataset.instructed_queries) * len(systems),
        setup_args=[str(dataset_dir)],
        expected=expected)


# ---------------------------------------------------------------- eval-wide

WIDE_DEPTH = 8


def eval_wide(seed: int, root: Path, cores_per_dim: int = CORES_PER_DIM,
              n_systems: int = 16) -> Workload:
    """Many shallow systems: perfect, anti and random in turn (criterion 10)."""
    dataset = _eval_dataset(seed, cores_per_dim, noise_docs=4)
    systems = []
    for i in range(n_systems):
        behavior = synth.BEHAVIORS[i % 3]
        spec = synth.SynthSpec(seed=seed * 1000 + i, cores_per_dim=cores_per_dim,
                               conditions_per_core=CONDITIONS_PER_CORE,
                               corpus_noise_docs=4, run_depth=WIDE_DEPTH)
        runset = synth.gen_synthetic_runs(dataset, spec, behavior)
        lists = {mode: [] for mode in MODE_FILES}
        for (key, mode), ranked in runset.lists.items():
            lists[mode].append((key, _canonical(ranked.entries)))
        systems.append((f"sys{i:02d}-{behavior}", behavior, lists))
    wl = _eval_workload("eval-wide", root, dataset, systems)
    wl.stats = {"systems": n_systems, "depth": WIDE_DEPTH,
                "instructed_queries": len(dataset.instructed_queries),
                "documents": len(dataset.documents)}
    return wl


# ---------------------------------------------------------------- eval-deep

DEEP_DEPTH = 100
DEEP_NOISE_DOCS = 150


def _fine(rank: int) -> float:
    """1/rank to three decimals: distinct at the top, tied in the tail."""
    return round(1.0 / rank, 3)


def _coarse(rank: int) -> float:
    """Score levels shared by four consecutive ranks, tied from the top."""
    return round(1.0 - ((rank - 1) // 4) * 0.01, 2)


def _cut(order: list[str], depth: int, score_fn) -> list[tuple[str, float]]:
    return _canonical([(doc_id, score_fn(r)) for r, doc_id in enumerate(order[:depth], 1)])


def eval_deep(seed: int, root: Path, cores_per_dim: int = CORES_PER_DIM) -> Workload:
    """A few systems of depth up to 100 with ties and cut lists.

    The shares below (cut depths, gold placement, score levels) are assumed:
    the repository holds no real run files to measure them on.  Scores are
    quantised, so lists carry ties (written in ascending doc_id
    order), and lists are cut at varying depths, so the gold is missing from
    some of them.  ``perfect`` and ``anti`` keep the gold inside every cut of
    their original and instructed lists, so the properties the checks assert
    on them still hold; ``perfect`` puts it at rank 94 in reversed mode, where
    the cut decides whether it is there.
    """
    dataset = _eval_dataset(seed, cores_per_dim, noise_docs=DEEP_NOISE_DOCS)
    rng = random.Random(f"eval-deep:{seed}")
    noise_by_dim: dict[Dimension, list[str]] = {}
    for doc in dataset.documents.values():
        if doc.condition == "noise":
            noise_by_dim.setdefault(doc.dimension, []).append(doc.doc_id)
    variants: dict[str, list[InstructedQuery]] = {}
    for iq in dataset.instructed_queries.values():
        variants.setdefault(iq.core_id, []).append(iq)

    def depth() -> int:
        return DEEP_DEPTH if rng.random() < 0.6 else rng.randint(10, DEEP_DEPTH - 1)

    def noisy_order(pool: list[str], gold: str | None) -> list[str]:
        order = rng.sample(pool, len(pool))
        if gold is not None:  # half the time near the top, else anywhere
            order.remove(gold)
            hi = 10 if rng.random() < 0.5 else len(pool)
            order.insert(rng.randrange(hi), gold)
        return order

    systems = []
    missing_any: dict[str, int] = {}
    tied_lists = total_lists = 0
    for behavior, score_fn in (("perfect", _fine), ("anti", _fine),
                               ("noisy", _fine), ("noisy", _coarse)):
        system_id = f"sys{len(systems):02d}-{behavior}"
        lists = {mode: [] for mode in MODE_FILES}
        for cq in dataset.core_queries.values():
            positives = list(cq.positive_ids())
            noise = rng.sample(noise_by_dim[cq.dimension], DEEP_DEPTH + 40 - len(positives))
            if behavior == "noisy":
                ori = noisy_order(positives + noise, None)
            else:
                ori = positives + noise
            lists[Mode.ORIGINAL].append((cq.core_id, _cut(ori, depth(), score_fn)))
            for iq in variants[cq.core_id]:
                gold = iq.gold_doc_id
                others = [d for d in positives if d != gold]
                if behavior == "perfect":
                    ins, rev = [gold] + others + noise, others + noise[:90] + [gold] + noise[90:]
                elif behavior == "anti":
                    ins, rev = others + [gold] + noise, [gold] + others + noise
                else:
                    ins = noisy_order(positives + noise, gold)
                    rev = noisy_order(positives + noise, gold)
                lists[Mode.INSTRUCTED].append((iq.query_id, _cut(ins, depth(), score_fn)))
                lists[Mode.REVERSED].append((iq.query_id, _cut(rev, depth(), score_fn)))
        for items in lists.values():
            for _, entries in items:
                total_lists += 1
                scores = [s for _, s in entries]
                tied_lists += len(set(scores)) < len(scores)
        ori_ids = {k: {d for d, _ in e} for k, e in lists[Mode.ORIGINAL]}
        ins_ids = {k: {d for d, _ in e} for k, e in lists[Mode.INSTRUCTED]}
        rev_ids = {k: {d for d, _ in e} for k, e in lists[Mode.REVERSED]}
        missing_any[system_id] = sum(
            1 for iq in dataset.instructed_queries.values()
            if not (iq.gold_doc_id in ori_ids[iq.core_id]
                    and iq.gold_doc_id in ins_ids[iq.query_id]
                    and iq.gold_doc_id in rev_ids[iq.query_id]))
        systems.append((system_id, behavior, lists))
    wl = _eval_workload("eval-deep", root, dataset, systems)
    n_queries = len(dataset.instructed_queries) * len(systems)
    wl.stats = {"systems": len(systems), "max_depth": DEEP_DEPTH,
                "instructed_queries": len(dataset.instructed_queries),
                "documents": len(dataset.documents),
                "gold_missing_any_mode_share": sum(missing_any.values()) / n_queries,
                "gold_missing_by_system": {k: v / len(dataset.instructed_queries)
                                           for k, v in missing_any.items()},
                "lists_with_ties_share": tied_lists / total_lists}
    return wl


# ---------------------------------------------------------------- bm25-corpus

BM25_CORES_PER_DIM = 16
BM25_NOISE_DOCS_PER_DIM = 250
BM25_TOP_K = 100
# document lengths in characters, log-uniform; an assumed range, since the
# repository holds no InfoSearch corpus to measure the Length dimension on
MIN_DOC_CHARS, MAX_DOC_CHARS = 60, 4000
_SYLLABLES = ("ka", "to", "ri", "men", "sa", "lo", "ne", "du", "pi", "mar",
              "ve", "sho", "qu", "an", "el", "tor", "bi", "fa", "gu", "ly")
# a band of common CJK unified ideographs
_CJK_FIRST, _CJK_COUNT = 0x4E00, 3000


class _Zipf:
    """Draw items with probability proportional to 1/rank."""

    def __init__(self, items: list[str]):
        self.items = items
        acc, self.cum = 0.0, []
        for r in range(1, len(items) + 1):
            acc += 1.0 / r
            self.cum.append(acc)

    def draw(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.items, cum_weights=self.cum, k=n)


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4))))
    out = sorted(words)
    rng.shuffle(out)
    return out


def _text(rng: random.Random, chars: int, words: _Zipf, topic: list[str],
          cjk: _Zipf | None) -> str:
    """About ``chars`` characters of Zipfian words with topic words mixed in."""
    parts: list[str] = []
    size = 0
    while size < chars:
        if cjk is not None and rng.random() < 0.8:
            piece = "".join(cjk.draw(rng, rng.randint(2, 12)))
        elif topic and rng.random() < 0.08:
            piece = rng.choice(topic)
        else:
            piece = words.draw(rng, 1)[0]
        parts.append(piece)
        size += len(piece) + 1
        if rng.random() < 0.07:
            parts[-1] += rng.choice((".", ",", ";", "?"))
    return " ".join(parts)


def bm25_corpus(seed: int, root: Path, cores_per_dim: int = BM25_CORES_PER_DIM,
                noise_docs_per_dim: int = BM25_NOISE_DOCS_PER_DIM) -> Workload:
    """A generated corpus for ``bm25-run``, shaped by assumption.

    Words follow a Zipf law over a generated vocabulary; lengths are
    log-uniform from MIN_DOC_CHARS to MAX_DOC_CHARS; in the Language
    dimension half of the documents (conditions c1, c3 and half the noise)
    are Chinese-script text, which the tokenizer splits per character.  No
    InfoSearch corpus is in the repository, so these shapes are not measured.
    """
    rng = random.Random(f"bm25-corpus:{seed}")
    vocab = _vocabulary(rng, 6000)
    words = _Zipf(vocab[:5000])
    cjk_chars = [chr(_CJK_FIRST + i) for i in range(_CJK_COUNT)]
    rng.shuffle(cjk_chars)
    cjk = _Zipf(cjk_chars)
    topic_pool = vocab[5000:]  # rare words, so topics stay apart

    def length() -> int:
        return int(math.exp(rng.uniform(math.log(MIN_DOC_CHARS), math.log(MAX_DOC_CHARS))))

    documents: dict[str, Document] = {}
    core_queries: dict[str, CoreQuery] = {}
    instructed: dict[str, InstructedQuery] = {}
    for dim in Dimension:
        language = dim is Dimension.LANGUAGE
        for i in range(cores_per_dim):
            core_id = f"{dim.value.lower()}-c{i:03d}"
            topic = rng.sample(topic_pool, 4)
            cond_words = {f"c{j}": rng.sample(topic_pool, 2)
                          for j in range(CONDITIONS_PER_CORE + 1)}
            positives = []
            for j in range(CONDITIONS_PER_CORE + 1):
                cond = f"c{j}"
                doc_id = f"{core_id}-d{j}"
                use_cjk = language and j % 2 == 1
                text = _text(rng, length(), words, topic + cond_words[cond],
                             cjk if use_cjk else None)
                documents[doc_id] = Document(doc_id, text, dim, cond)
                positives.append((doc_id, cond))
            core_text = " ".join(topic[:2] + words.draw(rng, rng.randint(2, 5)))
            if language:
                core_text += " " + "".join(cjk.draw(rng, 4))
            core_queries[core_id] = CoreQuery(core_id, core_text, dim, tuple(positives))
            for j in range(1, CONDITIONS_PER_CORE + 1):
                cw = " ".join(cond_words[f"c{j}"])
                query_id = f"{core_id}-q{j}"
                instructed[query_id] = InstructedQuery(
                    query_id=query_id, core_id=core_id, dimension=dim, condition=f"c{j}",
                    instructed_text=f"{core_text} Please only return documents about {cw}.",
                    reversed_text=f"{core_text} Please avoid documents about {cw}.",
                    gold_doc_id=f"{core_id}-d{j}")
        for i in range(noise_docs_per_dim):
            doc_id = f"{dim.value.lower()}-noise-{i:03d}"
            topic = rng.sample(topic_pool, 3)
            use_cjk = language and i % 2 == 1
            documents[doc_id] = Document(doc_id, _text(rng, length(), words, topic,
                                                       cjk if use_cjk else None),
                                         dim, "noise")
    dataset = Dataset(documents, core_queries, instructed)
    dataset_dir = root / "dataset"
    write_dataset(dataset, dataset_dir)

    lengths = sorted(len(d.text) for d in documents.values())
    total_chars = sum(lengths)
    cjk_per_doc = [sum(1 for ch in d.text if _CJK_FIRST <= ord(ch) < _CJK_FIRST + _CJK_COUNT)
                   for d in documents.values()]
    queries = len(core_queries) + 2 * len(instructed)
    out = root / "bm25-runs"
    command = ["bm25-run", str(dataset_dir), "--out", str(out)]
    return Workload(
        name="bm25-corpus", command=command, warmup_command=command,
        out_dir=out, warmup_out_dir=out,
        queries=queries,
        setup_args=[str(dataset_dir), "--bm25"],
        expected={"dataset": dataset, "top_k": BM25_TOP_K},
        stats={"documents": len(documents), "queries": queries,
               "corpus_chars": total_chars,
               "doc_chars_quartiles": [round(q) for q in statistics.quantiles(lengths, n=4)],
               "doc_chars_min_max": [lengths[0], lengths[-1]],
               "cjk_doc_share": sum(1 for n in cjk_per_doc if n) / len(documents),
               "cjk_char_share": sum(cjk_per_doc) / total_chars})


BUILDERS = {"eval-wide": eval_wide, "eval-deep": eval_deep, "bm25-corpus": bm25_corpus}
