"""Seeded synthetic datasets and runs for differential testing.

Behaviors encode the three-mode semantics directly:
  * perfect: gold at rank 1 under the instruction, below every other
    positive (and one noise doc) under the reversal, positives at the top
    in original mode with a never-gold positive at rank 1 so every gold
    has original rank >= 2.
  * anti: the opposite - gold pushed down under the instruction, pulled to
    rank 1 under the reversal.
  * random: independently shuffled lists.

All scores are 1/rank, so strict score comparisons mirror strict rank
comparisons.  The PRNG is Python's random.Random (Mersenne Twister) seeded
from the spec, so fixtures are bit-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (CoreQuery, Dataset, Dimension, Document, InstructedQuery,
                   Mode, RankedList, RunSet)

BEHAVIOR_PERFECT = "perfect"
BEHAVIOR_ANTI = "anti"
BEHAVIOR_RANDOM = "random"
BEHAVIORS = (BEHAVIOR_PERFECT, BEHAVIOR_ANTI, BEHAVIOR_RANDOM)


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    dims: tuple[Dimension, ...] = tuple(Dimension)
    cores_per_dim: int = 2
    conditions_per_core: int = 2
    corpus_noise_docs: int = 4
    run_depth: int = 10

    def __post_init__(self):
        if min(self.cores_per_dim, self.conditions_per_core,
               self.corpus_noise_docs, self.run_depth) < 1:
            raise ValueError("all counts must be >= 1")
        # a list holds every positive of its core, and at least one noise document
        if self.run_depth < self.conditions_per_core + 2:
            raise ValueError("run_depth must be >= conditions_per_core + 2")
        if not self.dims:
            raise ValueError("need at least one dimension")
        if len(set(self.dims)) < len(self.dims):
            raise ValueError("a dimension is repeated")


def _words(rng: random.Random, n: int) -> str:
    return " ".join(f"w{rng.randrange(200):03d}" for _ in range(n))


def gen_synthetic_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic dataset passing validation with zero violations.

    Each core query gets conditions_per_core + 1 positives; the extra
    positive (condition c0) is never a gold, which keeps rank 1 of a
    perfect original list occupied by a non-gold document.
    """
    rng = random.Random(spec.seed)
    documents: dict[str, Document] = {}
    core_queries: dict[str, CoreQuery] = {}
    instructed_queries: dict[str, InstructedQuery] = {}

    for dim in spec.dims:
        for i in range(spec.cores_per_dim):
            core_id = f"{dim.value.lower()}-c{i:03d}"
            text = _words(rng, 5)
            positives = []
            for j in range(spec.conditions_per_core + 1):
                doc_id = f"{core_id}-d{j}"
                condition = f"c{j}"
                documents[doc_id] = Document(doc_id=doc_id,
                                             text=_words(rng, 8) + f" {condition}",
                                             dimension=dim, condition=condition)
                positives.append((doc_id, condition))
            core_queries[core_id] = CoreQuery(core_id=core_id, text=text,
                                              dimension=dim, positives=tuple(positives))
            for j in range(1, spec.conditions_per_core + 1):
                query_id = f"{core_id}-q{j}"
                instructed_queries[query_id] = InstructedQuery(
                    query_id=query_id, core_id=core_id, dimension=dim,
                    condition=f"c{j}",
                    instructed_text=f"{text} Please require c{j}.",
                    reversed_text=f"{text} Please avoid c{j}.",
                    gold_doc_id=f"{core_id}-d{j}")
        for i in range(spec.corpus_noise_docs):
            doc_id = f"{dim.value.lower()}-noise-{i:03d}"
            documents[doc_id] = Document(doc_id=doc_id, text=_words(rng, 8),
                                         dimension=dim, condition="noise")

    return Dataset(documents=documents, core_queries=core_queries,
                   instructed_queries=instructed_queries)


def _score_list(query_key: str, mode: Mode, doc_ids: list[str]) -> RankedList:
    return RankedList(query_key, mode,
                      [(d, 1.0 / r) for r, d in enumerate(doc_ids, start=1)])


def gen_synthetic_runs(dataset: Dataset, spec: SynthSpec, behavior: str) -> RunSet:
    if behavior not in BEHAVIORS:
        raise ValueError(f"unknown behavior {behavior!r}")
    rng = random.Random(f"{spec.seed}:{behavior}")
    runset = RunSet(system_id=f"synth-{behavior}-{spec.seed}")

    noise_by_dim: dict[Dimension, list[str]] = {}
    for doc in dataset.documents.values():
        if doc.condition == "noise":
            noise_by_dim.setdefault(doc.dimension, []).append(doc.doc_id)
    for ids in noise_by_dim.values():
        ids.sort()
    variants: dict[str, list[InstructedQuery]] = {}
    for iq in dataset.instructed_queries.values():
        variants.setdefault(iq.core_id, []).append(iq)

    for cq in dataset.core_queries.values():
        positives = list(cq.positive_ids())
        n = len(positives)
        # at least one doc below the gold so a perfect reversal is strict
        noise = noise_by_dim.get(cq.dimension, [])[:max(1, spec.run_depth - n)]
        candidates = positives + noise

        ori = candidates[:]  # unless shuffled: positives at the top, gold j at rank j+1
        if behavior == BEHAVIOR_RANDOM:
            rng.shuffle(ori)
        runset.add(_score_list(cq.core_id, Mode.ORIGINAL, ori))

        for iq in variants.get(cq.core_id, []):
            gold = iq.gold_doc_id
            others = [d for d in positives if d != gold]
            if behavior == BEHAVIOR_PERFECT:
                ins = [gold] + others + noise
                rev = others + noise + [gold]
            elif behavior == BEHAVIOR_ANTI:
                ins = others + [gold] + noise
                rev = [gold] + others + noise
            else:
                ins = candidates[:]
                rng.shuffle(ins)
                rev = candidates[:]
                rng.shuffle(rev)
            runset.add(_score_list(iq.query_id, Mode.INSTRUCTED, ins))
            runset.add(_score_list(iq.query_id, Mode.REVERSED, rev))

    return runset
