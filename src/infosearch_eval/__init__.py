"""Instruction-following retrieval evaluation toolkit.

Implements the three-mode evaluation protocol (original / instructed /
reversed) with nDCG@k, MRR@1, Robustness@k, p-MRR, SICR and WISE
(actual/ideal/gap), a BM25 reference retriever, and a synthetic-data
brute-force oracle for self-verification.
"""

from .core import (CoreQuery, Dataset, Dimension, Document, InstructedQuery,
                   Mode, RankedList, RunSet, validate_dataset)
from .metrics import GoldContext, MetricConfig
from .harness import DimensionSummary, EvalRecord, evaluate_system

__all__ = [
    "CoreQuery", "Dataset", "Dimension", "DimensionSummary", "Document",
    "EvalRecord", "GoldContext", "InstructedQuery", "MetricConfig", "Mode",
    "RankedList", "RunSet", "evaluate_system", "validate_dataset",
]

__version__ = "0.1.0"
