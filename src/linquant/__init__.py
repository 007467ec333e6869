"""Inference with conditional probabilities given as intervals or quantifiers."""

from .bounds import (
    InconsistentBounds,
    SyllogismInput,
    TypicalityInput,
    bayes_cycle,
    syllogism,
    syllogism_lower,
    syllogism_upper,
    typicality_bounds,
)
from .qualalg import (
    Partition,
    PartitionError,
    ProbInterval,
    QRange,
    certainty_leq,
    hull,
    meet,
    scale5,
    scale7,
    scale9,
)
from .network import KnowledgeBase, ingest, parse_kb, query, saturate
from .tables import eval_extended, gen_table, q6_of, robustness_sweep

__all__ = [
    "InconsistentBounds",
    "KnowledgeBase",
    "Partition",
    "PartitionError",
    "ProbInterval",
    "QRange",
    "SyllogismInput",
    "TypicalityInput",
    "bayes_cycle",
    "certainty_leq",
    "eval_extended",
    "gen_table",
    "hull",
    "ingest",
    "meet",
    "parse_kb",
    "q6_of",
    "query",
    "robustness_sweep",
    "saturate",
    "scale5",
    "scale7",
    "scale9",
    "syllogism",
    "syllogism_lower",
    "syllogism_upper",
    "typicality_bounds",
]

__version__ = "0.1.0"
