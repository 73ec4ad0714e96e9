"""Finite separated Lawvere metric spaces.

Exact-rational distances with infinity, (co)limits, the
(surjection, embedding) factorization, quotient/submetric duality,
pushouts along embeddings with a shortest-path oracle, corelations and
their effectiveness, and the min-plus idempotence lemma.
"""

from .extarith import INF, ZERO, ExtValue, fin, parse
from .maps import (FinMap, check_nonexpansive, compose, factorize, identity,
                   is_embedding, is_injective, is_isomorphism, is_nonexpansive,
                   is_surjective, subspace)
from .minplus import IntMatrix, minplus_closure, minplus_matmul
from .spaces import (FinSpace, Violation, is_separated, metric_violations,
                     sep_reflection, validate_metric)

__all__ = [
    "ExtValue", "INF", "ZERO", "fin", "parse",
    "IntMatrix", "minplus_closure", "minplus_matmul",
    "FinSpace", "Violation", "validate_metric", "metric_violations",
    "is_separated", "sep_reflection",
    "FinMap", "identity", "compose", "check_nonexpansive", "is_nonexpansive",
    "is_injective", "is_embedding", "is_surjective", "is_isomorphism",
    "subspace", "factorize",
]

__version__ = "0.1.0"
