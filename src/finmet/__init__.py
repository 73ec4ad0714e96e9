"""Finite separated Lawvere metric spaces.

Exact-rational distances with infinity, (co)limits, the
(surjection, embedding) factorization, quotient/submetric duality,
pushouts along embeddings with a shortest-path oracle, corelations and
their effectiveness, and the min-plus idempotence lemma.
"""

__version__ = "0.1.0"
