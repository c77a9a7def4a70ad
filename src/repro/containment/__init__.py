"""Satisfiability, implication, tautology and query containment.

This package is the NP-hard substrate of mapping validation: condition
spaces decide condition-level questions by finite enumeration, and the
CQC-style checker decides query containment by canonical-instance
evaluation.  :mod:`repro.containment.cache` memoises both behind stable
structural fingerprints so that incremental re-validation of untouched
neighborhoods is a cache hit.
"""

from repro.containment.atoms import FRESH, collect_constants, value_candidates
from repro.containment.cache import (
    ValidationCache,
    ValidationCacheStats,
    client_slice_tokens,
    store_table_tokens,
)
from repro.containment.checker import ContainmentResult, check_containment
from repro.containment.spaces import (
    Assignment,
    ClientConditionSpace,
    ConditionSpace,
    StoreConditionSpace,
)
from repro.fingerprint import fingerprint

__all__ = [
    "Assignment",
    "ClientConditionSpace",
    "ConditionSpace",
    "ContainmentResult",
    "FRESH",
    "StoreConditionSpace",
    "ValidationCache",
    "ValidationCacheStats",
    "check_containment",
    "client_slice_tokens",
    "collect_constants",
    "fingerprint",
    "store_table_tokens",
    "value_candidates",
]
