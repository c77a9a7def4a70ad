"""Client-level queries and their translation by view unfolding (§1.1)."""

from repro.query.dml import (
    StoreDelta,
    TableDelta,
    apply_delta,
    diff_store_states,
    translate_update,
)
from repro.query.language import EntityQuery, execute_on_client
from repro.query.plancache import (
    CachedPlan,
    Param,
    PlanCache,
    ServingStats,
    parameterize,
)
from repro.query.unfold import (
    UnfoldedBranch,
    UnfoldedQuery,
    execute_on_store,
    unfold,
)

__all__ = [
    "CachedPlan",
    "EntityQuery",
    "Param",
    "PlanCache",
    "ServingStats",
    "parameterize",
    "StoreDelta",
    "TableDelta",
    "apply_delta",
    "diff_store_states",
    "translate_update",
    "UnfoldedBranch",
    "UnfoldedQuery",
    "execute_on_client",
    "execute_on_store",
    "unfold",
]
