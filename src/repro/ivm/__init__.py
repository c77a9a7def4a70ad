"""Incremental view maintenance for the write path.

The update views define how a client state materializes as store rows;
this package pushes *deltas* of the client state through those views —
the shared delta rules of :mod:`repro.algebra.delta` — so an
incremental save touches O(|delta|) rows instead of re-materializing the
whole state.  See ``docs/architecture.md`` (incremental write path).
"""

from repro.ivm.clientdelta import (
    AssociationOp,
    ClientDelta,
    DeltaScript,
    EntityOp,
)
from repro.ivm.writeplan import (
    IncrementalWriteState,
    Writeplan,
    WriteplanCache,
    push_client_delta,
    seed_counts,
)

__all__ = [
    "AssociationOp",
    "ClientDelta",
    "DeltaScript",
    "EntityOp",
    "IncrementalWriteState",
    "Writeplan",
    "WriteplanCache",
    "push_client_delta",
    "seed_counts",
]
