"""Runtime checking of key and foreign-key constraints on store states.

The compilers check constraint *preservation* symbolically (via query
containment); this module checks constraints on concrete states.  The two
must agree: if a mapping validates, then every store state produced by its
update views from a legal client state satisfies all constraints.  Property
tests enforce that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.relational.instances import Row, StoreState, row_values


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint, with a human-readable description."""

    table: str
    kind: str  # "primary-key" | "foreign-key" | "not-null"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.table}: {self.detail}"


def check_primary_keys(state: StoreState) -> List[ConstraintViolation]:
    violations: List[ConstraintViolation] = []
    for table in state.populated_tables():
        seen = {}
        for row in state.rows(table.name):
            key = row_values(row, table.primary_key)
            if any(v is None for v in key):
                violations.append(
                    ConstraintViolation(table.name, "not-null", f"null in key {key!r}")
                )
                continue
            if key in seen and seen[key] != row:
                violations.append(
                    ConstraintViolation(
                        table.name, "primary-key", f"duplicate key {key!r}"
                    )
                )
            seen[key] = row
    return violations


def check_foreign_keys(state: StoreState) -> List[ConstraintViolation]:
    violations: List[ConstraintViolation] = []
    for table in state.populated_tables():
        for foreign_key in table.foreign_keys:
            target_keys = {
                row_values(r, foreign_key.ref_columns)
                for r in state.rows(foreign_key.ref_table)
            }
            for row in state.rows(table.name):
                value = row_values(row, foreign_key.columns)
                if any(v is None for v in value):
                    continue  # null foreign keys are vacuously satisfied
                if value not in target_keys:
                    violations.append(
                        ConstraintViolation(
                            table.name,
                            "foreign-key",
                            f"{foreign_key} dangles for value {value!r}",
                        )
                    )
    return violations


def check_all(state: StoreState) -> List[ConstraintViolation]:
    """All primary-key and foreign-key violations of *state*."""
    return check_primary_keys(state) + check_foreign_keys(state)


def check_delta(
    base: StoreState, candidate: StoreState, delta
) -> List[ConstraintViolation]:
    """Violations of *candidate* (= *base* + *delta*), checking only what
    the delta touches.

    Exact — same violations as ``check_all(candidate)``, up to order —
    whenever *base* itself is consistent, which every backend write path
    guarantees (a violating delta is rejected, so the stored state is
    always consistent).  Under that invariant:

    * a **primary-key** violation must involve a new row (old rows were
      mutually consistent), so only new rows probe the key index;
    * an **outgoing foreign-key** violation can only dangle from a new
      row, so only new rows probe the referenced-key index;
    * an **incoming foreign-key** violation can only arise when a
      referenced key is removed, so only keys that actually left the
      store probe the referrers' foreign-key index (new rows are
      skipped — the outgoing pass already covered them).

    All probes go through :meth:`StoreState.key_index`, which successor
    states inherit adjusted in O(|delta|), and each is one lookup per
    new row or removed key — so a *warm* check costs O(|delta|); only
    the first check after a cold load pays one O(rows) index build per
    (table, key) pair.  Key indexes hold no NULL-keyed entry, which is
    exact here: a NULL key is never a violation and never referenced.
    """
    schema = candidate.schema
    new_rows: Dict[str, List[Row]] = {}
    removed_rows: Dict[str, List[Row]] = {}
    for table_name, table_delta in delta.tables.items():
        fresh = list(table_delta.inserts) + [new for _, new in table_delta.updates]
        if fresh:
            new_rows[table_name] = fresh
        gone = list(table_delta.deletes) + [old for _, old in table_delta.updates]
        if gone:
            removed_rows[table_name] = gone

    violations: List[ConstraintViolation] = []

    # primary keys: each new row probes the key index for a *different*
    # row sharing its key (old-vs-old duplicates are impossible when the
    # base is consistent, and old rows cannot have null keys)
    for table_name, rows in new_rows.items():
        table = schema.table(table_name)
        index = candidate.key_index(table_name, table.primary_key)
        for row in rows:
            key = row_values(row, table.primary_key)
            if any(v is None for v in key):
                violations.append(
                    ConstraintViolation(table.name, "not-null", f"null in key {key!r}")
                )
                continue
            for other in index.get(key, ()):
                if other != row:
                    violations.append(
                        ConstraintViolation(
                            table.name, "primary-key", f"duplicate key {key!r}"
                        )
                    )
                    break

    # outgoing foreign keys of new rows
    new_row_sets = {name: set(rows) for name, rows in new_rows.items()}
    for table_name, rows in new_rows.items():
        table = schema.table(table_name)
        for foreign_key in table.foreign_keys:
            targets = candidate.key_index(
                foreign_key.ref_table, foreign_key.ref_columns
            )
            for row in rows:
                value = row_values(row, foreign_key.columns)
                if any(v is None for v in value):
                    continue  # null foreign keys are vacuously satisfied
                if value not in targets:
                    violations.append(
                        ConstraintViolation(
                            table_name,
                            "foreign-key",
                            f"{foreign_key} dangles for value {value!r}",
                        )
                    )

    # incoming foreign keys: keys that left the store may strand old rows
    for table in candidate.populated_tables():
        fresh_set = new_row_sets.get(table.name, set())
        for foreign_key in table.foreign_keys:
            removed = removed_rows.get(foreign_key.ref_table)
            if not removed:
                continue
            still_present = candidate.key_index(
                foreign_key.ref_table, foreign_key.ref_columns
            )
            # one probe per removed key: NULL keys reference nothing, and
            # a key another row still holds strands no referrer
            gone_keys = [
                key
                for key in dict.fromkeys(
                    row_values(r, foreign_key.ref_columns) for r in removed
                )
                if None not in key and key not in still_present
            ]
            if not gone_keys:
                continue
            referrers = candidate.key_index(table.name, foreign_key.columns)
            for value in gone_keys:
                for row in referrers.get(value, ()):
                    if row in fresh_set:
                        continue  # the outgoing pass already checked it
                    violations.append(
                        ConstraintViolation(
                            table.name,
                            "foreign-key",
                            f"{foreign_key} dangles for value {value!r}",
                        )
                    )
    return violations


def is_consistent(state: StoreState) -> bool:
    return not check_all(state)
