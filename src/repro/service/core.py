"""The multi-tenant session service.

One :class:`SessionService` owns one :class:`~repro.session.OrmSession`
per *tenant* — a logical database with its own compiled model, store
backend and epoch chain.  Tenants are fully isolated: each has its own
schema, data, plan cache and journal, and evolving one tenant never
touches another's epochs.

The service is the thread-safe core under the HTTP facade
(:mod:`repro.service.http`), but it is equally usable in-process — the
tests drive it directly.  Its verb methods speak the JSON wire format of
:mod:`repro.service.wire` on both sides, so a facade only moves bytes.

Concurrency model: the tenant registry has its own lock (create / drop /
lookup are rare and cheap); everything per-tenant rides on the epoch
engine's reader/writer coordination — ``query`` calls are lock-free on
snapshot backends and on result-tier hits, a live backend's reads hold
a read lease that no epoch's publication overlaps, and writers
serialize inside the engine.  SQLite tenants get a reader connection pool
(``pool_size``) because SQLite connections are thread-affine: each
pooled connection is leased to exactly one request at a time and its
statement cache never crosses threads.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Dict, List, Optional

from repro.compiler import compile_mapping
from repro.errors import MappingError, SchemaError
from repro.incremental.model import CompiledModel
from repro.msl import client_schema_from_json, load_mapping, load_model
from repro.service import wire
from repro.session import OrmSession


class UnknownTenant(SchemaError):
    """The request named a tenant the service has never seen."""


class SessionService:
    """A registry of per-tenant ORM sessions plus the verb surface."""

    def __init__(
        self,
        default_backend: Optional[str] = None,
        db_dir: Optional[str] = None,
        pool_size: int = 4,
        cache_dir: Optional[str] = None,
        result_cache_budget: Optional[int] = None,
    ) -> None:
        self.default_backend = default_backend
        self.db_dir = db_dir
        self.pool_size = pool_size
        #: shared persistent validation cache for every tenant session
        #: (None defers to REPRO_CACHE_DIR inside the session)
        self.cache_dir = cache_dir
        #: per-tenant materialized result tier budget in cells
        #: (None = session default, 0 = disabled)
        self.result_cache_budget = result_cache_budget
        self._tenants: Dict[str, OrmSession] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def session(self, tenant: str) -> OrmSession:
        with self._lock:
            try:
                return self._tenants[tenant]
            except KeyError:
                raise UnknownTenant(f"unknown tenant {tenant!r}") from None

    def create_tenant(
        self,
        tenant: str,
        model_document: Dict[str, Any],
        backend: Optional[str] = None,
        pool_size: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Register *tenant* with a model document (compiled, or a
        mapping document which is compiled on the spot).  Re-PUTting an
        existing tenant replaces its session wholesale."""
        model = self._load_model(model_document)
        backend_name = backend or self.default_backend
        db_path = None
        if self.db_dir and (backend_name or "").lower() == "sqlite":
            if not re.fullmatch(r"[\w.-]+", tenant) or ".." in tenant:
                raise SchemaError(
                    f"tenant name {tenant!r} is not usable as a file name"
                )
            os.makedirs(self.db_dir, exist_ok=True)
            db_path = os.path.join(self.db_dir, f"{tenant}.db")
        session = OrmSession.create(
            model,
            backend=backend_name,
            db_path=db_path,
            pool_size=self.pool_size if pool_size is None else pool_size,
            cache_dir=self.cache_dir,
            result_cache_budget=self.result_cache_budget,
        )
        with self._lock:
            previous = self._tenants.get(tenant)
            self._tenants[tenant] = session
        if previous is not None:
            previous.engine.close()
        epoch = session.epoch
        return {
            "tenant": tenant,
            "backend": session.backend.name,
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def drop_tenant(self, tenant: str) -> Dict[str, Any]:
        with self._lock:
            try:
                session = self._tenants.pop(tenant)
            except KeyError:
                raise UnknownTenant(f"unknown tenant {tenant!r}") from None
        session.engine.close()
        return {"tenant": tenant, "dropped": True}

    @staticmethod
    def _load_model(document: Dict[str, Any]) -> CompiledModel:
        if not isinstance(document, dict):
            raise SchemaError("model document must be a JSON object")
        try:
            return load_model(document)
        except MappingError:
            if "views" in document:
                raise
        # a mapping-only document: compile it here (validated)
        mapping = load_mapping(document)
        result = compile_mapping(mapping)
        return CompiledModel(mapping, result.views)

    # ------------------------------------------------------------------
    # Verbs (wire JSON in, wire JSON out)
    # ------------------------------------------------------------------
    def query(self, tenant: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one entity query; the response names the epoch it is
        consistent with (the torn-read assertion token)."""
        session = self.session(tenant)
        query = wire.query_from_json(payload)
        rows, epoch = session.engine.query_with_epoch(query)
        return {
            "rows": [wire.encode_result(r) for r in rows],
            "count": len(rows),
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def load(self, tenant: str) -> Dict[str, Any]:
        """The whole object view of a tenant's database."""
        session = self.session(tenant)
        state = session.load()
        epoch = session.epoch
        return {
            "state": wire.client_state_to_json(state),
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def save(self, tenant: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """SaveChanges: the payload's ``state`` replaces the object view.

        With ``{"merge": true}`` the payload is applied on top of the
        current view instead (add-only convenience for load generators).
        """
        session = self.session(tenant)
        engine = session.engine
        state_payload = payload.get("state")
        if state_payload is None:
            raise SchemaError("save payload must carry a 'state' object")
        if payload.get("merge"):
            state = engine.load()
            for set_name, entities in (
                state_payload.get("entities") or {}
            ).items():
                for entity in entities:
                    state.add_entity(set_name, wire.entity_from_json(entity))
            for assoc_name, pairs in (
                state_payload.get("associations") or {}
            ).items():
                for pair in pairs:
                    state.add_association(
                        assoc_name, tuple(pair[0]), tuple(pair[1])
                    )
        else:
            state = wire.client_state_from_json(
                engine.epoch.model.client_schema, state_payload
            )
        delta = engine.save(state)
        epoch = engine.epoch
        return {
            "applied": delta.statement_count(),
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def save_delta(
        self, tenant: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Incremental SaveChanges: the payload's ``ops`` replay onto the
        tenant's cached object view and push through compiled update-view
        delta rules — cost proportional to the script, not the database.
        The response reports the store statements actually emitted."""
        session = self.session(tenant)
        script = wire.delta_script_from_json(payload)
        delta = session.save_delta(script)
        epoch = session.epoch
        return {
            "ops": len(script),
            "applied": delta.statement_count(),
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def evolve(self, tenant: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Evolve a tenant online: diff its model against the payload's
        ``target`` client schema and apply the implied SMOs as one batch
        while queries keep flowing."""
        session = self.session(tenant)
        engine = session.engine
        target_document = payload.get("target")
        if target_document is None:
            raise SchemaError("evolve payload must carry a 'target' schema")
        from repro.modef import smos_from_diff

        target = client_schema_from_json(
            target_document.get("clientSchema", target_document)
        )
        smos = smos_from_diff(
            engine.epoch.model,
            target,
            style_overrides=wire.style_overrides(payload),
        )
        if not smos:
            epoch = engine.epoch
            return {
                "applied": [],
                "epoch": epoch.epoch_id,
                "fingerprint": epoch.fingerprint,
            }
        engine.evolve_many(smos, label=payload.get("label"))
        entry = engine.journal[-1]
        epoch = engine.epoch
        return {
            "applied": [smo.describe() for smo in entry.smos],
            "delta_ops": len(entry.delta),
            "scheduled_checks": entry.scheduled_checks,
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def undo(self, tenant: str) -> Dict[str, Any]:
        session = self.session(tenant)
        entry = session.engine.undo()
        epoch = session.engine.epoch
        return {
            "undone": entry.label,
            "epoch": epoch.epoch_id,
            "fingerprint": epoch.fingerprint,
        }

    def stats(self, tenant: str) -> Dict[str, Any]:
        session = self.session(tenant)
        serving = wire.stats_to_json(session.serving_stats())
        serving["journal"] = [str(entry) for entry in session.journal]
        return serving

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every tenant and release its backend (idempotent)."""
        with self._lock:
            sessions = list(self._tenants.values())
            self._tenants.clear()
        for session in sessions:
            session.engine.close()
