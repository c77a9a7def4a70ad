"""The persistent cross-process validation cache (containment/persist).

Covers the L2 contract end to end: warm-from-disk within a process,
warm-from-disk across *processes* (a subprocess sharing the same
``REPRO_CACHE_DIR``), corruption and version-skew degrading to a cold
miss instead of a crash, transaction semantics (rejected candidates
never persisted), counterexample pools surviving reopen, and verdict
identity — cold and warm-disk validations must agree exactly on every
workload.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.compiler import compile_mapping, validate_mapping
from repro.containment.cache import ValidationCache
from repro.containment.persist import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_TAG,
    PersistentCacheStore,
    cache_dir_from_env,
)
from repro.edm import Attribute, INT
from repro.incremental import AddEntity, CompiledModel
from repro.session import OrmSession
from repro.workloads.chain import chain_mapping
from repro.workloads.customer import customer_mapping
from repro.workloads.hub_rim import hub_rim_mapping
from repro.workloads.paper_example import mapping_stage4
from repro.workloads.randomgen import random_mapping


def _compiled(mapping):
    return mapping, compile_mapping(mapping, validate=False).views


def _verdict(report):
    """The semantic content of a report — what was checked and passed —
    excluding runtime artifacts (timings, cache counters, worker count).
    """
    return (
        report.coverage_checks,
        report.store_cells,
        report.containment_checks,
        report.roundtrip_states,
    )


class TestWarmFromDisk:
    def test_fresh_cache_over_same_store_hits_l2(self, tmp_path):
        mapping, views = _compiled(hub_rim_mapping(2, 2, "TPH"))
        c1 = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
        cold = validate_mapping(mapping, views, cache=c1)
        assert cold.l2_misses > 0 and cold.l2_hits == 0
        c1.close()

        # a new in-memory cache (a "new process") over the same directory
        c2 = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
        warm = validate_mapping(mapping, views, cache=c2)
        assert warm.l2_hits > 0
        assert warm.l2_misses == 0
        assert _verdict(warm) == _verdict(cold)
        c2.close()

    def test_l2_promotes_into_l1(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        store.put("ns", "k", 41)
        cache = ValidationCache(store=store)
        assert cache.get_or_compute("ns", "k", lambda: 0) == 41
        assert cache.l2_hits == 1
        # second read is an L1 hit, not another disk probe
        assert cache.get_or_compute("ns", "k", lambda: 0) == 41
        assert cache.l2_hits == 1
        assert cache.hits == 2
        cache.close()

    def test_session_cache_dir_plumbs_through(self, tmp_path):
        mapping = hub_rim_mapping(2, 2, "TPH")
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        s1 = OrmSession.create(model, cache_dir=str(tmp_path))
        cold = s1.validate()
        s1.engine.close()
        s2 = OrmSession.create(model, cache_dir=str(tmp_path))
        warm = s2.validate()
        assert warm.l2_hits > 0
        assert _verdict(warm) == _verdict(cold)
        stats = s2.serving_stats()
        assert stats.validation is not None
        assert stats.validation.l2_hits > 0
        s2.engine.close()

    def test_env_var_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert cache_dir_from_env() == str(tmp_path)
        mapping = hub_rim_mapping(1, 2, "TPH")
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        session = OrmSession.create(model)  # picks the env var up itself
        session.validate()
        assert session.validation_cache.store is not None
        session.engine.close()
        assert os.path.exists(os.path.join(str(tmp_path), "validation_cache.sqlite"))


_CHILD_SCRIPT = """
import json, os, sys
from repro.compiler import compile_mapping, validate_mapping
from repro.containment.cache import ValidationCache
from repro.containment.persist import PersistentCacheStore
from repro.workloads.hub_rim import hub_rim_mapping

mapping = hub_rim_mapping(2, 2, "TPH")
views = compile_mapping(mapping, validate=False).views
cache = ValidationCache(store=PersistentCacheStore(os.environ["REPRO_CACHE_DIR"]))
report = validate_mapping(mapping, views, cache=cache)
cache.close()
print(json.dumps({
    "l2_hits": report.l2_hits,
    "l2_misses": report.l2_misses,
    "verdict": [report.coverage_checks, report.store_cells,
                report.containment_checks, report.roundtrip_states],
}))
"""


class TestCrossProcess:
    def test_subprocess_warms_from_shared_directory(self, tmp_path):
        """A different OS process validating the same model against the
        same REPRO_CACHE_DIR serves every check from L2 and reaches a
        byte-identical verdict."""
        mapping, views = _compiled(hub_rim_mapping(2, 2, "TPH"))
        cache = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
        cold = validate_mapping(mapping, views, cache=cache)
        cache.close()

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        child = json.loads(out.stdout)
        assert child["l2_hits"] > 0
        assert child["l2_misses"] == 0
        assert tuple(child["verdict"]) == _verdict(cold)


class TestCorruptionAndSkew:
    def test_corrupted_file_degrades_to_cold_miss(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        store.put("ns", "k", "cached")
        store.close()  # release the handle before corrupting the file
        with open(store.path, "wb") as handle:
            handle.write(b"this is not a sqlite database at all")

        reopened = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=reopened)
        # never crashes; the poisoned entry is simply gone
        assert cache.get_or_compute("ns", "k", lambda: "recomputed") == "recomputed"
        assert cache.l2_hits == 0
        cache.close()

    def test_truncated_file_degrades_to_cold_miss(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        store.put("ns", "k", "cached")
        store.close()
        with open(store.path, "r+b") as handle:
            handle.truncate(100)

        reopened = PersistentCacheStore(str(tmp_path))
        found, _ = reopened.get("ns", "k")
        assert not found
        reopened.close()

    def test_version_tag_mismatch_wipes_the_file(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        store.put("ns", "k", "old-format")
        # simulate a file written by a different repro version
        store._conn.execute("UPDATE meta SET value = 'other-tag' WHERE key = 'tag'")
        store._conn.commit()
        store.close()

        reopened = PersistentCacheStore(str(tmp_path))
        found, _ = reopened.get("ns", "k")
        assert not found  # stale format never read
        assert reopened.stats().entries == 0
        reopened.close()

    def test_v1_file_is_wiped_on_open(self, tmp_path):
        # v1 keys hashed every leaf in full; v2 keys use cached leaf
        # digests, so no v1 key can ever match and the file must go
        store = PersistentCacheStore(str(tmp_path))
        store.put("ns", "k", "v1-keyed")
        v1_tag = store.tag.replace(CACHE_SCHEMA_TAG, "repro-validation-cache-v1")
        assert CACHE_SCHEMA_TAG.endswith("-v2") and v1_tag != store.tag
        store._conn.execute("UPDATE meta SET value = ? WHERE key = 'tag'", (v1_tag,))
        store._conn.commit()
        store.close()

        reopened = PersistentCacheStore(str(tmp_path))
        found, _ = reopened.get("ns", "k")
        assert not found
        assert reopened.stats().entries == 0
        assert reopened._tag_matches()
        reopened.close()

    def test_unwritable_directory_disables_not_crashes(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        store = PersistentCacheStore(str(blocked))
        assert store.errors > 0
        found, _ = store.get("ns", "k")
        assert not found
        store.put("ns", "k", 1)  # no-op, no raise
        store.close()


class TestTransactions:
    def test_rollback_keeps_rejected_entries_off_disk(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=store)
        txn = cache.begin_transaction()
        cache.get_or_compute("ns", "candidate", lambda: "speculative")
        cache.rollback(txn)
        assert store.stats().entries == 0
        # and the L1 entry is gone too
        assert cache.get_or_compute("ns", "candidate", lambda: "fresh") == "fresh"
        cache.close()

    def test_commit_flushes_pending_entries(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=store)
        txn = cache.begin_transaction()
        cache.get_or_compute("ns", "accepted", lambda: "durable")
        assert store.stats().entries == 0  # deferred while speculative
        cache.commit(txn)
        assert store.stats().entries == 1
        found, value = store.get("ns", "accepted")
        assert found and value == "durable"
        cache.close()

    def test_nested_transactions_flush_only_at_outermost_commit(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=store)
        outer = cache.begin_transaction()
        inner = cache.begin_transaction()
        cache.get_or_compute("ns", "deep", lambda: 7)
        cache.commit(inner)
        assert store.stats().entries == 0  # still inside the outer txn
        cache.commit(outer)
        assert store.stats().entries == 1
        cache.close()

    def test_session_evolve_persists_accepted_batch_entries(self, tmp_path):
        mapping = mapping_stage4()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        session = OrmSession.create(model, cache_dir=str(tmp_path))
        before = session.validation_cache.store.stats().entries
        session.evolve(
            AddEntity.tpt(
                session.model, "Sub1", "Person", [Attribute("A1", INT)], "Sub1T"
            )
        )
        after = session.validation_cache.store.stats().entries
        assert after > before  # committed batch flushed to disk
        session.engine.close()


class TestCounterexamples:
    def test_pool_survives_reopen(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=store)
        cache.record_counterexample("ce-key", ("T",), ("x",), ("state",))
        record = (("T",), ("x",), ("state",))
        cache.close()

        cache2 = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
        assert record in list(cache2.counterexamples("ce-key"))
        cache2.close()

    def test_pool_bounded_per_key_on_disk(self, tmp_path):
        store = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=store)
        bound = cache.COUNTEREXAMPLES_PER_KEY
        for i in range(bound + 5):
            cache.record_counterexample("k", ("T",), ("x",), (i,))
        assert store.stats().counterexamples <= bound
        cache.close()

    def test_recorded_inside_rollback_still_persists(self, tmp_path):
        """Counterexamples are genuine evidence even when found while
        validating a rejected candidate — they are never rolled back."""
        store = PersistentCacheStore(str(tmp_path))
        cache = ValidationCache(store=store)
        txn = cache.begin_transaction()
        cache.record_counterexample("evidence", ("T",), ("x",), ("bad",))
        cache.rollback(txn)
        assert store.stats().counterexamples == 1
        cache.close()


# the six differential workloads: cold and warm-disk must agree exactly
WORKLOADS = [
    ("paper-stage4", lambda: mapping_stage4()),
    ("hub-rim-tph", lambda: hub_rim_mapping(2, 2, "TPH")),
    ("hub-rim-tpt", lambda: hub_rim_mapping(2, 2, "TPT")),
    ("chain-8", lambda: chain_mapping(8)),
    ("customer-0.05", lambda: customer_mapping(0.05)),
    ("random-3", lambda: random_mapping(seed=3)),
]


class TestVerdictIdentity:
    @pytest.mark.parametrize(
        "name,build", WORKLOADS, ids=[name for name, _ in WORKLOADS]
    )
    def test_cold_and_warm_disk_verdicts_identical(self, tmp_path, name, build):
        mapping, views = _compiled(build())
        cold = validate_mapping(mapping, views)  # no cache at all

        store_cache = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
        through = validate_mapping(mapping, views, cache=store_cache)
        store_cache.close()

        warm_cache = ValidationCache(store=PersistentCacheStore(str(tmp_path)))
        warm = validate_mapping(mapping, views, cache=warm_cache)
        warm_cache.close()

        assert _verdict(through) == _verdict(cold)
        assert _verdict(warm) == _verdict(cold)
        assert warm.l2_hits > 0


class TestDeltaScope:
    def test_delta_scope_rechecks_less_than_full(self):
        mapping = mapping_stage4()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        session = OrmSession.create(model)
        full = session.validate()
        session.evolve(
            AddEntity.tpt(
                session.model, "Sub1", "Person", [Attribute("A1", INT)], "Sub1T"
            )
        )
        delta_report = session.validate(scope="delta")
        # the neighborhood of one TPT subtype is a strict subset of the
        # evolved model's full check DAG
        full_after = session.validate(scope="full")
        assert delta_report.store_cells <= full_after.store_cells
        assert (
            delta_report.coverage_checks + delta_report.containment_checks
            < full_after.coverage_checks + full_after.containment_checks
        )
        assert full.coverage_checks > 0
        session.engine.close()

    def test_accumulator_resets_after_successful_validate(self):
        mapping = mapping_stage4()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        session = OrmSession.create(model)
        session.evolve(
            AddEntity.tpt(
                session.model, "Sub1", "Person", [Attribute("A1", INT)], "Sub1T"
            )
        )
        assert len(session.engine.unvalidated_delta.ops) > 0
        session.validate(scope="delta")
        assert len(session.engine.unvalidated_delta.ops) == 0
        # an empty composed delta validates nothing at all
        empty = session.validate(scope="delta")
        assert _verdict(empty) == (0, 0, 0, 0)
        session.engine.close()

    @staticmethod
    def _validated_stage4_session():
        mapping = mapping_stage4()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        session = OrmSession.create(model)
        session.validate()
        return session

    @staticmethod
    def _sub2(session):
        return AddEntity.tpt(
            session.model, "Sub2", "Person", [Attribute("A2", INT)], "Sub2T"
        )

    def test_undo_composes_inverse_into_scope(self):
        session = self._validated_stage4_session()
        session.evolve(self._sub2(session))
        session.validate(scope="delta")
        assert not session.engine.unvalidated_delta.ops
        session.undo()
        # the evolve's delta was validated away, so the undo composes its
        # inverse — the touched neighborhood covers the round-tripped region
        assert session.engine.unvalidated_delta.ops
        report = session.validate(scope="delta")
        assert report.coverage_checks > 0
        session.engine.close()

    def test_undo_restores_the_pending_scope(self):
        session = self._validated_stage4_session()
        before = session.engine.epoch.fingerprint
        session.evolve(self._sub2(session))
        assert session.engine.unvalidated_delta.ops
        session.undo()
        # back on the validated model: nothing awaits validation
        assert not session.engine.unvalidated_delta.ops
        assert session.engine.epoch.fingerprint == before
        assert session.model.fingerprint() == before
        session.engine.close()

    def test_nested_undos_restore_each_pending_scope(self):
        session = self._validated_stage4_session()
        session.evolve(self._sub2(session))
        first = session.engine.unvalidated_delta
        session.evolve(
            AddEntity.tpt(
                session.model, "Sub3", "Person", [Attribute("A3", INT)], "Sub3T"
            )
        )
        assert len(session.engine.unvalidated_delta.ops) > len(first.ops)
        session.undo()
        assert session.engine.unvalidated_delta is first
        session.undo()
        assert not session.engine.unvalidated_delta.ops
        session.engine.close()

    def test_unknown_scope_rejected(self):
        mapping = mapping_stage4()
        model = CompiledModel(mapping, compile_mapping(mapping).views)
        session = OrmSession.create(model)
        with pytest.raises(ValueError, match="unknown validation scope"):
            session.validate(scope="partial")
        session.engine.close()
