"""Cached leaf digests: a fingerprint walks only the leaves that changed.

The model's top-level leaves (entity types and sets, association sets,
tables, fragments, query/association/update views) carry a cached
digest (:func:`repro.fingerprint.digest_leaf`).  These tests pin what
the memo must keep:

* a cached fingerprint equals a memo-free reference digest after every
  SMO kind of the standard suite, a batch and every undo, on both
  backends, and an evolve-and-undo cycle digests only rebuilt leaves;
* a leaf holding a list, dict or set is never served from the memo;
* the memo keeps no released leaf alive and never serves a digest to
  an object other than the one it was computed for;
* digests agree across ``PYTHONHASHSEED`` values and racing threads.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional

import pytest

import repro
from repro.bench.fig10 import build_model, suite_for
from repro.errors import ReproError
from repro.fingerprint import (
    _LEAF_CLASSES,
    _DigestRef,
    _digests,
    digest_leaf,
    digest_stats,
    fingerprint,
)
from repro.service import wire
from repro.session import OrmSession
from repro.stategen import random_client_state

SCALE = 0.15
SEED = 7
THREADS = 8


# ---------------------------------------------------------------------------
# A memo-free reference: every leaf digest computed from scratch
# ---------------------------------------------------------------------------

def reference_token(obj: object) -> bytes:
    if type(obj) in _LEAF_CLASSES:
        body = _reference_dataclass(obj)
        return b"#" + hashlib.blake2b(body, digest_size=16).digest()
    if obj is None:
        return b"null"
    if isinstance(obj, bool):
        return b"b1" if obj else b"b0"
    if isinstance(obj, (int, float)):
        return (b"i" if isinstance(obj, int) else b"f") + repr(obj).encode("ascii")
    if isinstance(obj, str):
        encoded = obj.encode("utf-8")
        return b"s%d:" % len(encoded) + encoded
    if isinstance(obj, Enum):
        return b"e" + type(obj).__name__.encode("utf-8") + b":" + reference_token(obj.value)
    if is_dataclass(obj):
        return _reference_dataclass(obj)
    if isinstance(obj, (tuple, list)):
        return b"(t" + b";".join(reference_token(item) for item in obj) + b")"
    if isinstance(obj, (set, frozenset)):
        return b"(S" + b";".join(sorted(reference_token(item) for item in obj)) + b")"
    if isinstance(obj, dict):
        items = sorted((reference_token(k), reference_token(v)) for k, v in obj.items())
        return b"(m" + b";".join(k + b"=" + v for k, v in items) + b")"
    raise TypeError(type(obj).__name__)


def _reference_dataclass(obj: object) -> bytes:
    parts = [b"d" + type(obj).__qualname__.encode("utf-8")]
    parts.extend(reference_token(getattr(obj, f.name)) for f in fields(obj))
    return b"(" + b";".join(parts) + b")"


def reference_fingerprint(*objects: object) -> str:
    digest = hashlib.sha256()
    for obj in objects:
        digest.update(reference_token(obj))
        digest.update(b"|")
    return digest.hexdigest()


def reference_model_fingerprint(model) -> str:
    """What :meth:`CompiledModel.fingerprint` hashes, without the memo."""
    schema, store, views = model.client_schema, model.store_schema, model.views
    return reference_fingerprint(
        tuple(sorted(schema.entity_types, key=lambda t: t.name)),
        tuple(sorted(schema.entity_sets, key=lambda s: s.name)),
        tuple(sorted(schema.associations, key=lambda a: a.name)),
        tuple(sorted(store.tables, key=lambda t: t.name)),
        tuple(model.mapping.fragments),
        tuple(sorted(views.query_views.items())),
        tuple(sorted(views.association_views.items())),
        tuple(sorted(views.update_views.items())),
    )


def model_leaves(model) -> List[object]:
    schema, views = model.client_schema, model.views
    return [
        *schema.entity_types,
        *schema.entity_sets,
        *schema.associations,
        *model.store_schema.tables,
        *model.mapping.fragments,
        *views.query_views.values(),
        *views.association_views.values(),
        *views.update_views.values(),
    ]


def _session(backend: str, entities_per_set: int = 3) -> OrmSession:
    model = build_model(SCALE, SEED)
    session = OrmSession.create(model, backend=backend, pool_size=0)
    data = random_client_state(
        model.client_schema, seed=SEED, entities_per_set=entities_per_set
    )
    session.save(data)
    return session


def _assert_fresh(session: OrmSession) -> str:
    cached = session.model.fingerprint()
    assert cached == reference_model_fingerprint(session.model)
    assert session.epoch.fingerprint == cached
    return cached


# ---------------------------------------------------------------------------
# cached == from scratch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestCachedEqualsReference:
    def test_every_smo_kind_and_its_undo(self, backend):
        session = _session(backend)
        base = _assert_fresh(session)
        committed = 0
        for kind, factory in suite_for(SCALE, SEED):
            try:
                session.evolve(factory(session.model))
            except ReproError:  # rejected on this model: nothing published
                assert _assert_fresh(session) == base, kind
                continue
            committed += 1
            assert _assert_fresh(session) != base, kind
            session.undo()
            assert _assert_fresh(session) == base, kind
        assert committed >= 6
        session.close()

    def test_batch_and_its_undo(self, backend):
        session = _session(backend)
        base = _assert_fresh(session)
        suite = dict(suite_for(SCALE, SEED))
        smos = [suite[kind](session.model) for kind in ("AE-TPT", "AA-FK", "AEP-1p-TPT")]
        session.evolve_many(smos)
        assert _assert_fresh(session) != base
        session.undo()
        assert _assert_fresh(session) == base
        session.close()


class TestRebuiltLeavesOnly:
    def test_evolve_and_undo_on_a_warm_model_digest_only_rebuilt_leaves(self):
        session = _session("memory")
        session.model.fingerprint()  # warm: every base leaf is digested
        base = session.model
        base_ids = {id(leaf) for leaf in model_leaves(base)}
        suite = dict(suite_for(SCALE, SEED))
        for kind in ("AE-TPT", "AA-JT", "AEP-2p-TPT"):
            before = digest_stats()
            session.evolve(suite[kind](session.model))
            rebuilt = [
                leaf for leaf in model_leaves(session.model) if id(leaf) not in base_ids
            ]
            after_evolve = digest_stats()
            session.undo()
            after_undo = digest_stats()
            assert rebuilt, kind
            assert after_evolve.computed - before.computed == len(rebuilt), kind
            assert after_evolve.reused > before.reused
            # undo restores the very leaves the base model held
            assert after_undo.computed == after_evolve.computed, kind
            assert {id(leaf) for leaf in model_leaves(session.model)} == base_ids
        session.close()

    def test_serving_stats_report_the_digests(self):
        session = _session("memory")
        session.model.fingerprint()
        stats = session.serving_stats()
        assert stats.digests.live >= len(model_leaves(session.model))
        assert "leaf digests" in str(stats)
        assert set(wire.stats_to_json(stats)["digests"]) == {"computed", "reused", "live"}
        session.close()


# ---------------------------------------------------------------------------
# mutable containers are never memoized
# ---------------------------------------------------------------------------

@digest_leaf
@dataclass(frozen=True)
class _Holder:
    name: str
    items: object


@digest_leaf
@dataclass(frozen=True)
class _Outer:
    inner: _Holder


class TestMutableLeaves:
    @pytest.mark.parametrize(
        "empty, grow",
        [
            (list, lambda items: items.append(2)),
            (dict, lambda items: items.update({"k": 2})),
            (set, lambda items: items.add(2)),
        ],
        ids=["list", "dict", "set"],
    )
    def test_a_leaf_holding_a_mutable_container_is_rewalked(self, empty, grow):
        holder = _Holder("h", empty())
        outer = _Outer(holder)
        live = digest_stats().live
        first, first_outer = fingerprint(holder), fingerprint(outer)
        assert digest_stats().live == live  # neither leaf was memoized
        grow(holder.items)
        assert fingerprint(holder) != first
        assert fingerprint(outer) != first_outer
        assert fingerprint(holder) == reference_fingerprint(holder)
        assert fingerprint(outer) == reference_fingerprint(outer)

    def test_a_leaf_of_immutable_values_is_memoized(self):
        holder = _Holder("h", (1, frozenset({2})))
        live = digest_stats().live
        assert fingerprint(holder) == reference_fingerprint(holder)
        assert digest_stats().live == live + 1
        assert _digests[id(holder)]() is holder

    def test_only_weak_referenceable_frozen_dataclasses_can_be_leaves(self):
        @dataclass
        class Mutable:
            name: str

        @dataclass(frozen=True, slots=True)
        class Slotted:
            name: str

        for cls in (Mutable, Slotted, tuple):
            with pytest.raises(TypeError):
                digest_leaf(cls)


# ---------------------------------------------------------------------------
# lifetime and identity
# ---------------------------------------------------------------------------

class TestLifetime:
    def test_a_leaf_only_an_undone_evolve_created_is_collected(self):
        model = build_model(SCALE, SEED)
        session = OrmSession.create(model, backend="memory", pool_size=0)
        session.model.fingerprint()
        base_ids = {id(leaf) for leaf in model_leaves(model)}
        session.evolve(dict(suite_for(SCALE, SEED))["AE-TPT"](session.model))
        created = [
            weakref.ref(leaf)
            for leaf in model_leaves(session.model)
            if id(leaf) not in base_ids
        ]
        assert created
        live = digest_stats().live
        session.undo()
        gc.collect()
        # the live session keeps none of them: not the journal, the
        # pending validation delta nor the validation cache
        assert all(ref() is None for ref in created)
        assert digest_stats().live <= live - len(created)
        session.close()
        del session
        gc.collect()
        # the base model is still alive, and so are its digests
        assert all(_digests[id(leaf)]() is leaf for leaf in model_leaves(model))

    def test_evolve_and_undo_cycles_keep_no_leaf_alive(self):
        """Neither the pending validation delta nor the validation cache
        holds an undone evolve's leaves: live digests and the pending
        delta stay flat however many cycles run."""
        session = _session("memory")
        session.validate()
        suite = dict(suite_for(SCALE, SEED))

        def cycles(kind: str, count: int) -> int:
            for _ in range(count):
                session.evolve(suite[kind](session.model))
                session.undo()
            gc.collect()
            return digest_stats().live

        base = cycles("AE-TPT", 0)
        # AA-FK's leaves leaked through the pending delta, AE-TPT's also
        # through the cached validation points' client schema
        for kind in ("AA-FK", "AE-TPT"):
            assert cycles(kind, 1) <= base, kind
            assert cycles(kind, 6) <= base, kind
            assert not session.unvalidated_delta.ops
        session.close()

    def test_a_stale_entry_is_never_served_to_another_object(self):
        # a race can leave an entry whose referent is not the object
        # now living at that identity; the hit check must catch it
        first = _Holder("first", ())
        second = _Holder("second", ())
        expected = reference_fingerprint(second)
        _digests[id(second)] = _DigestRef(first, reference_token(first))
        assert fingerprint(second) == expected
        assert _digests[id(second)]() is second


# ---------------------------------------------------------------------------
# process independence and threads
# ---------------------------------------------------------------------------

_CHILD = (
    "from repro.bench.fig10 import build_model; "
    f"print(build_model({SCALE}, {SEED}).fingerprint())"
)


def test_another_hash_seed_computes_the_same_model_fingerprint():
    src = str(Path(repro.__file__).resolve().parents[1])
    expected = build_model(SCALE, SEED).fingerprint()
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == expected


def test_threads_fingerprinting_one_fresh_model_agree():
    model = build_model(SCALE, SEED)
    leaves = len(model_leaves(model))
    before = digest_stats()
    start = threading.Barrier(THREADS)
    results: List[Optional[str]] = []
    errors: List[BaseException] = []

    def worker() -> None:
        try:
            start.wait(timeout=10)
            results.append(model.fingerprint())
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(results) == THREADS
    assert set(results) == {reference_model_fingerprint(model)}
    assert all(_digests[id(leaf)]() is leaf for leaf in model_leaves(model))
    # racing threads may each compute a leaf, but every visit is counted
    # once: a lost counter update would break the sum
    after = digest_stats()
    computed = after.computed - before.computed
    reused = after.reused - before.reused
    assert computed >= leaves
    assert computed + reused == THREADS * leaves
