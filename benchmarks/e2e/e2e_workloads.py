"""The four end-to-end workloads, their input generators and oracles.

Every workload is a closed loop: one client thread issues the next
operation only after the previous one returned, through ``OrmSession``'s
public API, on one store connection (``pool_size=0``).  The seed drives
only the generated data and the operation stream; the program sees
nothing but those inputs.

Each run sets up its session :data:`SETUPS` times (the median is the
reported set-up time), then measures for a fixed number of seconds.
Every answer is compared with the workload's own oracle outside the
timed interval; exceptions and wrong answers both count as failed ops.
"""

from __future__ import annotations

import gc
import random
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.algebra.conditions import Comparison
from repro.bench.fig10 import build_model as build_customer_model
from repro.bench.fig10 import suite_for
from repro.compiler import compile_mapping
from repro.edm import Entity
from repro.incremental import CompiledModel
from repro.ivm import AssociationOp, DeltaScript, EntityOp
from repro.query.language import EntityQuery
from repro.relational.instances import StoreState
from repro.session import OrmSession
from repro.stategen import random_client_state
from repro.workloads.chain import (
    chain_mapping,
    entity_name,
    first_assoc,
    set_name,
    table_name,
)

#: set-ups per run; the reported ``setup_s`` is their median
SETUPS = 3
CHAIN_TYPES = 4
#: distinct EntityAtt4 values, dealt out evenly over each set's base rows
ATT4_VALUES = 97
HOT_VALUES_PER_SET = 8
CUSTOMER_MODEL_SEED = 7
#: the kinds of the standard SMO suite that commit on the populated
#: scale-0.25 customer model (AE-TPC, AE-TPH and AP are rejected there)
EVOLVE_KINDS = ("AE-TPT", "AA-FK", "AA-JT", "AEP-1p-TPT", "AEP-2p-TPT", "AEP-3p-TPT")
READS_PER_HALF_CYCLE = 4


@dataclass(frozen=True)
class ChainSpec:
    """A chain-4 workload: rounds of one standard batch plus reads."""

    backend: str
    rows: int
    reads_per_round: int
    #: hot EntityAtt4 values per set that reads bind (0 = point reads)
    read_values_per_set: int
    max_rounds: Optional[int] = None
    round_group = 1


@dataclass(frozen=True)
class EvolveSpec:
    """The customer-model workload: cycles of evolve, reads, undo, reads."""

    scale: float
    entities_per_set: int
    max_rounds: Optional[int] = None
    #: measurement stops only after whole suites, so every SMO kind is
    #: timed equally often and the median sees the same mix every run
    round_group = len(EVOLVE_KINDS)


WORKLOADS: Dict[str, object] = {
    "hot_reads": ChainSpec("memory", 10_000, reads_per_round=100, read_values_per_set=8),
    # 5 lookups per write (not more): a run then holds ~30 writes, enough
    # for a write median that repeats, while reads still take ~90% of it
    "point_reads": ChainSpec("sqlite", 100_000, reads_per_round=5, read_values_per_set=0),
    "write_heavy": ChainSpec("memory", 100_000, reads_per_round=2, read_values_per_set=2),
    "evolve": EvolveSpec(scale=0.25, entities_per_set=50),
}

#: smoke-test sizes: 10^3 rows and 3 rounds; customer scale 0.15, 2 SMO pairs
TOY: Dict[str, object] = {
    "hot_reads": replace(WORKLOADS["hot_reads"], rows=1_000, max_rounds=3),
    "point_reads": replace(WORKLOADS["point_reads"], rows=1_000, max_rounds=3),
    "write_heavy": replace(WORKLOADS["write_heavy"], rows=1_000, max_rounds=3),
    "evolve": replace(WORKLOADS["evolve"], scale=0.15, max_rounds=2),
}


@dataclass
class RunRecord:
    """What one measured run produced (timings in seconds)."""

    workload: str
    backend: str
    detail: str
    setup_times: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    undos: List[float] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    final_ok: bool = True
    errors: List[str] = field(default_factory=list)
    stats_before: object = None
    stats_after: object = None
    peak_rss_mb: float = 0.0
    #: durations of the speed probe, run between ops during measurement
    probe_times: List[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class SpeedProbe:
    """A fixed slice of interpreter work, timed between operations.

    Shared machines drift: on a shared 2-vCPU container one pure-Python
    task took anywhere from 5.4 to 9.3 ms within three minutes as
    neighbours came and went.  The probe's median over a run measures
    how fast the machine was
    during that run, so the report can scale its times to one reference
    speed.  The work mirrors the store layer's row handling: filter a
    list of row tuples against a set, then build a set and a dict.  It
    touches nothing of the program, so no change to the program moves it.
    """

    #: seconds between probes; each costs ~1 ms, outside any timed op
    INTERVAL = 0.05

    def __init__(self, times: List[float]) -> None:
        self._rows = [tuple((f"c{k}", 7 * j + k) for k in range(6)) for j in range(3000)]
        self._dead = frozenset(self._rows[::97])
        self._times = times
        self._last = 0.0
        self.run()

    def _work(self) -> None:
        kept = [row for row in self._rows if row not in self._dead]
        set(kept)
        {row[1]: row for row in kept}

    def run(self) -> None:
        # Only a warm second pass is timed, with the collector held off:
        # the program's last op may have flushed the caches or left a
        # collection due, and neither may leak into the machine's speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            started = time.perf_counter()
            self._work()
            self._last = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._times.append(self._last - started)

    def maybe_run(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.run()


class Client:
    """Times one call at a time, under a root span when tracing."""

    def __init__(self, record: RunRecord, tracer=None) -> None:
        self.record = record
        self.tracer = tracer
        self.probe = SpeedProbe(record.probe_times)

    def call(self, kind: str, samples: List[float], fn: Callable, *args):
        """Run ``fn(*args)``; returns (ok, result)."""
        self.record.attempted += 1
        started = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.op(kind, fn, *args)
            else:
                result = fn(*args)
        except Exception as exc:  # a failed op is counted, not fatal
            self.record.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return False, None
        finally:
            ended = time.perf_counter()
            self.probe.maybe_run()
        samples.append(ended - started)
        return True, result


def _measure_loop(spec, seconds: float, step: Callable[[int], None]) -> int:
    """Run ``step(round)`` until *seconds* have passed (at a round-group
    boundary) or the spec's round cap is reached; returns rounds run."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while spec.max_rounds is None or rounds < spec.max_rounds:
        if rounds % spec.round_group == 0 and time.perf_counter() >= deadline:
            break
        step(rounds)
        rounds += 1
    return rounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# chain-4 workloads
# ---------------------------------------------------------------------------

class ChainOracle:
    """Plain-dict model of the chain data: set -> Id -> entity, the
    A{i}a pairs, and an EntityAtt4 -> Ids index, updated with every
    write the generator issues."""

    def __init__(self, per_set: int, rng: random.Random) -> None:
        self.rng = rng
        sets = range(1, CHAIN_TYPES + 1)
        self.entities: Dict[int, Dict[int, Entity]] = {i: {} for i in sets}
        self.ids: Dict[int, List[int]] = {i: [] for i in sets}
        self._pos: Dict[int, Dict[int, int]] = {i: {} for i in sets}
        self.by_att4: Dict[int, Dict[str, set]] = {i: {} for i in sets}
        #: pairs[i][e1] = e2 for association A{i}a (Entity{i} -> Entity{i+1})
        self.pairs: Dict[int, Dict[int, int]] = {i: {} for i in range(1, CHAIN_TYPES)}
        #: how many A{i-1}a pairs reference Entity{i} Id as their second end
        self.incoming: Dict[int, Counter] = {i: Counter() for i in sets}
        self.next_id = {i: per_set for i in sets}
        self.hot = {
            i: [f"c{v}" for v in sorted(rng.sample(range(ATT4_VALUES), HOT_VALUES_PER_SET))]
            for i in sets
        }
        self._hot_sets = {i: frozenset(values) for i, values in self.hot.items()}
        self.cold = {
            i: [f"c{v}" for v in range(ATT4_VALUES) if f"c{v}" not in self._hot_sets[i]]
            for i in sets
        }
        # The seed picks the values, not the shape: every EntityAtt4 value
        # covers the same number of rows (±1) and exactly a third of each
        # set's entities hold an A{i}a pair, so two seeds do equal work.
        for i in sets:
            values = list(range(ATT4_VALUES))
            rng.shuffle(values)
            for row in range(per_set):
                att4 = f"c{values[row % ATT4_VALUES]}"
                self._put(i, _entity(i, row, f"a{rng.randrange(1000)}", att4))
        for i in range(1, CHAIN_TYPES):
            for e1 in rng.sample(range(per_set), per_set // 3):
                self._link(i, e1, rng.randrange(per_set))

    # -- state changes -------------------------------------------------
    def _put(self, i: int, entity: Entity) -> None:
        key = entity["Id"]
        old = self.entities[i].get(key)
        if old is None:
            self._pos[i][key] = len(self.ids[i])
            self.ids[i].append(key)
        else:
            self.by_att4[i][old["EntityAtt4"]].discard(key)
        self.entities[i][key] = entity
        self.by_att4[i].setdefault(entity["EntityAtt4"], set()).add(key)

    def _drop(self, i: int, key: int) -> None:
        entity = self.entities[i].pop(key)
        self.by_att4[i][entity["EntityAtt4"]].discard(key)
        slot = self._pos[i].pop(key)
        last = self.ids[i].pop()
        if last != key:
            self.ids[i][slot] = last
            self._pos[i][last] = slot

    def _link(self, i: int, e1: int, e2: int) -> None:
        self.pairs[i][e1] = e2
        self.incoming[i + 1][e2] += 1

    def _unlink(self, i: int, e1: int) -> int:
        e2 = self.pairs[i].pop(e1)
        self.incoming[i + 1][e2] -= 1
        return e2

    # -- generation ----------------------------------------------------
    def _pick(self, i: int, used: set, wanted: Callable[[int], bool]) -> int:
        ids = self.ids[i]
        while True:
            key = ids[self.rng.randrange(len(ids))]
            if key not in used and wanted(key):
                used.add(key)
                return key

    def _linked(self, i: int, key: int) -> bool:
        return key in self.pairs.get(i, ()) or self.incoming[i][key] > 0

    def is_hot(self, i: int, key: int) -> bool:
        return self.entities[i][key]["EntityAtt4"] in self._hot_sets[i]

    def standard_batch(self, round_no: int) -> DeltaScript:
        """16 ops spread round-robin over the sets: 10 updates (4 move
        EntityAtt4 into or out of a hot value), 2 inserts and 2 deletes
        of distinct Ids in the same two sets (so set sizes stay fixed),
        and 1 insert + 1 delete of an ``A{i}a`` pair."""
        rng = self.rng
        used = {i: set() for i in self.entities}
        ops: List[object] = []
        for j in range(10):
            i = j % CHAIN_TYPES + 1
            if j < CHAIN_TYPES:
                into_hot = (round_no + j) % 2 == 0
                key = self._pick(i, used[i], lambda k: self.is_hot(i, k) != into_hot)
                att4 = rng.choice(self.hot[i] if into_hot else self.cold[i])
                old = self.entities[i][key]
                entity = _entity(i, key, old["EntityAtt2"], att4)
            else:
                key = self._pick(i, used[i], lambda k: True)
                old = self.entities[i][key]
                entity = _entity(i, key, f"a{round_no}.{j}", old["EntityAtt4"])
            self._put(i, entity)
            ops.append(EntityOp("update", set_name(i), entity=entity))
        for k in range(2):
            i = (2 * round_no + k) % CHAIN_TYPES + 1
            key = self.next_id[i]
            self.next_id[i] += 1
            used[i].add(key)
            entity = _entity(i, key, f"n{round_no}", f"c{rng.randrange(ATT4_VALUES)}")
            self._put(i, entity)
            ops.append(EntityOp("insert", set_name(i), entity=entity))
            gone = self._pick(i, used[i], lambda k: not self._linked(i, k))
            self._drop(i, gone)
            ops.append(EntityOp("delete", set_name(i), key=(gone,)))
        i = (2 * round_no) % (CHAIN_TYPES - 1) + 1
        e1 = self._pick(i, used[i], lambda k: k not in self.pairs[i])
        e2 = self._pick(i + 1, used[i + 1], lambda k: True)
        self._link(i, e1, e2)
        ops.append(AssociationOp("insert", first_assoc(i), (e1,), (e2,)))
        i = (2 * round_no + 1) % (CHAIN_TYPES - 1) + 1
        e1 = self._pick(i, used[i], lambda k: k in self.pairs[i])
        e2 = self._unlink(i, e1)
        ops.append(AssociationOp("delete", first_assoc(i), (e1,), (e2,)))
        return DeltaScript(tuple(ops))

    # -- answers -------------------------------------------------------
    def store_rows(self):
        """(table, row) pairs of the chain mapping for the current data."""
        for i, per in self.entities.items():
            for key, entity in per.items():
                row = dict(entity.values)
                if i < CHAIN_TYPES:
                    row["NextA"] = self.pairs[i].get(key)
                    row["NextB"] = None
                yield table_name(i), row

    def hot_answer(self, i: int, value: str) -> List[Entity]:
        return [self.entities[i][key] for key in self.by_att4[i].get(value, ())]

    def matches_load(self, state) -> bool:
        for i, per in self.entities.items():
            loaded = state.entities(set_name(i))
            if len(loaded) != len(per) or set(loaded) != set(per.values()):
                return False
        for i, pairs in self.pairs.items():
            if set(state.associations(first_assoc(i))) != set(pairs.items()):
                return False
        return True


def _entity(i: int, key: int, att2: str, att4: str) -> Entity:
    return Entity.of(
        entity_name(i), Id=key, EntityAtt2=att2, EntityAtt3=f"b{key}", EntityAtt4=att4
    )


def _same(rows, expected) -> bool:
    return len(rows) == len(expected) and set(rows) == set(expected)


def run_chain(name: str, spec: ChainSpec, seed: int, seconds: float, tracer=None) -> RunRecord:
    rng = random.Random(seed)
    per_set = spec.rows // CHAIN_TYPES
    oracle = ChainOracle(per_set, rng)
    base_rows = list(oracle.store_rows())
    bindings = [
        (i, value)
        for i in range(1, CHAIN_TYPES + 1)
        for value in oracle.hot[i][: spec.read_values_per_set]
    ]
    record = RunRecord(name, spec.backend, f"chain-4, {spec.rows} rows")

    def setup() -> OrmSession:
        mapping = chain_mapping(CHAIN_TYPES)
        model = CompiledModel(mapping, compile_mapping(mapping, validate=False).views)
        session = OrmSession.create(model, backend=spec.backend, pool_size=0)
        state = StoreState(model.store_schema)
        for table, row in base_rows:
            state.add_row(table, row)
        session.store_state = state
        session.save_delta(DeltaScript(()))  # seeds the IVM view-row counts
        # first touch: plans compiled, hot answers materialized
        for i, value in bindings:
            session.query(EntityQuery(set_name(i), Comparison("EntityAtt4", "=", value)))
        for i in range(1, CHAIN_TYPES + 1):
            session.query(EntityQuery(set_name(i), Comparison("Id", "=", 0)))
        return session

    session = _timed_setups(record, setup, tracer)
    client = Client(record, tracer)
    record.stats_before = session.serving_stats()

    def step(round_no: int) -> None:
        client.call("write", record.writes, session.save_delta,
                    oracle.standard_batch(round_no))
        for r in range(spec.reads_per_round):
            if bindings:
                i, value = bindings[rng.randrange(len(bindings))]
                query = EntityQuery(set_name(i), Comparison("EntityAtt4", "=", value))
                expected = oracle.hot_answer(i, value)
            else:
                i = r % CHAIN_TYPES + 1
                ids = oracle.ids[i]
                key = ids[rng.randrange(len(ids))]
                query = EntityQuery(set_name(i), Comparison("Id", "=", key))
                expected = [oracle.entities[i][key]]
            ok, rows = client.call("read", record.reads, session.query, query)
            if ok and not _same(rows, expected):
                record.fail(f"read {query}: wrong answer")

    record.rounds = _measure_loop(spec, seconds, step)
    record.stats_after = session.serving_stats()
    if tracer is not None:
        tracer.uninstall()
    record.final_ok = oracle.matches_load(session.load())
    if not record.final_ok:
        record.errors.append("final load differs from the oracle")
    session.engine.close()
    record.peak_rss_mb = _peak_rss_mb()
    return record


def _timed_setups(record: RunRecord, setup: Callable[[], OrmSession], tracer) -> OrmSession:
    """Set up :data:`SETUPS` times, keeping the last session; a traced
    run patches its layers in before the last set-up."""
    session = None
    for attempt in range(SETUPS):
        if session is not None:
            session.engine.close()
            session = None
            gc.collect()
        if tracer is not None and attempt == SETUPS - 1:
            tracer.install()
            tracer.phase("setup")
        started = time.perf_counter()
        session = setup()
        record.setup_times.append(time.perf_counter() - started)
    return session


# ---------------------------------------------------------------------------
# the evolve workload
# ---------------------------------------------------------------------------

def run_evolve(name: str, spec: EvolveSpec, seed: int, seconds: float, tracer=None) -> RunRecord:
    rng = random.Random(seed)
    schema = build_customer_model(spec.scale, CUSTOMER_MODEL_SEED).client_schema
    data = random_client_state(schema, seed=seed, entities_per_set=spec.entities_per_set)
    set_names = [s.name for s in schema.entity_sets]
    rng.shuffle(set_names)
    suite = dict(suite_for(spec.scale, CUSTOMER_MODEL_SEED))
    factories = [suite[kind] for kind in EVOLVE_KINDS]
    record = RunRecord(
        name,
        "memory",
        f"customer scale {spec.scale}, {len(set_names)} sets, "
        f"{spec.entities_per_set} entities/set",
    )
    base: Dict[str, Counter] = {}

    def setup() -> OrmSession:
        model = build_customer_model(spec.scale, CUSTOMER_MODEL_SEED)
        session = OrmSession.create(model, backend="memory", pool_size=0)
        session.save(data)
        base.clear()
        for set_name_ in set_names:  # first touch of every set
            base[set_name_] = Counter(session.query(EntityQuery(set_name_)))
        return session

    session = _timed_setups(record, setup, tracer)
    for set_name_ in set_names:
        if base[set_name_] != Counter(data.entities(set_name_)):
            record.fail(f"base read of {set_name_} differs from the loaded data")
    base_fingerprint = session.epoch.fingerprint
    client = Client(record, tracer)
    record.stats_before = session.serving_stats()

    def reads(cycle: int, half: int) -> None:
        for j in range(READS_PER_HALF_CYCLE):
            index = (2 * READS_PER_HALF_CYCLE * cycle + READS_PER_HALF_CYCLE * half + j)
            target = set_names[index % len(set_names)]
            ok, rows = client.call("read", record.reads, session.query, EntityQuery(target))
            if ok and Counter(rows) != base[target]:
                record.fail(f"read of {target} changed across evolution")

    def step(cycle: int) -> None:
        smo = factories[cycle % len(factories)](session.model)
        evolved, _ = client.call("write", record.writes, session.evolve, smo)
        reads(cycle, 0)
        if evolved:
            undone, _ = client.call("undo", record.undos, session.undo)
            if undone and session.epoch.fingerprint != base_fingerprint:
                record.fail(f"undo of {smo.describe()} did not restore the base fingerprint")
        reads(cycle, 1)

    record.rounds = _measure_loop(spec, seconds, step)
    record.stats_after = session.serving_stats()
    if tracer is not None:
        tracer.uninstall()
    session.engine.close()
    record.peak_rss_mb = _peak_rss_mb()
    return record


def run_workload(name: str, seed: int, seconds: float, tracer=None, toy: bool = False) -> RunRecord:
    spec = (TOY if toy else WORKLOADS)[name]
    runner = run_evolve if isinstance(spec, EvolveSpec) else run_chain
    record = runner(name, spec, seed, seconds, tracer)
    for message in record.errors:
        print(f"[{name}] {message}", file=sys.stderr)
    return record
