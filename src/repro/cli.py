"""Command-line interface.

    python -m repro compile model.json -o compiled.json
    python -m repro validate compiled.json
    python -m repro views compiled.json [NAME]
    python -m repro evolve compiled.json target-schema.json -o next.json
    python -m repro evolve compiled.json target.json --backend sqlite --db app.db
    python -m repro plan compiled.json target-schema.json
    python -m repro query compiled.json Persons --where "Id>1" --db app.db
    python -m repro query compiled.json Persons --repeat 500 --stats
    python -m repro save-delta compiled.json delta.json --db app.db
    python -m repro stats compiled.json --db app.db
    python -m repro ddl compiled.json [--target target-schema.json]
    python -m repro serve --model compiled.json --port 8123
    python -m repro cache stats --cache-dir /var/cache/repro
    python -m repro cache warm compiled.json --cache-dir /var/cache/repro
    python -m repro cache clear --cache-dir /var/cache/repro
    python -m repro bench {fig4,fig9,fig10}

Model documents are the JSON format of :mod:`repro.msl`; ``fragments``
may alternatively be a string of Figure-5 Entity-SQL fragment equations.

The data-bearing verbs (``query``, ``evolve``, ``ddl``) accept
``--backend {memory,sqlite}`` (default: ``$REPRO_BACKEND`` or memory)
and ``--db PATH`` to attach a SQLite database file; ``evolve`` then
migrates the stored data alongside the mapping.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.budget import WorkBudget
from repro.compiler import compile_mapping
from repro.errors import ReproError
from repro.incremental import CompiledModel, IncrementalCompiler
from repro.msl import (
    client_schema_from_json,
    dumps_model,
    load_mapping,
    load_model,
)


def _open_session(args: argparse.Namespace, model: CompiledModel):
    """A session over the backend the flags select (memory by default,
    ``$REPRO_BACKEND`` respected, ``--db`` attaching a SQLite file)."""
    from repro.backend import create_backend
    from repro.errors import SchemaError
    from repro.session import OrmSession

    backend_name = getattr(args, "backend", None)
    db_path = getattr(args, "db", None)
    if db_path and (backend_name or "sqlite") != "sqlite":
        raise SchemaError("--db requires --backend sqlite")
    if db_path:
        backend_name = "sqlite"
    backend = create_backend(backend_name, model.store_schema, db_path=db_path)
    budget = WorkBudget(max_seconds=args.budget) if getattr(args, "budget", None) else None
    return OrmSession(model, backend=backend, budget=budget)


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["memory", "sqlite"],
        default=None,
        help="store engine (default: $REPRO_BACKEND or memory)",
    )
    parser.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="SQLite database file to attach (implies --backend sqlite)",
    )


def _read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_compile(args: argparse.Namespace) -> int:
    mapping = load_mapping(_read_json(args.model))
    budget = WorkBudget(max_seconds=args.budget) if args.budget else None
    result = compile_mapping(mapping, budget=budget, validate=not args.no_validate)
    model = CompiledModel(mapping, result.views)
    _write(args.output, dumps_model(model))
    print(
        f"compiled in {result.elapsed:.3f}s"
        + (f" ({result.report})" if result.report else " (validation skipped)"),
        file=sys.stderr,
    )
    return 0


def _open_cache(cache_dir: Optional[str]):
    """A ValidationCache, with the persistent L2 attached when a cache
    directory is named (flag or ``$REPRO_CACHE_DIR``); None otherwise."""
    from repro.containment.cache import ValidationCache
    from repro.containment.persist import (
        PersistentCacheStore,
        cache_dir_from_env,
    )

    resolved = cache_dir if cache_dir is not None else cache_dir_from_env()
    if not resolved:
        return None
    return ValidationCache(store=PersistentCacheStore(resolved))


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.compiler import validate_mapping

    model = load_model(_read_json(args.model))
    budget = WorkBudget(max_seconds=args.budget) if args.budget else None
    cache = _open_cache(args.cache_dir)
    try:
        report = validate_mapping(
            model.mapping,
            model.views,
            budget,
            workers=args.workers,
            symbolic=not args.no_symbolic,
            cache=cache,
        )
    finally:
        if cache is not None:
            cache.close()
    print(f"mapping is valid: {report}")
    if args.stats:
        print("containment fast path:")
        print(
            f"  symbolic discharged : {report.symbolic_discharged}"
            f"/{report.containment_checks} containment checks"
        )
        print(
            f"  branches            : {report.branches_discharged} discharged,"
            f" {report.branches_pruned} pruned unsat"
        )
        print(f"  states enumerated   : {report.containment_states}")
        print(f"  counterexample replays: {report.counterexample_replays}")
        if report.check_timings:
            print("slowest checks:")
            ranked = sorted(
                report.check_timings.items(), key=lambda item: -item[1]
            )
            for name, elapsed in ranked[:10]:
                print(f"  {name:<40s} {elapsed * 1000.0:8.2f} ms")
    return 0


def cmd_views(args: argparse.Namespace) -> int:
    model = load_model(_read_json(args.model))
    views = model.views
    if args.name:
        if args.name in views.query_views:
            print(views.query_view(args.name).to_sql())
        elif args.name in views.update_views:
            print(views.update_view(args.name).to_sql())
        elif args.name in views.association_views:
            print(views.association_view(args.name).to_sql())
        else:
            print(f"no view named {args.name!r}", file=sys.stderr)
            return 1
    else:
        print(views.to_sql())
    return 0


def _diffed_smos(args: argparse.Namespace):
    """(model, smos) for the evolve/plan verbs: diff model against target."""
    from repro.modef import smos_from_diff

    model = load_model(_read_json(args.model))
    target_document = _read_json(args.target)
    target = client_schema_from_json(
        target_document.get("clientSchema", target_document)
    )
    overrides = dict(
        pair.split("=", 1) for pair in (args.style or [])
    )
    smos = smos_from_diff(model, target, style_overrides=overrides or None)
    return model, smos


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.compiler.scheduler import describe_checks

    model, smos = _diffed_smos(args)
    session = _open_session(args, model)
    try:
        if args.batch:
            session.evolve_many(smos)
            entry = session.journal[-1]
            print(f"applied {entry}", file=sys.stderr)
            print(describe_checks(entry.check_names), file=sys.stderr)
        else:
            for smo in smos:
                session.evolve(smo)
                print(f"applied {session.journal[-1]}", file=sys.stderr)
        if session.backend.name == "sqlite":
            print(
                f"migrated store at {session.backend.db_path} "
                f"({session.backend.row_count()} rows)",
                file=sys.stderr,
            )
        _write(args.output, dumps_model(session.model))
    finally:
        session.close()
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.compiler.scheduler import describe_checks

    model, smos = _diffed_smos(args)
    compiler = IncrementalCompiler(
        budget=WorkBudget(max_seconds=args.budget) if args.budget else None
    )
    plan = compiler.plan(model, smos)
    print(plan.describe())
    if plan.ok:
        print(describe_checks(plan.check_names))
        if args.backend or args.db:
            # also preview the store-side migration the batch implies
            session = _open_session(args, model)
            try:
                script = session.migration_script(smos)
                print(script.summary())
            finally:
                session.close()
    return 0 if plan.ok else 1


def _parse_where(text: str):
    """A single comparison atom: ``Attr OP literal`` — the service wire
    format's condition syntax (one parser for CLI and HTTP)."""
    from repro.service.wire import parse_condition

    return parse_condition(text)


def cmd_query(args: argparse.Namespace) -> int:
    from repro.algebra.conditions import TRUE
    from repro.query import EntityQuery

    model = load_model(_read_json(args.model))
    condition = _parse_where(args.where) if args.where else TRUE
    projection = tuple(args.project.split(",")) if args.project else None
    query = EntityQuery(args.set_name, condition, projection)
    session = _open_session(args, model)
    try:
        if args.explain:
            # both forms read the session's plan cache, so what explain
            # prints is provably the plan `query` would execute
            if session.backend.name == "sqlite":
                for concrete_type, text, params in session.explain_sql(query):
                    print(f"-- constructs {concrete_type}")
                    print(text + ";")
                    if params:
                        print(f"-- params: {list(params)}")
            else:
                print(session.explain(query))
            return 0
        repeat = max(1, args.repeat)
        for _ in range(repeat):
            results = session.query(query)
        results = sorted(results, key=repr)
        for result in results:
            print(result)
        print(
            f"{len(results)} result(s)"
            + (f" x {repeat} repeat(s)" if repeat > 1 else ""),
            file=sys.stderr,
        )
        if args.stats:
            print(session.serving_stats(), file=sys.stderr)
        return 0
    finally:
        session.close()


def cmd_save_delta(args: argparse.Namespace) -> int:
    """Apply a delta-script document through the incremental write path."""
    from repro.service.wire import delta_script_from_json

    model = load_model(_read_json(args.model))
    script = delta_script_from_json(_read_json(args.delta))
    session = _open_session(args, model)
    try:
        delta = session.save_delta(script)
        print(delta)
        print(
            f"{len(script)} op(s) -> {delta.statement_count()} statement(s)",
            file=sys.stderr,
        )
        if args.stats:
            print(session.serving_stats(), file=sys.stderr)
        return 0
    finally:
        session.close()


def cmd_stats(args: argparse.Namespace) -> int:
    """Exercise every entity set twice and print the serving counters —
    a quick view of plan/statement cache behaviour on a given store."""
    from repro.query import EntityQuery

    model = load_model(_read_json(args.model))
    session = _open_session(args, model)
    try:
        for entity_set in model.client_schema.entity_sets:
            query = EntityQuery(entity_set.name)
            for _ in range(max(1, args.repeat)):
                session.query(query)
        print(session.serving_stats())
        return 0
    finally:
        session.close()


def cmd_ddl(args: argparse.Namespace) -> int:
    from repro.backend import schema_ddl_text

    if not args.target:
        model = load_model(_read_json(args.model))
        print(schema_ddl_text(model.store_schema))
        return 0
    model, smos = _diffed_smos(args)
    session = _open_session(args, model)
    try:
        script = session.migration_script(smos)
        print(script.summary(), file=sys.stderr)
        print(script.to_sql())
        return 0
    finally:
        session.close()


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, warm, or wipe the persistent validation cache."""
    from repro.containment.persist import (
        PersistentCacheStore,
        cache_dir_from_env,
    )
    from repro.errors import SchemaError

    cache_dir = args.cache_dir or cache_dir_from_env()
    if not cache_dir:
        raise SchemaError(
            "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    if args.action == "stats":
        store = PersistentCacheStore(cache_dir)
        try:
            print(store.stats())
        finally:
            store.close()
        return 0
    if args.action == "clear":
        store = PersistentCacheStore(cache_dir)
        try:
            store.clear()
            print(f"cleared {store.path}", file=sys.stderr)
        finally:
            store.close()
        return 0
    # warm: validate the model through the persistent cache so later
    # processes (CLI or service) start from a hot disk cache
    if not args.model:
        raise SchemaError("cache warm needs a MODEL document")
    from repro.compiler import validate_mapping

    model = load_model(_read_json(args.model))
    budget = WorkBudget(max_seconds=args.budget) if args.budget else None
    cache = _open_cache(cache_dir)
    try:
        report = validate_mapping(
            model.mapping,
            model.views,
            budget,
            workers=args.workers,
            cache=cache,
        )
        print(f"warmed: {report}")
        print(cache.store.stats(), file=sys.stderr)
    finally:
        cache.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant HTTP session service."""
    from repro.service import SessionService
    from repro.service.http import serve

    backend_name = getattr(args, "backend", None)
    if getattr(args, "db_dir", None):
        backend_name = "sqlite"
    service = SessionService(
        default_backend=backend_name,
        db_dir=args.db_dir,
        pool_size=args.pool_size,
        cache_dir=args.cache_dir,
        result_cache_budget=args.result_cache_budget,
    )
    if args.model:
        result = service.create_tenant(
            args.tenant, _read_json(args.model)
        )
        print(
            f"tenant {result['tenant']!r} ready on {result['backend']} "
            f"(epoch {result['epoch']})",
            file=sys.stderr,
        )
    serve(service, host=args.host, port=args.port)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.figure == "fig4":
        from repro.bench.fig4 import main as bench_main
    elif args.figure == "fig9":
        from repro.bench.fig9 import main as bench_main
    else:
        from repro.bench.fig10 import main as bench_main
    bench_main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental object-to-relational mapping compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="full-compile a mapping document")
    p.add_argument("model")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("validate", help="re-validate a compiled model")
    p.add_argument("model")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="validation workers (1: serial; more: a process pool)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-check timings and symbolic-containment counters",
    )
    p.add_argument(
        "--no-symbolic",
        action="store_true",
        help="disable the symbolic containment fast path (pure enumeration)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent validation cache directory "
        "(default: $REPRO_CACHE_DIR; omit both for in-memory only)",
    )
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("views", help="print compiled views as Entity SQL")
    p.add_argument("model")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=cmd_views)

    p = sub.add_parser(
        "evolve", help="diff against a target client schema and apply SMOs"
    )
    p.add_argument("model")
    p.add_argument("target")
    p.add_argument("-o", "--output", default="-")
    p.add_argument(
        "--style",
        action="append",
        metavar="TYPE=TPT|TPC|TPH",
        help="force a mapping style for an added type",
    )
    p.add_argument("--budget", type=float, default=None)
    p.add_argument(
        "--batch",
        action="store_true",
        help="compile all diffed SMOs as one batch, validating the union "
        "neighborhood once",
    )
    _add_backend_flags(p)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser(
        "plan",
        help="dry-run the SMOs a target schema implies: delta ops and "
        "scheduled checks, without writing a model",
    )
    p.add_argument("model")
    p.add_argument("target")
    p.add_argument(
        "--style",
        action="append",
        metavar="TYPE=TPT|TPC|TPH",
        help="force a mapping style for an added type",
    )
    p.add_argument("--budget", type=float, default=None)
    _add_backend_flags(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "query", help="run an entity query against a store backend"
    )
    p.add_argument("model")
    p.add_argument("set_name", help="entity set to query")
    p.add_argument(
        "--where", default=None, metavar="COND", help="e.g. \"Id>1\", \"Name='ann'\""
    )
    p.add_argument(
        "--project", default=None, metavar="ATTRS", help="comma-separated attributes"
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the cached store plan (generated SQL on sqlite) "
        "instead of running it",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run the query N times (warm-plan serving; results printed once)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print plan/statement cache counters after running",
    )
    _add_backend_flags(p)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "save-delta",
        help="apply a delta-script document (wire {'ops': [...]}) through "
        "the incremental write path",
    )
    p.add_argument("model")
    p.add_argument("delta", help="delta-script JSON document")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print serving counters (incl. write plans) after applying",
    )
    _add_backend_flags(p)
    p.set_defaults(fn=cmd_save_delta)

    p = sub.add_parser(
        "stats",
        help="query every entity set --repeat times and print plan/"
        "statement/validation cache counters",
    )
    p.add_argument("model")
    p.add_argument(
        "--repeat",
        type=int,
        default=2,
        metavar="N",
        help="runs per entity set (default 2: one miss, then hits)",
    )
    _add_backend_flags(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "ddl",
        help="print the store schema's CREATE TABLE script, or (with "
        "--target) the DDL+DML migration script a planned batch implies",
    )
    p.add_argument("model")
    p.add_argument(
        "--target", default=None, help="target client schema to diff against"
    )
    p.add_argument(
        "--style",
        action="append",
        metavar="TYPE=TPT|TPC|TPH",
        help="force a mapping style for an added type",
    )
    _add_backend_flags(p)
    p.set_defaults(fn=cmd_ddl)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP session service (query/save/"
        "save_delta/evolve/undo/stats over JSON; one epoch-engine session "
        "per tenant)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123)
    p.add_argument(
        "--model",
        default=None,
        help="compiled model document to preload as a tenant",
    )
    p.add_argument(
        "--tenant",
        default="default",
        metavar="NAME",
        help="tenant name for --model (default: 'default')",
    )
    p.add_argument(
        "--backend",
        choices=["memory", "sqlite"],
        default=None,
        help="default store engine for new tenants",
    )
    p.add_argument(
        "--db-dir",
        default=None,
        metavar="DIR",
        help="directory for per-tenant SQLite files (implies sqlite)",
    )
    p.add_argument(
        "--pool-size",
        type=int,
        default=4,
        metavar="N",
        help="reader connections per SQLite tenant (default 4)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared persistent validation cache directory for all "
        "tenants (default: $REPRO_CACHE_DIR)",
    )
    p.add_argument(
        "--result-cache-budget",
        type=int,
        default=None,
        metavar="CELLS",
        help="materialized result tier budget per tenant in cells "
        "(rows x width; 0 disables the tier, default 2000000)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "cache",
        help="inspect (stats), pre-populate (warm MODEL), or wipe (clear) "
        "the persistent cross-process validation cache",
    )
    p.add_argument("action", choices=["stats", "warm", "clear"])
    p.add_argument(
        "model",
        nargs="?",
        default=None,
        help="compiled model document (required for 'warm')",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="validation workers for 'warm' (1: serial; more: a process pool)",
    )
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("bench", help="run a figure's benchmark driver")
    p.add_argument("figure", choices=["fig4", "fig9", "fig10"])
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
