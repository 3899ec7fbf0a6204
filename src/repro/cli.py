"""Interactive shell and one-shot runner for the LLM-storage engine.

Usage::

    python -m repro.cli --world geography            # REPL
    python -m repro.cli --world movies -c "SELECT COUNT(*) FROM movies"
    python -m repro.cli --world company --naive --seed 3 \
        -c "SELECT name FROM employees ORDER BY salary DESC LIMIT 3"
    python -m repro.cli --world movies --jobs 8 --batch queries.sql
    cat queries.sql | python -m repro.cli --world movies --batch -

Batch mode reads ``;``-separated statements from a file (``-`` for
stdin) and serves them concurrently through ``Engine.execute_many``:
up to ``--jobs`` statements in flight against one shared session, with
per-query usage attribution printed after each result.

Inside the REPL:

    sql> SELECT population FROM countries WHERE name = 'France';
    sql> .explain SELECT COUNT(*) FROM cities
    sql> .explain analyze SELECT COUNT(*) FROM cities
    sql> .usage           -- cumulative session accounting
    sql> .storage         -- storage-tier hit/miss/eviction counters
    sql> .metrics         -- metrics registry + slow-query log (--trace)
    sql> .stats           -- learned statistics catalog (--adaptive)
    sql> .tables          -- registered virtual tables
    sql> .quit
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import EngineConfig
from repro.core.engine import LLMStorageEngine
from repro.errors import ReproError
from repro.eval.worlds import all_worlds, constraints_for
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.obs.export import batch_summary


def build_engine(
    world_name: str,
    seed: int,
    naive: bool,
    gap: float,
    sampling: float,
    votes: int,
    max_in_flight: int = 1,
    storage_mode: str = "off",
    storage_budget_bytes: Optional[int] = None,
    storage_ttl_s: Optional[float] = None,
    storage_backend: str = "memory",
    storage_path: Optional[str] = None,
    storage_scope: Optional[str] = None,
    scan_shards: int = 1,
    shard_min_rows: Optional[int] = None,
    streaming: bool = True,
    tracing: bool = False,
    slow_query_ms: Optional[float] = None,
    transport: Optional[str] = None,
    transport_url: Optional[str] = None,
    continuous_batching: bool = False,
    batch_slots: Optional[int] = None,
    adaptive: bool = False,
    replan_threshold: Optional[float] = None,
) -> LLMStorageEngine:
    """Assemble an engine over one of the standard worlds."""
    worlds = all_worlds()
    if world_name not in worlds:
        raise SystemExit(
            f"unknown world {world_name!r}; choose from {', '.join(sorted(worlds))}"
        )
    world = worlds[world_name]
    noise = NoiseConfig().with_gap(gap).with_sampling_error(sampling)
    model = SimulatedLLM(world, noise=noise, seed=seed)
    config = EngineConfig.naive() if naive else EngineConfig()
    if votes > 1:
        config = config.with_(votes=votes)
    if max_in_flight > 1:
        config = config.with_(max_in_flight=max_in_flight)
    if storage_mode != "off":
        config = config.with_(storage_mode=storage_mode)
    if storage_budget_bytes is not None:
        config = config.with_(storage_budget_bytes=storage_budget_bytes)
    if storage_ttl_s is not None:
        config = config.with_(storage_ttl_s=storage_ttl_s)
    if storage_backend != "memory":
        config = config.with_(
            storage_backend=storage_backend, storage_path=storage_path
        )
    if storage_scope is not None:
        config = config.with_(storage_scope=storage_scope)
    if scan_shards != 1:
        config = config.with_(scan_shards=scan_shards)
    if shard_min_rows is not None:
        config = config.with_(shard_min_rows=shard_min_rows)
    if not streaming:
        config = config.with_(enable_streaming=False)
    if tracing:
        config = config.with_(enable_tracing=True)
    if slow_query_ms is not None:
        config = config.with_(slow_query_ms=slow_query_ms)
    if transport is not None:
        config = config.with_(transport=transport, transport_url=transport_url)
    if continuous_batching:
        config = config.with_(enable_continuous_batching=True)
    if batch_slots is not None:
        config = config.with_(batch_slots=batch_slots)
    if adaptive:
        config = config.with_(enable_adaptive=True)
    if replan_threshold is not None:
        config = config.with_(replan_threshold=replan_threshold)
    if transport is not None:
        # The simulated model stays the deterministic offline fallback:
        # network transports without credentials/endpoint delegate every
        # request to it (and key caches by its identity), so results
        # are byte-identical whichever transport is named.
        from repro.llm.transport import transport_from_config

        model = transport_from_config(config, fallback_model=model)
    engine = LLMStorageEngine(model, config=config)
    for schema in world.schemas():
        engine.register_virtual_table(
            schema,
            row_estimate=world.row_count(schema.name),
            constraints=constraints_for(world, schema.name),
        )
    return engine


def run_statement(engine: LLMStorageEngine, line: str, out) -> None:
    """Execute one REPL line (SQL or dot-command)."""
    stripped = line.strip().rstrip(";")
    if not stripped:
        return
    if stripped == ".usage":
        print(f"session usage: {engine.usage.render()}", file=out)
        return
    if stripped == ".storage":
        print(f"storage: {engine.storage.describe()}", file=out)
        print(f"transport: {engine.transport_description}", file=out)
        return
    if stripped == ".tables":
        for name in engine.catalog.names():
            print(engine.catalog.schema(name).render_signature(), file=out)
        return
    if stripped == ".metrics":
        print(engine.metrics_report(), file=out)
        return
    if stripped == ".stats":
        print(engine.stats_report(), file=out)
        return
    if stripped.startswith(".explain"):
        sql = stripped[len(".explain"):].strip()
        analyze = False
        if sql.lower().startswith("analyze"):
            analyze = True
            sql = sql[len("analyze"):].strip()
        if not sql:
            print("usage: .explain [analyze] <sql>", file=out)
            return
        print(engine.explain(sql, analyze=analyze), file=out)
        return
    result = engine.execute(stripped)
    print(result.render(), file=out)


def split_statements(text: str) -> List[str]:
    """Split SQL text on ``;`` and strip ``--`` comments, quote-aware.

    A naive split would corrupt legal statements: ``'x;y'`` / ``'a--b'``
    are ordinary string literals and ``"a;b"`` is a quoted identifier.
    This scanner tracks both quote kinds (with doubled-quote escapes),
    so separators and comment markers only count outside them.  Blank
    statements are dropped, making trailing semicolons and comment-only
    sections harmless.
    """
    statements: List[str] = []
    current: List[str] = []
    quote = None  # the active quote character, if inside one
    index = 0
    while index < len(text):
        char = text[index]
        if quote is not None:
            if char == quote and text[index + 1 : index + 2] == quote:
                current.append(char * 2)
                index += 2
                continue
            if char == quote:
                quote = None
            current.append(char)
        elif char in ("'", '"'):
            quote = char
            current.append(char)
        elif char == "-" and text[index + 1 : index + 2] == "-":
            while index < len(text) and text[index] != "\n":
                index += 1
            continue
        elif char == ";":
            statements.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    statements.append("".join(current))
    return [chunk.strip() for chunk in statements if chunk.strip()]


def read_batch_statements(source: str, stdin=None) -> List[str]:
    """Statements from a file (or stdin for ``-``), ``;``-separated."""
    if source == "-":
        text = (stdin or sys.stdin).read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return split_statements(text)


def run_batch(
    engine: LLMStorageEngine, statements: List[str], jobs: int, out
) -> int:
    """Serve a statement batch concurrently; returns failure count."""
    if not statements:
        print("batch: no statements", file=out)
        return 0
    outcomes = engine.execute_many(
        statements, jobs=jobs, collect_outcomes=True
    )
    failed = 0
    for outcome in outcomes:
        print(f"-- [{outcome.index + 1}] {outcome.statement}", file=out)
        if outcome.ok:
            print(outcome.result.render(), file=out)
        else:
            failed += 1
            print(f"error: {outcome.error}", file=out)
    print(
        f"-- batch: {len(outcomes) - failed} ok, {failed} failed "
        f"({jobs} job(s)); session usage: {engine.usage.render()}",
        file=out,
    )
    print(batch_summary(outcomes), file=out)
    if engine.observability.enabled:
        print(engine.metrics_report(), file=out)
    return failed


def repl(engine: LLMStorageEngine, stdin=None, out=None) -> None:
    """Read-eval-print loop; '.quit' or EOF exits."""
    stdin = stdin or sys.stdin
    out = out or sys.stdout
    print("repro SQL shell — '.quit' to exit, '.explain <sql>' for plans", file=out)
    while True:
        print("sql> ", end="", file=out, flush=True)
        line = stdin.readline()
        if not line or line.strip() in (".quit", ".exit"):
            return
        try:
            run_statement(engine, line, out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--world", default="geography", help="geography | movies | company"
    )
    parser.add_argument("--seed", type=int, default=0, help="model seed")
    parser.add_argument("--gap", type=float, default=0.05, help="knowledge-gap rate")
    parser.add_argument(
        "--sampling", type=float, default=0.08, help="sampling-error rate"
    )
    parser.add_argument("--votes", type=int, default=1, help="self-consistency votes")
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=1,
        help="concurrent model calls (1 = sequential; results are "
        "identical at any value, only wall-clock changes)",
    )
    parser.add_argument(
        "--storage-mode",
        choices=["off", "result_cache", "materialize"],
        default="off",
        help="adaptive materialization tier: serve repeated queries from "
        "a normalized result cache (result_cache) and reuse retrieved "
        "scan/lookup fragments (materialize); results are byte-identical "
        "to --storage-mode off on deterministic settings",
    )
    parser.add_argument(
        "--storage-budget-bytes",
        type=int,
        default=None,
        help="byte budget per storage store (LRU eviction beyond it)",
    )
    parser.add_argument(
        "--storage-ttl-s",
        type=float,
        default=None,
        help="seconds before stored fragments/results expire (0 = never)",
    )
    parser.add_argument(
        "--storage-backend",
        choices=["memory", "sqlite"],
        default="memory",
        help="where the storage tier keeps entries: 'memory' dies with "
        "the process; 'sqlite' persists them in the --storage-path file "
        "(WAL mode, process-safe) so restarts and concurrent processes "
        "share one warm tier",
    )
    parser.add_argument(
        "--storage-path",
        default=None,
        metavar="FILE",
        help="SQLite store file for --storage-backend sqlite",
    )
    parser.add_argument(
        "--storage-scope",
        default=None,
        metavar="LEVEL[:TENANT]",
        help="multi-tenant scope of stored entries: session | user | "
        "application, optionally 'level:tenant' (e.g. user:alice); "
        "scopes are strictly isolated and 'session' never shares "
        "across processes",
    )
    parser.add_argument(
        "--scan-shards",
        type=int,
        default=1,
        help="partition large scans into this many parallel page chains "
        "(1 = single chain; rows are byte-identical at any value, only "
        "call layout and wall-clock change)",
    )
    parser.add_argument(
        "--shard-min-rows",
        type=int,
        default=None,
        help="minimum estimated rows per shard (caps the shard count "
        "so small tables stay unsharded)",
    )
    parser.add_argument(
        "--no-streaming",
        action="store_true",
        help="disable the streaming row pipeline (early-exit page "
        "fetching for LIMIT/EXISTS consumers); results are identical, "
        "only pages fetched change — see '.usage' pages counters",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect a deterministic span tree per query and activate "
        "the session metrics registry (see '.metrics'); results and "
        "usage totals are byte-identical with or without it",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write collected traces as JSON lines to PATH on exit "
        "(implies --trace)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log statements whose simulated wall time meets MS ms "
        "(statement, wall, top-3 slowest spans; implies tracing)",
    )
    parser.add_argument(
        "--transport",
        choices=["simulated", "openai", "llamacpp"],
        default=None,
        help="model transport: 'simulated' (in-process, default), "
        "'openai' (OpenAI-style HTTP; needs OPENAI_API_KEY), or "
        "'llamacpp' (llama.cpp server; needs --transport-url or "
        "LLAMA_SERVER_URL); network transports without credentials "
        "fall back deterministically to the in-process model",
    )
    parser.add_argument(
        "--transport-url",
        default=None,
        metavar="URL",
        help="endpoint base URL for --transport openai/llamacpp",
    )
    parser.add_argument(
        "--continuous-batching",
        action="store_true",
        help="pool model calls from all in-flight --batch queries "
        "into one shared pool of --batch-slots slots; results are "
        "byte-identical, only wall-clock changes",
    )
    parser.add_argument(
        "--batch-slots",
        type=int,
        default=None,
        help="slot count of the continuous-batching pool (default 32)",
    )
    parser.add_argument(
        "--adaptive",
        dest="adaptive",
        action="store_true",
        default=False,
        help="learn observed cardinalities/selectivities into the "
        "statistics catalog and let the optimizer consult them (plus "
        "mid-query re-planning of badly-estimated streaming scans); "
        "rows are byte-identical, only call layout changes",
    )
    parser.add_argument(
        "--no-adaptive",
        dest="adaptive",
        action="store_false",
        help="disable adaptive optimization (the default): the "
        "optimizer prices plans off static estimates only",
    )
    parser.add_argument(
        "--replan-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="estimated/observed selectivity divergence ratio beyond "
        "which a streaming scan re-plans its remaining work "
        "(default 4.0; must be > 1)",
    )
    parser.add_argument(
        "--naive", action="store_true", help="disable all optimizations"
    )
    parser.add_argument("-c", "--command", default=None, help="run one query and exit")
    parser.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="serve ';'-separated statements from FILE ('-' = stdin) "
        "concurrently and exit; results are byte-identical to running "
        "them one at a time",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="statements admitted concurrently in --batch mode "
        "(default: the engine's serve_jobs setting); all jobs share "
        "one --max-in-flight call budget",
    )
    args = parser.parse_args(argv)

    try:
        engine = build_engine(
            args.world,
            args.seed,
            args.naive,
            args.gap,
            args.sampling,
            args.votes,
            max_in_flight=args.max_in_flight,
            storage_mode=args.storage_mode,
            storage_budget_bytes=args.storage_budget_bytes,
            storage_ttl_s=args.storage_ttl_s,
            storage_backend=args.storage_backend,
            storage_path=args.storage_path,
            storage_scope=args.storage_scope,
            scan_shards=args.scan_shards,
            shard_min_rows=args.shard_min_rows,
            streaming=not args.no_streaming,
            tracing=args.trace or args.trace_out is not None,
            slow_query_ms=args.slow_query_ms,
            transport=args.transport,
            transport_url=args.transport_url,
            continuous_batching=args.continuous_batching,
            batch_slots=args.batch_slots,
            adaptive=args.adaptive,
            replan_threshold=args.replan_threshold,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.jobs is not None and args.batch is None:
        print("error: --jobs requires --batch", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    def flush_traces() -> None:
        if args.trace_out is None:
            return
        spans = engine.export_trace(args.trace_out)
        print(
            f"-- wrote {spans} span(s) to {args.trace_out}", file=sys.stdout
        )

    if args.batch is not None:
        try:
            statements = read_batch_statements(args.batch)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read batch file: {exc}", file=sys.stderr)
            return 2
        jobs = args.jobs if args.jobs is not None else engine.config.serve_jobs
        try:
            failed = run_batch(engine, statements, jobs, sys.stdout)
        finally:
            engine.close()
        flush_traces()
        return 1 if failed else 0
    if args.command:
        try:
            run_statement(engine, args.command, sys.stdout)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            engine.close()
        flush_traces()
        return 0
    try:
        repl(engine)
    finally:
        engine.close()
    flush_traces()
    return 0


if __name__ == "__main__":
    sys.exit(main())
