"""Engine configuration.

One dataclass carries every knob the planner and executor share.  The
ablation experiments (Table 3, Figures 4-6) are sweeps over these fields;
:meth:`EngineConfig.naive` is the unoptimized configuration used as the
"decomposed but naive" baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

from repro.errors import ConfigError

#: Valid values of :attr:`EngineConfig.storage_mode`.
STORAGE_MODES = ("off", "result_cache", "materialize")

#: Valid values of :attr:`EngineConfig.storage_backend`.
STORAGE_BACKENDS = ("memory", "sqlite")

#: Valid values of :attr:`EngineConfig.transport`.  Kept as a static
#: tuple (mirroring the registry in :mod:`repro.llm.transport`) so
#: config validation never has to import the transport stack.
TRANSPORTS = ("simulated", "openai", "llamacpp")

#: Multi-tenant access levels of :attr:`EngineConfig.storage_scope`,
#: narrowest first.  A scope can never serve another scope's entries.
SCOPE_LEVELS = ("session", "user", "application")


def parse_storage_scope(scope: str) -> Tuple[str, Optional[str]]:
    """Split ``"level"`` / ``"level:tenant"`` into its parts.

    The level must be one of :data:`SCOPE_LEVELS`; the tenant (an
    identifier inside the level, e.g. the user name under ``user``) is
    optional — the storage tier picks a default per level (a unique id
    for ``session``, a shared one otherwise).
    """
    level, _, tenant = scope.partition(":")
    level = level.strip().lower()
    tenant = tenant.strip()
    if level not in SCOPE_LEVELS:
        raise ConfigError(
            f"storage scope level must be one of {', '.join(SCOPE_LEVELS)} "
            f"(optionally 'level:tenant'); got {scope!r}"
        )
    return level, tenant or None


@dataclass(frozen=True)
class EngineConfig:
    """Planner and runtime knobs of the decomposed engine.

    Attributes:
        page_size: rows requested per enumeration page.
        lookup_batch_size: entities per batched lookup/judge call.
        votes: samples per lookup batch for self-consistency voting
            (1 disables voting).
        temperature: decoding temperature for retrieval calls.  Voting
            requires > 0 to obtain independent samples.
        enable_pushdown: ship single-table predicates inside scan prompts
            instead of filtering retrieved supersets locally.
        enable_lookup_join: allow key-lookup fetching for equi-joins on a
            virtual table's primary key (otherwise both sides are
            scanned and joined locally).
        enable_order_pushdown: allow ORDER BY ... LIMIT plans to request
            model-side ordering and stop enumerating early.
        enable_streaming: consume eligible scans/lookups as early-exit
            row streams.  Single-step LIMIT plans whose filter must run
            locally (so ``limit_hint`` would be unsound) and EXISTS
            subqueries install a row quota; the executor pulls pages
            until exact local compute over the fetched prefix already
            yields the quota, then closes the stream.  Results are
            byte-identical to materialized execution (the streamed
            pages are a prefix of the pages the materialized path would
            fetch); only the page/call count drops.  A stream cut short
            writes back a partial-coverage (prefix) fragment when the
            storage tier is materializing, so early exit never poisons
            the cache and a later wider scan resumes from the prefix.
        enable_cache: reuse completions for repeated identical prompts.
        enable_judge: evaluate non-pushed single-table predicates with
            batched judgement calls instead of retrieving the predicate
            columns (an extension; saves tokens when predicate columns
            are not otherwise needed).
        enable_validation: apply schema/range validators to retrieved
            cells, nulling implausible values.
        max_retries: re-issues of a refused/unusable completion before
            giving up on a call.
        max_output_tokens: completion budget per call.
        scan_guard_factor: abort a scan after this multiple of the
            estimated page count (protects against runaway pagination).
        max_in_flight: concurrent model calls the runtime dispatcher may
            keep open.  1 (the default) runs every call inline and
            sequentially; larger values overlap independent calls —
            vote samples, lookup/judge batches, prefetched scan pages,
            independent plan steps — changing reported wall-clock
            (``wall_ms``) but, by construction, never results, token
            usage, or call counts.
        scan_prefetch_pages: speculative pages a scan may keep in
            flight beyond the one it is reading (effective only when
            ``max_in_flight > 1``; capped at ``max_in_flight - 1``).
            Speculation is un-metered unless consumed, so a wrong guess
            costs nothing in tokens.
        serve_jobs: default number of statements the concurrent serving
            layer (``Engine.execute_many``, CLI ``--jobs``) admits at
            once against one session.  All admitted queries share the
            single ``max_in_flight`` dispatcher budget and the
            cross-query single-flight registry; per-query results are
            byte-identical to serial execution at any value.
        scan_shards: partition large scans into this many independent
            page chains (key-range shards over the enumeration cursor).
            1 (the default) keeps the single sequential chain; larger
            values fan shards out through the dispatcher and merge the
            results deterministically (stable shard-order concatenation),
            so rows are byte-identical to unsharded execution on clean
            protocol runs.  Aggregate-only queries additionally push
            COUNT/SUM/MIN/MAX/AVG into per-shard partial states merged
            with algebraic combiners.
        shard_min_rows: minimum estimated rows per shard; the planner
            caps the shard count so no shard is expected to fetch fewer
            rows than this (small tables stay unsharded).
        retry_backoff_ms: base delay before the first retry of a
            refused/unusable completion, doubling per further retry.
            0 disables backoff (right for the simulated model; a
            networked backend would set a real base).
        storage_mode: the adaptive materialization tier
            (:mod:`repro.storage`).  ``off`` disables it; ``result_cache``
            serves repeated queries from a normalized query-result cache;
            ``materialize`` additionally writes retrieved scan/lookup
            fragments into a local fragment store and routes later
            scans/lookups to them (partial coverage triggers a residual
            fetch of only the missing rows/columns).  Storage only serves
            under deterministic configurations (``votes == 1`` and
            ``temperature == 0``), so results stay byte-identical to the
            storage-off engine.
        storage_budget_bytes: approximate byte budget for each storage
            tier store; least-recently-used entries are evicted beyond it.
        storage_ttl_s: seconds before a stored fragment/result expires
            (0 disables expiry).  Useful when the backing model may be
            updated underneath a long-lived session.
        storage_backend: where the storage tier keeps its entries.
            ``memory`` (the default) dies with the process; ``sqlite``
            persists them in a single process-safe WAL-mode file at
            ``storage_path``, so a restarted process serves a repeated
            workload with ~0 model calls and concurrent processes share
            one warm tier.  An unusable file degrades gracefully to
            ``memory`` with a note — never an error.
        storage_path: filesystem path of the persistent store (required
            when ``storage_backend='sqlite'``).
        storage_scope: multi-tenant access level of this engine's
            entries — ``session`` | ``user`` | ``application``,
            optionally ``'level:tenant'`` (e.g. ``'user:alice'``).
            Scopes are strictly isolated: a scope never serves another
            scope's entries, and the (model identity, semantic config)
            fragment scope nests inside it.  ``session`` without a
            tenant gets a unique id per tier, so two sessions never
            share; ``user``/``application`` default to a shared tenant.
        scope_ttl_s: per-scope-level TTL defaults overriding
            ``storage_ttl_s``, as a mapping (or tuple of pairs) from
            level to seconds, e.g. ``{"session": 0, "user": 3600}``.
        enable_tracing: collect a structured span tree per query (parse
            / bind / optimize / plan steps / dispatcher flights /
            storage probes) with deterministic simulated timestamps,
            and activate the session metrics registry.  Off by default:
            the engine then runs against a shared no-op tracer, so
            instrumentation costs one attribute check per site and
            results, usage totals, and wall accounting are untouched
            either way.
        transport: which model transport assemblers (the CLI, demos)
            should build — ``simulated`` (in-process), ``openai``
            (HTTP chat-completions, online only with an API key), or
            ``llamacpp`` (local ``llama-server``, online only with a
            server URL).  Network transports without credentials
            delegate every request to the deterministic in-process
            fallback model, so results are byte-identical offline.
            Advisory for code that constructs its own model object.
        transport_url: endpoint override for network transports (the
            OpenAI-style base URL or the llama-server root).
        enable_continuous_batching: pool raw model calls from *all*
            in-flight queries of the session into shared slot-based
            batches (the llama.cpp ``examples/parallel`` serving
            model) instead of per-query waves.  Results, tokens, and
            call counts are byte-identical at any setting; only the
            wall-clock (and real elapsed time on latency-bound
            transports) changes.
        batch_slots: size of the continuous-batching request pool —
            how many raw model calls from all queries may be in flight
            at once (each frees its slot when it lands), and how many
            wire threads blocking transports get.
            Decoupled from ``max_in_flight`` (a per-query dispatch
            width) exactly as llama.cpp's ``n_parallel`` is decoupled
            from per-client concurrency.
        slow_query_ms: record statements whose simulated wall time
            meets this threshold (statement, wall, top-3 slowest spans)
            into the session's slow-query log, surfaced by the
            ``.metrics`` REPL command and batch summaries.  Implies
            tracing.  0 disables the log.
        enable_adaptive: let the optimizer consult the online
            statistics catalog (observed table cardinalities and
            predicate selectivities from earlier executions) ahead of
            static ``row_estimate`` hints, and allow mid-query
            re-planning of streamed scans whose observed selectivity
            diverges from the estimate by more than
            ``replan_threshold``.  Off (the default) keeps planning
            byte- and cost-identical to the static engine; the catalog
            still *records* observations either way (``.stats``).
            Adaptive plans return byte-identical rows — only call/page
            counts and plan shape may differ.
        replan_threshold: divergence factor that triggers a mid-query
            re-plan of a streamed scan — fire when the estimated
            residual selectivity over- or under-shoots the observed
            one by at least this multiple.  Must be > 1.
    """

    page_size: int = 20
    lookup_batch_size: int = 16
    votes: int = 1
    temperature: float = 0.0
    enable_pushdown: bool = True
    enable_lookup_join: bool = True
    enable_order_pushdown: bool = True
    enable_streaming: bool = True
    enable_cache: bool = True
    enable_judge: bool = False
    enable_validation: bool = True
    max_retries: int = 2
    max_output_tokens: int = 512
    scan_guard_factor: int = 8
    max_in_flight: int = 1
    scan_prefetch_pages: int = 2
    serve_jobs: int = 4
    scan_shards: int = 1
    shard_min_rows: int = 32
    retry_backoff_ms: float = 0.0
    storage_mode: str = "off"
    storage_budget_bytes: int = 8_000_000
    storage_ttl_s: float = 0.0
    storage_backend: str = "memory"
    storage_path: Optional[str] = None
    storage_scope: str = "session"
    scope_ttl_s: Optional[Tuple[Tuple[str, float], ...]] = None
    enable_tracing: bool = False
    slow_query_ms: float = 0.0
    transport: str = "simulated"
    transport_url: Optional[str] = None
    enable_continuous_batching: bool = False
    batch_slots: int = 32
    enable_adaptive: bool = False
    replan_threshold: float = 4.0

    def __post_init__(self):
        if self.transport not in TRANSPORTS:
            raise ConfigError(
                f"transport must be one of {', '.join(TRANSPORTS)}; "
                f"got {self.transport!r}"
            )
        if self.storage_mode not in STORAGE_MODES:
            raise ConfigError(
                f"storage_mode must be one of {', '.join(STORAGE_MODES)}; "
                f"got {self.storage_mode!r}"
            )
        if self.storage_backend not in STORAGE_BACKENDS:
            raise ConfigError(
                f"storage_backend must be one of {', '.join(STORAGE_BACKENDS)}; "
                f"got {self.storage_backend!r}"
            )
        if self.storage_backend == "sqlite" and not self.storage_path:
            raise ConfigError(
                "storage_backend='sqlite' requires storage_path "
                "(the store file shared across processes)"
            )
        parse_storage_scope(self.storage_scope)
        if self.scope_ttl_s is not None:
            # Accept any mapping or pair-iterable; store a canonical
            # sorted tuple so the frozen config stays hashable.
            pairs = (
                self.scope_ttl_s.items()
                if isinstance(self.scope_ttl_s, Mapping)
                else self.scope_ttl_s
            )
            normalized = []
            for level, ttl in pairs:
                level = str(level).strip().lower()
                if level not in SCOPE_LEVELS:
                    raise ConfigError(
                        f"scope_ttl_s level must be one of "
                        f"{', '.join(SCOPE_LEVELS)}; got {level!r}"
                    )
                ttl = float(ttl)
                if ttl < 0:
                    raise ConfigError(
                        f"scope_ttl_s[{level!r}] must be >= 0; got {ttl}"
                    )
                normalized.append((level, ttl))
            object.__setattr__(
                self, "scope_ttl_s", tuple(sorted(dict(normalized).items()))
            )
        if self.storage_budget_bytes <= 0:
            raise ConfigError(
                f"storage_budget_bytes must be positive; "
                f"got {self.storage_budget_bytes}"
            )
        if self.storage_ttl_s < 0:
            raise ConfigError(
                f"storage_ttl_s must be >= 0; got {self.storage_ttl_s}"
            )
        if self.slow_query_ms < 0:
            raise ConfigError(
                f"slow_query_ms must be >= 0; got {self.slow_query_ms}"
            )
        if self.replan_threshold <= 1.0:
            raise ConfigError(
                f"replan_threshold must be > 1; got {self.replan_threshold}"
            )
        for name, minimum in (
            ("page_size", 1),
            ("lookup_batch_size", 1),
            ("votes", 1),
            ("max_in_flight", 1),
            ("serve_jobs", 1),
            ("max_output_tokens", 1),
            ("scan_shards", 1),
            ("shard_min_rows", 1),
            ("batch_slots", 1),
        ):
            if getattr(self, name) < minimum:
                raise ConfigError(
                    f"{name} must be >= {minimum}; got {getattr(self, name)}"
                )

    @staticmethod
    def default() -> "EngineConfig":
        return EngineConfig()

    @staticmethod
    def naive() -> "EngineConfig":
        """The unoptimized decomposed engine: fetch everything, locally."""
        return EngineConfig(
            enable_pushdown=False,
            enable_lookup_join=False,
            enable_order_pushdown=False,
            enable_streaming=False,
            enable_cache=False,
            enable_judge=False,
            votes=1,
            lookup_batch_size=1,
        )

    def with_(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
