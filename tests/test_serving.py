"""Tests for the concurrent multi-query serving layer.

Covers the scheduler primitives (admission order, cancellation,
flight budget, batch makespan), cross-query single-flight dedup and its
semantic-fingerprint scoping, per-query usage attribution (child meters
sum to the session meter exactly), the wall-clock fix for interleaved
queries, and the top-level guarantee: ``execute_many`` — and raw
threads sharing one session — return results byte-identical to serial
execution across storage modes, shard counts, and streaming.
"""

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.runtime.dispatcher as dispatcher_module
from repro.config import EngineConfig
from repro.core.operators import ModelClient
from repro.core.validation import Validator
from repro.errors import QueryCancelled
from repro.llm.accounting import UsageMeter
from repro.llm.cache import PromptCache
from repro.llm.interface import CompletionOptions
from repro.llm.noise import NoiseConfig
from repro.llm.simulated import SimulatedLLM
from repro.llm.transport import LlamaCppTransport, SimulatedTransport
from repro.runtime.batching import ContinuousBatcher
from repro.runtime.dispatcher import (
    CompletionRequest,
    Dispatcher,
    get_event_loop_core,
)
from repro.runtime.retry import RetryPolicy
from repro.runtime.scheduler import (
    CancellationToken,
    CrossQueryDedup,
    FlightBudget,
    QueryScheduler,
    batch_makespan,
)
from tests.conftest import make_engine

WORKLOAD = [
    "SELECT name, population FROM countries WHERE continent = 'Europe' "
    "ORDER BY population DESC",
    "SELECT COUNT(*) FROM cities",
    "SELECT c.city, k.population FROM cities c JOIN countries k "
    "ON c.country = k.name WHERE c.is_capital = TRUE",
    "SELECT name FROM countries WHERE continent = 'Europe'",
    "SELECT COUNT(*) FROM cities",  # duplicate: overlaps with query 2
    "SELECT AVG(gdp) FROM countries",
]


def typed_rows(result):
    """Rows as (type, value) pairs: byte-identity means types too."""
    return tuple(
        tuple((type(value), value) for value in row) for row in result.rows
    )


def fresh_engine(mini_world, config):
    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    return make_engine(model, mini_world, config)


def serial_reference(mini_world, config, statements):
    engine = fresh_engine(mini_world, config)
    return [typed_rows(engine.execute(sql)) for sql in statements], engine


class SleepingModel:
    """Adds real latency per raw call so queries genuinely overlap."""

    def __init__(self, inner, sleep_s: float = 0.0):
        self._inner = inner
        self._sleep_s = sleep_s
        self._lock = threading.Lock()
        self.raw_calls = 0
        self.open_calls = 0
        self.max_open_calls = 0

    @property
    def model_name(self) -> str:
        return self._inner.model_name

    def complete(self, prompt, options=CompletionOptions()):
        with self._lock:
            self.raw_calls += 1
            self.open_calls += 1
            self.max_open_calls = max(self.max_open_calls, self.open_calls)
        try:
            if self._sleep_s > 0:
                time.sleep(self._sleep_s)
            return self._inner.complete(prompt, options)
        finally:
            with self._lock:
                self.open_calls -= 1


def blocking_transport(model):
    """The shipped llama.cpp transport, offline: every call blocks in
    ``model.complete`` on an executor thread, as an HTTP call would."""
    return LlamaCppTransport(fallback_model=model, offline=True)


@pytest.fixture
def narrow_default_executor(monkeypatch):
    """Swap in a shared event-loop core whose default executor has two
    workers, so thread starvation shows the same on every host
    whatever its CPU count."""
    core = dispatcher_module.EventLoopCore()
    executor = ThreadPoolExecutor(max_workers=2, thread_name_prefix="narrow")
    core.loop.set_default_executor(executor)
    monkeypatch.setattr(dispatcher_module, "_shared_core", core)
    yield core
    core.close()
    executor.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Scheduler primitives
# ---------------------------------------------------------------------------


def test_cancellation_token_deadline_and_explicit_cancel():
    clock = {"now": 0.0}
    token = CancellationToken(timeout_s=5.0, clock=lambda: clock["now"])
    token.check()  # within deadline: no-op
    clock["now"] = 5.1
    assert token.cancelled
    with pytest.raises(QueryCancelled, match="timed out after 5"):
        token.check()

    token = CancellationToken()
    token.check()
    token.cancel("caller gave up")
    with pytest.raises(QueryCancelled, match="caller gave up"):
        token.check()


def test_flight_budget_slot_released_on_error():
    budget = FlightBudget(1)
    with pytest.raises(RuntimeError):
        with budget.slot():
            raise RuntimeError("boom")
    with budget.slot():
        pass  # the permit came back


def test_flight_budget_acquire_aborts_on_cancellation():
    budget = FlightBudget(1)
    token = CancellationToken()
    token.cancel()
    with budget.slot():  # hold the only permit
        with pytest.raises(QueryCancelled):
            with budget.slot(token):
                pass


def test_flight_budget_async_wait_aborts_on_cancellation():
    budget = FlightBudget(1)
    token = CancellationToken()

    async def wait_for_slot(cancel):
        async with budget.slot_async(cancel):
            pass

    core = get_event_loop_core()
    with budget.slot():  # hold the only permit
        waiting = core.submit(wait_for_slot(token))
        time.sleep(0.05)
        assert not waiting.done()
        token.cancel("caller gave up")
        with pytest.raises(QueryCancelled, match="caller gave up"):
            waiting.result(timeout=5)
    core.run(wait_for_slot(None), timeout=5)  # the permit came back


def test_flight_budget_caps_threads_and_coroutines_together():
    """Threads and loop coroutines contending for 3 slots never hold
    more than 3 at once, and every slot comes back."""
    budget = FlightBudget(3)
    lock = threading.Lock()
    holders = {"now": 0, "peak": 0}

    def enter():
        with lock:
            holders["now"] += 1
            holders["peak"] = max(holders["peak"], holders["now"])

    def leave():
        with lock:
            holders["now"] -= 1

    def thread_worker():
        for _ in range(200):
            with budget.slot():
                enter()
                time.sleep(0)
                leave()

    async def coroutine_worker():
        for _ in range(200):
            async with budget.slot_async(CancellationToken()):
                enter()
                await asyncio.sleep(0)
                leave()

    core = get_event_loop_core()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=thread_worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        coroutines = [core.submit(coroutine_worker()) for _ in range(8)]
        for future in coroutines:
            future.result(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert holders == {"now": 0, "peak": 3}
    assert budget._free == 3 and not budget._waiters


#: Sixteen overlapping multi-page scans for the blocking-wire stall test.
STALL_WORKLOAD = [
    sql
    for continent in ("Europe", "Asia", "Africa", "South America")
    for sql in (
        f"SELECT name, population FROM countries WHERE continent = '{continent}'",
        f"SELECT city FROM cities WHERE city_pop > {len(continent) * 100}",
        f"SELECT COUNT(*) FROM countries WHERE continent <> '{continent}'",
        f"SELECT city, country FROM cities WHERE country <> '{continent}'",
    )
]


def test_slot_waits_never_starve_blocking_transports(
    mini_world, narrow_default_executor
):
    """Speculative page fetches wait for a flight slot on the loop.

    Parked on the loop's default executor instead, those waits took
    the threads the slot holders need for their blocking transport
    calls, and overlapping queries stalled until they timed out.
    """
    config = EngineConfig().with_(max_in_flight=8, page_size=2)
    raw = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    expected, _ = serial_reference(mini_world, config, STALL_WORKLOAD)
    transport = blocking_transport(SleepingModel(raw, sleep_s=0.03))
    engine = make_engine(transport, mini_world, config)
    outcomes = engine.execute_many(
        STALL_WORKLOAD, jobs=8, timeout_s=5.0, collect_outcomes=True
    )
    assert [outcome.status for outcome in outcomes] == ["ok"] * 16
    assert [typed_rows(outcome.result) for outcome in outcomes] == expected


def test_cross_query_dedup_lease_and_release():
    registry = CrossQueryDedup()
    leader = object()
    assert registry.lease(("scope", "p", 0), leader) is None
    assert registry.lease(("scope", "p", 0), object()) is leader
    assert registry.joins == 1
    # A different scope for the same prompt never joins.
    assert registry.lease(("other", "p", 0), object()) is None
    registry.release(("scope", "p", 0), object())  # wrong owner: kept
    assert len(registry) == 2
    registry.release(("scope", "p", 0), leader)
    assert len(registry) == 1


def test_batch_makespan_bounds():
    # jobs=1 is serial: the sum, not the max.
    assert batch_makespan([10.0, 20.0], 0.0, jobs=1, max_in_flight=4) == 30.0
    # Wide enough admission: the longest chain.
    assert batch_makespan([10.0, 20.0], 0.0, jobs=2, max_in_flight=4) == 20.0
    # The dispatcher budget binds when chains would over-overlap.
    assert batch_makespan(
        [10.0, 10.0, 10.0, 10.0], 100.0, jobs=4, max_in_flight=2
    ) == 50.0
    assert batch_makespan([], 0.0, jobs=4, max_in_flight=4) == 0.0


def test_scheduler_priority_overrides_fifo_within_jobs_1():
    order = []
    meter = UsageMeter()

    def runner(statement, _meter, _cancel):
        order.append(statement)
        return statement

    scheduler = QueryScheduler(runner, meter, jobs=1)
    outcomes = scheduler.execute(
        ["low-a", "high", "low-b"], priorities=[0, 5, 0]
    )
    assert order == ["high", "low-a", "low-b"]  # priority, then FIFO
    # Outcomes still come back in submission order.
    assert [outcome.statement for outcome in outcomes] == [
        "low-a",
        "high",
        "low-b",
    ]
    assert all(outcome.ok for outcome in outcomes)


def test_scheduler_argument_validation():
    scheduler = QueryScheduler(lambda s, m, c: s, UsageMeter(), jobs=2)
    with pytest.raises(ValueError, match="priorities"):
        scheduler.execute(["a", "b"], priorities=[1])
    with pytest.raises(ValueError, match="timeout_s"):
        scheduler.execute(["a", "b"], timeout_s=[1.0])


def test_scheduler_explicit_cancel_via_job_handle():
    started = threading.Event()

    def runner(statement, _meter, cancel):
        if statement == "victim":
            started.set()
            for _ in range(200):
                cancel.check()
                time.sleep(0.005)
            raise AssertionError("cancellation never landed")
        return statement

    scheduler = QueryScheduler(runner, UsageMeter(), jobs=2)

    def cancel_victim():
        assert started.wait(timeout=5.0)
        for job in scheduler.admitted:
            if job.statement == "victim":
                job.request_cancel("operator cancelled")

    canceller = threading.Thread(target=cancel_victim)
    canceller.start()
    outcomes = scheduler.execute(["victim", "bystander"])
    canceller.join()
    assert outcomes[0].status == "cancelled"
    assert "operator cancelled" in str(outcomes[0].error)
    assert outcomes[1].status == "ok"


def test_scheduler_cancel_while_queued_is_not_lost():
    ran = []

    def runner(statement, _meter, cancel):
        cancel.check()
        if statement == "first":
            # Cancel the still-queued second job from inside the first:
            # with jobs=1 it has no token yet, so this exercises the
            # pending-cancel path.
            for job in scheduler.admitted:
                if job.statement == "second":
                    job.request_cancel("cancelled while queued")
        ran.append(statement)
        return statement

    scheduler = QueryScheduler(runner, UsageMeter(), jobs=1)
    outcomes = scheduler.execute(["first", "second"])
    assert outcomes[0].status == "ok"
    assert outcomes[1].status == "cancelled"
    assert "cancelled while queued" in str(outcomes[1].error)
    assert ran == ["first"]  # the cancelled query never executed


def test_scheduler_isolates_per_query_failures():
    def runner(statement, _meter, _cancel):
        if statement == "bad":
            raise RuntimeError("query exploded")
        return statement.upper()

    scheduler = QueryScheduler(runner, UsageMeter(), jobs=2)
    outcomes = scheduler.execute(["ok", "bad", "also ok"])
    assert [outcome.status for outcome in outcomes] == ["ok", "error", "ok"]
    assert outcomes[0].result == "OK"
    assert isinstance(outcomes[1].error, RuntimeError)
    assert outcomes[2].result == "ALSO OK"


# ---------------------------------------------------------------------------
# Cross-query single-flight through the dispatcher
# ---------------------------------------------------------------------------


class GatedModel:
    """A model whose calls block until released — forces true overlap."""

    model_name = "gated-test-model"

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, options=CompletionOptions()):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=5.0), "gate never released"
        from repro.llm.interface import Completion

        return Completion(
            text=f"answer:{prompt}:{options.sample_index}",
            prompt_tokens=7,
            completion_tokens=3,
            latency_ms=10.0,
        )


def make_query_dispatcher(model, shared, scope, cache, meter):
    """The per-query stack the engine builds, minus the engine."""
    from repro.llm.accounting import MeteredModel
    from repro.llm.cache import CachingModel
    from repro.runtime.latency import LatencyLedger

    caching = CachingModel(model, cache)
    metered = MeteredModel(caching, meter, track_wall=False)
    return Dispatcher(
        model=metered,
        options_for=lambda i: CompletionOptions(sample_index=i),
        retry=RetryPolicy(max_attempts=2),
        max_in_flight=4,
        ledger=LatencyLedger(on_commit=meter.add_wall_ms),
        raw_model=model,
        cache=cache,
        meter=meter,
        shared=shared,
        dedup_scope=scope,
    )


def req(prompt):
    return CompletionRequest(
        prompt=prompt, sample_index=0, parse=lambda c: c.text
    )


def test_cross_query_follower_joins_and_pays_zero_tokens():
    model = GatedModel()
    shared = CrossQueryDedup()
    cache = PromptCache()
    meter_a, meter_b = UsageMeter(), UsageMeter()
    query_a = make_query_dispatcher(model, shared, ("m", "cfg"), cache, meter_a)
    query_b = make_query_dispatcher(model, shared, ("m", "cfg"), cache, meter_b)
    try:
        leader = query_a.submit(req("scan page 1"))
        assert model.started.wait(timeout=5.0)  # A's call is in flight
        follower = query_b.submit(req("scan page 1"))
        model.release.set()
        assert leader.result(timeout=5.0).value == follower.result(timeout=5.0).value
    finally:
        query_a.close()
        query_b.close()
    assert model.calls == 1  # paid once across the two queries
    assert shared.joins == 1
    assert query_b.stats.cross_query_deduplicated == 1
    # The leader paid the tokens; the follower recorded a zero-cost
    # call plus the dedup attribution.
    assert meter_a.snapshot().total_tokens == 10
    assert meter_b.snapshot().total_tokens == 0
    assert meter_b.snapshot().calls == 1
    assert meter_b.snapshot().dedup_hits == 1
    assert meter_a.snapshot().dedup_hits == 0


def test_failed_leader_join_counts_no_dedup_hit():
    from repro.errors import LLMProtocolError

    model = GatedModel()
    shared = CrossQueryDedup()
    cache = PromptCache()
    meter_a, meter_b = UsageMeter(), UsageMeter()
    query_a = make_query_dispatcher(model, shared, ("m", "cfg"), cache, meter_a)
    query_b = make_query_dispatcher(model, shared, ("m", "cfg"), cache, meter_b)

    def failing_parse(_completion):
        raise LLMProtocolError("unusable")

    try:
        leader = query_a.submit(
            CompletionRequest(
                prompt="scan page 1", sample_index=0, parse=failing_parse
            )
        )
        assert model.started.wait(timeout=5.0)
        follower = query_b.submit(req("scan page 1"))
        model.release.set()
        with pytest.raises(Exception, match="unusable"):
            leader.result(timeout=5.0)
        # The follower still completes (its replay re-runs the request
        # through its own stack) — but the join saved nothing it can
        # prove, so no dedup hit is attributed.
        assert follower.result(timeout=5.0).value.startswith("answer:")
    finally:
        query_a.close()
        query_b.close()
    assert meter_b.snapshot().dedup_hits == 0


def test_cache_less_dispatchers_never_join_the_shared_registry():
    # Without a shared cache a join can never save anything: the
    # follower would wait out the leader and then re-pay full price.
    model = GatedModel()
    shared = CrossQueryDedup()
    meter_a, meter_b = UsageMeter(), UsageMeter()
    query_a = make_query_dispatcher(model, shared, ("m", "cfg"), None, meter_a)
    query_b = make_query_dispatcher(model, shared, ("m", "cfg"), None, meter_b)
    try:
        first = query_a.submit(req("scan page 1"))
        assert model.started.wait(timeout=5.0)
        second = query_b.submit(req("scan page 1"))
        time.sleep(0.05)
        model.release.set()
        first.result(timeout=5.0)
        second.result(timeout=5.0)
    finally:
        query_a.close()
        query_b.close()
    assert len(shared) == 0
    assert shared.joins == 0
    assert model.calls == 2  # both led independently, as sequential would
    assert meter_b.snapshot().dedup_hits == 0


def test_cross_query_dedup_never_crosses_semantic_fingerprints():
    model = GatedModel()
    shared = CrossQueryDedup()
    meter_a, meter_b = UsageMeter(), UsageMeter()
    # Same prompt, same shared registry — but differing scopes (e.g.
    # different validation or page-size fingerprints).
    query_a = make_query_dispatcher(
        model, shared, ("m", "cfg-a"), PromptCache(), meter_a
    )
    query_b = make_query_dispatcher(
        model, shared, ("m", "cfg-b"), PromptCache(), meter_b
    )
    try:
        first = query_a.submit(req("scan page 1"))
        assert model.started.wait(timeout=5.0)
        second = query_b.submit(req("scan page 1"))
        time.sleep(0.05)  # give a (wrong) join the chance to happen
        model.release.set()
        first.result(timeout=5.0)
        second.result(timeout=5.0)
    finally:
        query_a.close()
        query_b.close()
    assert model.calls == 2  # both scopes paid their own call
    assert shared.joins == 0
    assert meter_a.snapshot().total_tokens == 10
    assert meter_b.snapshot().total_tokens == 10
    assert meter_b.snapshot().dedup_hits == 0


# ---------------------------------------------------------------------------
# Engine-level serving
# ---------------------------------------------------------------------------

CONFIG_MATRIX = [
    pytest.param(EngineConfig().with_(page_size=4), id="plain"),
    pytest.param(
        EngineConfig().with_(page_size=4, max_in_flight=4), id="concurrent"
    ),
    pytest.param(
        EngineConfig().with_(page_size=4, storage_mode="result_cache"),
        id="result-cache",
    ),
    pytest.param(
        EngineConfig().with_(
            page_size=4, max_in_flight=4, storage_mode="materialize"
        ),
        id="materialize",
    ),
    pytest.param(
        EngineConfig().with_(
            page_size=4, max_in_flight=4, scan_shards=3, shard_min_rows=2
        ),
        id="sharded",
    ),
    pytest.param(
        EngineConfig().with_(page_size=4, enable_streaming=False),
        id="no-streaming",
    ),
]


@pytest.mark.parametrize("config", CONFIG_MATRIX)
def test_execute_many_byte_identical_to_serial(mini_world, config):
    expected, _ = serial_reference(mini_world, config, WORKLOAD)
    engine = fresh_engine(mini_world, config)
    results = engine.execute_many(WORKLOAD, jobs=4)
    assert [typed_rows(result) for result in results] == expected


def test_threads_sharing_one_session_byte_identical(mini_world):
    config = EngineConfig().with_(page_size=4, max_in_flight=4)
    expected, _ = serial_reference(mini_world, config, WORKLOAD)
    engine = fresh_engine(mini_world, config)
    results = [None] * len(WORKLOAD)

    def run(index):
        results[index] = typed_rows(engine.execute(WORKLOAD[index]))

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(len(WORKLOAD))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == expected


def test_per_query_meters_sum_to_session_meter(mini_world):
    config = EngineConfig().with_(
        page_size=4, max_in_flight=4, storage_mode="materialize"
    )
    engine = fresh_engine(mini_world, config)
    results = engine.execute_many(WORKLOAD, jobs=3)
    session = engine.usage
    for name in (
        "calls",
        "prompt_tokens",
        "completion_tokens",
        "pages_fetched",
        "pages_skipped",
        "sharded_scans",
        "shard_chains",
        "result_cache_hits",
        "fragment_hits",
        "calls_saved",
        "dedup_hits",
    ):
        assert sum(getattr(r.usage, name) for r in results) == getattr(
            session, name
        ), name
    assert sum(r.usage.latency_ms for r in results) == pytest.approx(
        session.latency_ms
    )
    assert sum(r.usage.cost_usd for r in results) == pytest.approx(
        session.cost_usd
    )


def test_session_wall_is_batch_critical_path_not_sum(mini_world):
    config = EngineConfig().with_(page_size=4, max_in_flight=4)
    engine = fresh_engine(mini_world, config)
    outcomes = engine.execute_many(WORKLOAD, jobs=3, collect_outcomes=True)
    walls = [outcome.usage.wall_ms for outcome in outcomes]
    session_wall = engine.usage.wall_ms
    assert max(walls) > 0
    # Overlap: the batch's elapsed critical path, never the sum of
    # per-query chains (that would double-count overlapped time) and
    # never less than the longest chain or the budget bound.
    assert session_wall < sum(walls)
    total_model_ms = sum(outcome.usage.latency_ms for outcome in outcomes)
    assert session_wall == pytest.approx(
        batch_makespan(walls, total_model_ms, jobs=3, max_in_flight=4)
    )
    assert session_wall >= max(walls)
    assert session_wall >= total_model_ms / 4 - 1e-6


def test_jobs_1_wall_equals_serial_sum(mini_world):
    config = EngineConfig().with_(page_size=4)
    engine = fresh_engine(mini_world, config)
    outcomes = engine.execute_many(WORKLOAD, jobs=1, collect_outcomes=True)
    assert engine.usage.wall_ms == pytest.approx(
        sum(outcome.usage.wall_ms for outcome in outcomes)
    )
    serial_engine = fresh_engine(mini_world, config)
    for sql in WORKLOAD:
        serial_engine.execute(sql)
    assert engine.usage.wall_ms == pytest.approx(serial_engine.usage.wall_ms)
    assert engine.usage.calls == serial_engine.usage.calls
    assert engine.usage.total_tokens == serial_engine.usage.total_tokens


def test_overlapping_queries_pay_shared_traffic_once(mini_world):
    config = EngineConfig().with_(page_size=4, max_in_flight=8)
    serial_rows, serial_engine = serial_reference(
        mini_world, config, ["SELECT COUNT(*) FROM cities"] * 4
    )
    raw = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    model = SleepingModel(raw, sleep_s=0.05)
    engine = make_engine(model, mini_world, config)
    results = engine.execute_many(["SELECT COUNT(*) FROM cities"] * 4, jobs=4)
    assert [typed_rows(result) for result in results] == serial_rows
    # The scan was paid for exactly once across the four queries: same
    # raw-model traffic as the serial session (where queries 2-4 were
    # prompt-cache hits), and the overlap shows up as dedup joins.
    assert engine.usage.total_tokens == serial_engine.usage.total_tokens
    assert engine.usage.calls == serial_engine.usage.calls
    assert engine.usage.dedup_hits > 0


def test_flight_budget_caps_open_calls_across_queries(mini_world):
    config = EngineConfig().with_(page_size=4, max_in_flight=2)
    raw = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    model = SleepingModel(raw, sleep_s=0.01)
    engine = make_engine(model, mini_world, config)
    engine.execute_many(WORKLOAD, jobs=6)
    assert model.max_open_calls <= 2


def test_per_query_timeout_cancels_only_that_query(mini_world):
    config = EngineConfig().with_(page_size=2)
    raw = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    model = SleepingModel(raw, sleep_s=0.08)
    engine = make_engine(model, mini_world, config)
    outcomes = engine.execute_many(
        [
            "SELECT name, population, gdp, continent FROM countries",
            "SELECT COUNT(*) FROM cities",
        ],
        jobs=2,
        timeout_s=[0.05, None],
        collect_outcomes=True,
    )
    assert outcomes[0].status == "cancelled"
    assert isinstance(outcomes[0].error, QueryCancelled)
    assert "timed out" in str(outcomes[0].error)
    assert outcomes[1].status == "ok"
    assert len(outcomes[1].result.rows) == 1
    # Default (non-collecting) mode surfaces the cancellation.
    with pytest.raises(QueryCancelled):
        engine.execute_many(
            ["SELECT name, population, gdp, continent FROM countries"],
            jobs=1,
            timeout_s=0.05,
        )


def test_execute_many_raises_first_error_in_statement_order(mini_world):
    config = EngineConfig().with_(page_size=4)
    engine = fresh_engine(mini_world, config)
    with pytest.raises(Exception, match="no_such"):
        engine.execute_many(
            [
                "SELECT COUNT(*) FROM cities",
                "SELECT * FROM no_such_table",
                "SELECT COUNT(*) FROM countries",
            ],
            jobs=2,
        )


def test_serve_jobs_config_validation_and_default(mini_world):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="serve_jobs"):
        EngineConfig(serve_jobs=0)
    config = EngineConfig().with_(page_size=4, serve_jobs=2)
    engine = fresh_engine(mini_world, config)
    results = engine.execute_many(WORKLOAD[:3])  # jobs defaults from config
    assert len(results) == 3


def test_cli_statement_splitter_respects_string_literals():
    from repro.cli import split_statements

    text = (
        "SELECT title FROM movies WHERE title = 'a--b';\n"
        "-- a real comment\n"
        "SELECT title FROM movies WHERE title = 'x;y';  -- trailing\n"
        "SELECT title FROM movies WHERE title = 'it''s; fine';\n"
        'SELECT "a;b" FROM movies;\n'
        'SELECT "a--b" FROM movies;\n'
    )
    assert split_statements(text) == [
        "SELECT title FROM movies WHERE title = 'a--b'",
        "SELECT title FROM movies WHERE title = 'x;y'",
        "SELECT title FROM movies WHERE title = 'it''s; fine'",
        'SELECT "a;b" FROM movies',
        'SELECT "a--b" FROM movies',
    ]
    assert split_statements("  ;; -- only noise\n;") == []


def test_cli_batch_mode(tmp_path, capsys):
    from repro.cli import main

    batch = tmp_path / "queries.sql"
    batch.write_text(
        "SELECT COUNT(*) FROM movies;\n"
        "-- a comment-only line\n"
        "SELECT COUNT(*) FROM movies;\n"
    )
    code = main(
        [
            "--world",
            "movies",
            "--gap",
            "0",
            "--sampling",
            "0",
            "--jobs",
            "2",
            "--batch",
            str(batch),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "-- [1] SELECT COUNT(*) FROM movies" in out
    assert "-- [2] SELECT COUNT(*) FROM movies" in out
    assert "2 ok, 0 failed" in out
    assert "session usage:" in out


def test_cli_batch_reports_per_statement_errors(tmp_path, capsys):
    from repro.cli import main

    batch = tmp_path / "queries.sql"
    batch.write_text(
        "SELECT COUNT(*) FROM movies;\nSELECT * FROM nonexistent;\n"
    )
    code = main(["--world", "movies", "--batch", str(batch)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error:" in out
    assert "1 ok, 1 failed" in out


def test_cli_jobs_requires_batch(capsys):
    from repro.cli import main

    code = main(
        ["--world", "movies", "--jobs", "4", "-c", "SELECT COUNT(*) FROM movies"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "--jobs requires --batch" in captured.err


def test_cli_batch_rejects_undecodable_file(tmp_path, capsys):
    from repro.cli import main

    batch = tmp_path / "queries.sql"
    batch.write_bytes("SELECT 'caf\xe9';".encode("latin-1"))  # not UTF-8
    code = main(["--world", "movies", "--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read batch file" in captured.err


# ---------------------------------------------------------------------------
# Continuous cross-query batching
# ---------------------------------------------------------------------------


def test_continuous_batching_byte_identical_to_serial(mini_world):
    config = EngineConfig().with_(
        enable_continuous_batching=True, batch_slots=8, max_in_flight=4
    )
    expected, _ = serial_reference(mini_world, EngineConfig(), WORKLOAD)
    engine = fresh_engine(mini_world, config)
    try:
        results = engine.execute_many(WORKLOAD, jobs=len(WORKLOAD))
        assert [typed_rows(r) for r in results] == expected
    finally:
        engine.close()


def test_continuous_batching_usage_identical_to_serial(mini_world):
    config = EngineConfig().with_(
        enable_continuous_batching=True, batch_slots=8, max_in_flight=4
    )
    _, serial_engine = serial_reference(mini_world, EngineConfig(), WORKLOAD)
    engine = fresh_engine(mini_world, config)
    try:
        engine.execute_many(WORKLOAD, jobs=len(WORKLOAD))
        a, b = serial_engine.usage, engine.usage
        assert (a.calls, a.prompt_tokens, a.completion_tokens) == (
            b.calls,
            b.prompt_tokens,
            b.completion_tokens,
        )
        assert a.cost_usd == b.cost_usd
        # Same per-call latencies, merged in completion order: equal up
        # to float summation order.
        assert b.latency_ms == pytest.approx(a.latency_ms)
    finally:
        engine.close()


def test_serving_slots_prices_the_batch_pool(mini_world):
    config = EngineConfig().with_(
        enable_continuous_batching=True, batch_slots=16, max_in_flight=4
    )
    engine = fresh_engine(mini_world, config)
    try:
        assert engine._session.serving_slots == 16
    finally:
        engine.close()
    plain = fresh_engine(mini_world, EngineConfig().with_(max_in_flight=4))
    assert plain._session.serving_slots == 4
    assert plain._session.batcher is None


class PacedTransport(SimulatedTransport):
    """Async-native transport: each call sleeps ``delays[prompt]`` s.

    Records the most calls open at once and the order calls finish
    (all on the loop thread, so no lock is needed).
    """

    def __init__(self, model, delays):
        super().__init__(model)
        self.delays = delays
        self.open_calls = 0
        self.max_open_calls = 0
        self.finished = []

    async def complete_async(self, prompt, options=CompletionOptions()):
        self.open_calls += 1
        self.max_open_calls = max(self.max_open_calls, self.open_calls)
        try:
            await asyncio.sleep(self.delays[prompt])
            return self.complete(prompt, options)
        finally:
            self.open_calls -= 1
            self.finished.append(prompt)


def test_batcher_frees_each_slot_when_its_request_lands(mini_world):
    """A fast request admitted beside a slow one completes first."""
    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    transport = PacedTransport(model, {"slow prompt": 0.5, "fast prompt": 0.01})
    batcher = ContinuousBatcher(transport, slots=2)
    try:
        slow = batcher.submit("slow prompt")
        time.sleep(0.05)  # the slow request holds one slot
        fast = batcher.submit("fast prompt")
        fast.result(timeout=10)
        assert not slow.done()
        slow.result(timeout=10)
        assert transport.finished == ["fast prompt", "slow prompt"]
    finally:
        batcher.close()


def test_batcher_refills_freed_slots_without_exceeding_them(mini_world):
    """Six requests over 3 slots: never more than 3 open calls, and the
    short ones cycle through the two slots the long one leaves free."""
    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    delays = {"long prompt": 0.5}
    delays.update({f"short prompt {i}": 0.05 for i in range(5)})
    transport = PacedTransport(model, delays)
    batcher = ContinuousBatcher(transport, slots=3)
    try:
        futures = [batcher.submit(prompt) for prompt in delays]
        for future in futures:
            future.result(timeout=10)
        assert transport.max_open_calls == 3
        assert transport.finished[-1] == "long prompt"
        assert batcher.stats.completed == 6
    finally:
        batcher.close()


def test_blocking_transport_fills_every_slot(mini_world, narrow_default_executor):
    """Wire threads come from the batcher's slot-sized pool: 8 blocking
    calls run at once although the loop's default executor has 2."""
    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    rendezvous = threading.Barrier(8, timeout=5)

    class RendezvousModel(SleepingModel):
        def complete(self, prompt, options=CompletionOptions()):
            rendezvous.wait()  # breaks unless 8 calls are open at once
            return super().complete(prompt, options)

    transport = blocking_transport(RendezvousModel(model))
    batcher = ContinuousBatcher(transport, slots=8)
    try:
        prompts = [f"probe prompt {i}" for i in range(8)]
        futures = [batcher.submit(prompt) for prompt in prompts]
        results = [future.result(timeout=10) for future in futures]
        assert results == [model.complete(prompt) for prompt in prompts]
    finally:
        batcher.close()


def test_cancelled_request_reclaims_slot_without_poisoning_wave(mini_world):
    """A cancelled query's queued slots are reclaimed; co-batched
    requests from other queries complete untouched."""
    import asyncio

    from repro.llm.transport import SimulatedTransport
    from repro.runtime.batching import ContinuousBatcher

    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)

    class SlowWaveTransport(SimulatedTransport):
        async def complete_async(self, prompt, options=CompletionOptions()):
            await asyncio.sleep(0.05)
            return self.complete(prompt, options)

    transport = SlowWaveTransport(model)
    batcher = ContinuousBatcher(transport, slots=8)
    try:
        opts = CompletionOptions()
        blocker = batcher.submit("wave-one blocker", opts)
        time.sleep(0.01)
        doomed_token = CancellationToken()
        doomed_token.cancel("client went away")
        doomed = batcher.submit("doomed prompt", opts, cancel=doomed_token)
        survivor = batcher.submit("survivor prompt", opts)
        with pytest.raises(QueryCancelled, match="client went away"):
            doomed.result(timeout=10)
        assert survivor.result(timeout=10) == transport.complete(
            "survivor prompt", opts
        )
        blocker.result(timeout=10)
        assert batcher.stats.cancelled_reclaimed == 1
        assert batcher.stats.completed == 2
        assert batcher.stats.failed == 0
    finally:
        batcher.close()


def test_timeout_token_reclaimed_by_batcher(mini_world):
    from repro.llm.transport import SimulatedTransport
    from repro.runtime.batching import ContinuousBatcher

    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    batcher = ContinuousBatcher(SimulatedTransport(model), slots=4)
    try:
        expired = CancellationToken(timeout_s=0.0)
        time.sleep(0.001)
        future = batcher.submit("late prompt", CompletionOptions(), cancel=expired)
        with pytest.raises(QueryCancelled, match="timed out"):
            future.result(timeout=10)
        assert batcher.stats.cancelled_reclaimed == 1
    finally:
        batcher.close()


def test_execute_many_timeout_under_continuous_batching(mini_world):
    """The existing per-query timeout semantics survive the batch pool:
    the victim is cancelled, co-batched queries stay byte-identical."""
    config = EngineConfig().with_(
        page_size=2, enable_continuous_batching=True, batch_slots=8
    )
    raw = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    model = SleepingModel(raw, sleep_s=0.08)
    engine = make_engine(model, mini_world, config)
    try:
        outcomes = engine.execute_many(
            [
                "SELECT name, population, gdp, continent FROM countries",
                "SELECT COUNT(*) FROM cities",
            ],
            jobs=2,
            timeout_s=[0.05, None],
            collect_outcomes=True,
        )
        assert outcomes[0].status == "cancelled"
        assert isinstance(outcomes[0].error, QueryCancelled)
        assert outcomes[1].status == "ok"
        reference = fresh_engine(mini_world, EngineConfig()).execute(
            "SELECT COUNT(*) FROM cities"
        )
        assert typed_rows(outcomes[1].result) == typed_rows(reference)
        # The pool survives a cancelled query: the engine keeps serving.
        after = engine.execute("SELECT COUNT(*) FROM cities")
        assert typed_rows(after) == typed_rows(reference)
    finally:
        engine.close()


def test_batcher_isolates_per_request_failures(mini_world):
    from repro.errors import TransportError
    from repro.llm.transport import SimulatedTransport
    from repro.runtime.batching import ContinuousBatcher

    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)

    class FlakyTransport(SimulatedTransport):
        async def complete_async(self, prompt, options=CompletionOptions()):
            if prompt.startswith("explode"):
                raise TransportError("wire melted")
            return self.complete(prompt, options)

    transport = FlakyTransport(model)
    batcher = ContinuousBatcher(transport, slots=8)
    try:
        opts = CompletionOptions()
        bad = batcher.submit("explode now", opts)
        good = batcher.submit("fine prompt", opts)
        with pytest.raises(TransportError, match="wire melted"):
            bad.result(timeout=10)
        assert good.result(timeout=10) == transport.complete("fine prompt", opts)
        assert batcher.stats.failed == 1
        assert batcher.stats.completed == 1
    finally:
        batcher.close()


def test_batcher_rejects_submissions_after_close(mini_world):
    from repro.errors import TransportError
    from repro.llm.transport import SimulatedTransport
    from repro.runtime.batching import ContinuousBatcher

    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    batcher = ContinuousBatcher(SimulatedTransport(model), slots=2)
    batcher.close()
    future = batcher.submit("too late", CompletionOptions())
    with pytest.raises(TransportError):
        future.result(timeout=10)


def test_batching_gate_is_identity_for_results(mini_world):
    from repro.llm.transport import SimulatedTransport
    from repro.runtime.batching import BatchingGate, ContinuousBatcher

    model = SimulatedLLM(mini_world, NoiseConfig.perfect(), seed=5)
    batcher = ContinuousBatcher(SimulatedTransport(model), slots=4)
    try:
        gate = BatchingGate(model, batcher)
        assert gate.model_name == model.model_name
        prompt = "identity probe"
        assert gate.complete(prompt) == model.complete(prompt)
        requests = [(f"probe {i}", CompletionOptions()) for i in range(3)]
        direct = [model.complete(p, o) for p, o in requests]
        assert gate.complete_many(requests) == direct
    finally:
        batcher.close()


def test_event_loop_core_refuses_reentrant_run():
    import asyncio

    from repro.runtime.dispatcher import get_event_loop_core

    core = get_event_loop_core()

    async def nested():
        try:
            core.run(asyncio.sleep(0))
        except RuntimeError:
            return "refused"
        return "allowed"

    assert core.run(nested()) == "refused"
