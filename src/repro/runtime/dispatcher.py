"""Concurrent model-call scheduler.

The dispatcher is the single gate between plan operators and the model
stack (cache → meter).  Operators hand it *waves* — batches of
independent completion requests (vote samples, lookup batches, parallel
plan steps feed it from separate threads) — and get parsed results back
in submission order.

Guarantees:

* **Determinism.**  The simulated model is deterministic per
  ``(prompt, sample_index)``, every request carries both, and parsing
  and retries are per-request, so results are byte-identical to the
  sequential path no matter how workers interleave.  With
  ``max_in_flight <= 1`` the dispatcher runs requests inline, in
  submission order — exactly the old sequential client.
* **Identical cost.**  Concurrency changes wall-clock only.  Token and
  call accounting flows through the same metered/caching stack as
  sequential execution; single-flight deduplication makes concurrent
  duplicates behave like the sequential cache (followers replay through
  the cache after the leader lands, recording the same zero-cost calls
  a sequential second request would).
* **Honest wall-clock.**  Each wave charges the ledger a *makespan*
  computed analytically from simulated latencies under
  ``max_in_flight`` slots (greedy assignment in submission order), so
  the reported critical path is deterministic and respects the
  configured parallelism, not the host's thread timing.

Single-flight followers never occupy a worker slot: they are chained as
callbacks on the leader's future, which makes the bounded pool
deadlock-free by construction (workers only ever call the model).

Event-loop core.  Asynchronous model I/O — transport batch calls,
completion streams, and the continuous batcher's shared request pool
(:mod:`repro.runtime.batching`) — runs on one process-wide asyncio loop
owned by :class:`EventLoopCore`.  The thread-pool path above is a shim
over it: dispatcher workers that bottom out in an async surface hand
the coroutine to the core and block on a plain
:class:`concurrent.futures.Future`, so the pool only ever marshals
results while the loop owns every in-flight wire operation.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Coroutine, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, LLMProtocolError
from repro.llm.cache import PromptCache, resolve_model_name, zero_cost_copy
from repro.llm.interface import Completion, CompletionOptions, LanguageModel
from repro.obs.trace import NOOP_TRACER
from repro.runtime.latency import LatencyLedger, greedy_makespan
from repro.runtime.retry import RetryPolicy
from repro.runtime.scheduler import (
    CancellationToken,
    CrossQueryDedup,
    FlightBudget,
)


class EventLoopCore:
    """One asyncio loop on a dedicated thread, driven from sync code.

    The loop thread starts lazily on first use and runs as a daemon;
    sync callers hand coroutines over with :meth:`submit` (returning a
    :class:`concurrent.futures.Future`) or block on :meth:`run`.  All
    async transport I/O and the continuous batcher's drain task live
    here, making the thread-pool dispatch path a shim that marshals
    results rather than an owner of wire operations.
    """

    def __init__(self, name: str = "repro-async-core"):
        self._name = name
        self._loop = asyncio.new_event_loop()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("event-loop core is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop.run_forever,
                    name=self._name,
                    daemon=True,
                )
                self._thread.start()

    def submit(self, coro: "Coroutine[Any, Any, Any]") -> "Future[Any]":
        """Schedule a coroutine; returns a thread-safe future."""
        try:
            self._ensure_started()
        except BaseException:
            coro.close()  # never leave an un-awaited coroutine behind
            raise
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def run(
        self, coro: "Coroutine[Any, Any, Any]", timeout: Optional[float] = None
    ) -> Any:
        """Run a coroutine to completion from synchronous code.

        Refuses re-entrant use from the loop thread itself — blocking
        the loop on work the loop must execute can only deadlock; async
        callers must ``await`` instead.
        """
        if (
            self._thread is not None
            and threading.current_thread() is self._thread
        ):
            coro.close()
            raise RuntimeError(
                "EventLoopCore.run() called from the loop thread; "
                "await the coroutine instead"
            )
        return self.submit(coro).result(timeout)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a plain callback on the loop thread."""
        self._ensure_started()
        self._loop.call_soon_threadsafe(callback, *args)

    def close(self) -> None:
        """Stop the loop and join its thread (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            thread.join(timeout=5.0)
        self._loop.close()


_shared_core: Optional[EventLoopCore] = None
_shared_core_lock = threading.Lock()


def get_event_loop_core() -> EventLoopCore:
    """The process-wide event-loop core (created on first use).

    Shared deliberately: sessions, transports, and batchers all
    schedule onto one loop, so a process serving many engines still
    owns exactly one async I/O thread.
    """
    global _shared_core
    with _shared_core_lock:
        if _shared_core is None or _shared_core._closed:
            _shared_core = EventLoopCore()
        return _shared_core


@dataclass(frozen=True)
class CompletionRequest:
    """One logical completion: prompt, vote slot, and its parser.

    Attributes:
        prompt: the full prompt text.
        sample_index: base vote slot (retries bump it by the policy's
            nonce, never colliding with other slots).
        parse: turns a completion into a result; raises
            :class:`~repro.errors.LLMProtocolError` to request a retry.
        first_attempt: attempts already consumed elsewhere (the scan
            prefetcher hands over after a failed speculative attempt 0).
        prior_error: the parse error from those consumed attempts, kept
            so the give-up message matches the sequential path.
        kind: prompt kind for tracing (``scan-page`` / ``lookup-batch``
            / ``judge-batch`` / generic ``call``); purely a span tag.
        trace_tags: extra span tags (e.g. shard index); purely
            observational.
    """

    prompt: str
    sample_index: int
    parse: Callable[[Completion], Any]
    first_attempt: int = 0
    prior_error: Optional[Exception] = None
    kind: str = "call"
    trace_tags: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Outcome:
    """A parsed result plus the serial latency of the attempts behind it."""

    value: Any
    path_ms: float
    attempts: int = 1


@dataclass
class DispatcherStats:
    """Observability counters (informational; never affect results)."""

    submitted: int = 0
    deduplicated: int = 0
    cross_query_deduplicated: int = 0
    waves: int = 0
    speculated: int = 0
    speculation_used: int = 0
    speculation_wasted: int = 0


class Speculation:
    """An un-metered, in-flight model call owned by the prefetcher.

    The completion is only charged (budget check, meter record, cache
    insert) if it is consumed; an abandoned speculation costs nothing in
    tokens — exactly like the sequential path, which never issued it.
    """

    __slots__ = ("prompt", "options", "future", "launched_at_ms")

    def __init__(
        self,
        prompt: str,
        options: CompletionOptions,
        future: "Future[Tuple[Completion, bool]]",
        launched_at_ms: float,
    ):
        self.prompt = prompt
        self.options = options
        self.future = future
        self.launched_at_ms = launched_at_ms


class Dispatcher:
    """Bounded-concurrency scheduler over one wrapped model stack."""

    def __init__(
        self,
        model: LanguageModel,
        options_for: Callable[[int], CompletionOptions],
        retry: RetryPolicy,
        max_in_flight: int = 1,
        ledger: Optional[LatencyLedger] = None,
        raw_model: Optional[LanguageModel] = None,
        cache: Optional[PromptCache] = None,
        meter=None,
        shared: Optional[CrossQueryDedup] = None,
        dedup_scope: Tuple = (),
        flight_budget: Optional[FlightBudget] = None,
        cancel: Optional[CancellationToken] = None,
        tracer=None,
        on_completion: Optional[Callable[[str, float, int], None]] = None,
    ):
        self._model = model
        self._options_for = options_for
        self._retry = retry
        self._max_in_flight = max(1, max_in_flight)
        self._ledger = ledger or LatencyLedger()
        self._raw_model = raw_model
        self._cache = cache
        self._meter = meter
        # Statistics feedback: called with (kind, latency_ms, tokens)
        # for every completion that lands — purely observational, it
        # feeds the online statistics catalog's per-kind histograms.
        self._on_completion = on_completion
        self._async_target = None  # resolved lazily for speculation
        self._shared = shared
        self._dedup_scope = tuple(dedup_scope)
        self._flight_budget = flight_budget
        self._cancel = cancel
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._model_name = (
            resolve_model_name(raw_model) if raw_model is not None else ""
        )
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple[str, int], "Future[Outcome]"] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        if max_in_flight > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=max_in_flight, thread_name_prefix="repro-dispatch"
            )
        self.stats = DispatcherStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def max_in_flight(self) -> int:
        return self._max_in_flight

    @property
    def ledger(self) -> LatencyLedger:
        return self._ledger

    def run_wave(self, requests: Sequence[CompletionRequest]) -> List[Any]:
        """Dispatch independent requests; return parsed results in order.

        Charges the ledger one makespan for the whole wave: with one
        slot that is the serial sum (the sequential baseline), with N
        slots the greedy N-machine schedule over simulated latencies.
        """
        if not requests:
            return []
        tracing = self._tracer.enabled
        # Read the simulated clock before the makespan commit: flight
        # span offsets are laid out from the wave's start.
        wave_start = self._ledger.now() if tracing else 0.0
        futures = [self.submit(request) for request in requests]
        outcomes: List[Optional[Outcome]] = []
        error: Optional[BaseException] = None
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as exc:
                error = error or exc
                outcomes.append(None)
        if tracing:
            self._emit_flight_spans(requests, futures, outcomes, wave_start)
        self._ledger.add(
            self._makespan([o.path_ms for o in outcomes if o is not None])
        )
        self.stats.waves += 1
        if error is not None:
            raise error
        return [outcome.value for outcome in outcomes]  # type: ignore[union-attr]

    def run_one(self, request: CompletionRequest) -> Any:
        return self.run_wave([request])[0]

    def submit(self, request: CompletionRequest) -> "Future[Outcome]":
        """Schedule one request; single-flight dedups identical keys.

        A follower of an in-flight leader waits (via callback, not a
        worker slot) and then replays the request through the normal
        stack: with the cache enabled that replay is served entirely
        from cache — the same zero-cost calls a sequential duplicate
        records — and with the cache disabled it pays full price, again
        matching the sequential path.

        With a shared :class:`~repro.runtime.scheduler.CrossQueryDedup`
        registry attached, the same single-flight applies *across*
        concurrent queries of one session: an identical request led by
        another query's dispatcher is joined instead of re-paid, and
        the join is attributed to this query's meter as a ``dedup_hit``
        (the replay itself records the usual zero-cost cached call).
        Keys carry the dedup scope, so differing semantic fingerprints
        can never join each other's calls.
        """
        self.stats.submitted += 1
        key = (request.prompt, request.sample_index)
        foreign: Optional["Future[Outcome]"] = None
        with self._lock:
            leader = self._inflight.get(key)
            if leader is not None:
                follower: "Future[Outcome]" = Future()
                follower.repro_via = "dedup"  # span tag, observational
                self.stats.deduplicated += 1
                leader.add_done_callback(
                    lambda _done: self._schedule(request, follower, key=None)
                )
                return follower
            future: "Future[Outcome]" = Future()
            if self._shared is not None and self._cache is not None:
                # Lock order is always dispatcher → registry, so the
                # cross-dispatcher lease can never deadlock.  Without a
                # shared cache a join could never save anything (the
                # follower's replay would re-pay full price after
                # waiting out the leader), so cache-less dispatchers
                # always lead independently.
                foreign = self._shared.lease(self._dedup_scope + key, future)
            if foreign is None:
                self._inflight[key] = future
        if foreign is not None:
            self.stats.deduplicated += 1
            self.stats.cross_query_deduplicated += 1
            follower = Future()
            follower.repro_via = "dedup-join"  # span tag, observational

            def on_leader_done(done: "Future[Outcome]") -> None:
                # Count the dedup hit only when the join actually saved
                # tokens: the leader landed (its completion is in the
                # shared cache) and this query replays from that cache.
                # A failed/cancelled leader leaves the follower to
                # re-pay at full price — no saving, no hit.  While
                # joined, this query's own timeout is observed at the
                # replay (cancellation is cooperative: the next model-
                # call boundary is the joined call's completion).
                if (
                    self._meter is not None
                    and self._cache is not None
                    and done.exception() is None
                ):
                    self._meter.record_dedup_hit()
                self._schedule(request, follower, key=None)

            foreign.add_done_callback(on_leader_done)
            return follower
        self._schedule(request, future, key=key)
        return future

    def speculate(self, prompt: str) -> Optional[Speculation]:
        """Start an un-metered attempt-0 call for a guessed prompt.

        Returns ``None`` when a regular request for the same key is
        already in flight: the consumer will issue a normal call and be
        served by single-flight/cache, so speculating would only race
        the metered call for the cache slot.

        Speculations run natively on the event-loop core: the guessed
        page is a coroutine awaiting the model's async surface, not a
        pool thread blocking in the executor shim — so it shares the
        continuous batcher's slots (or waits for a flight slot) on the
        one loop that owns wire I/O, holding no thread while it waits.
        """
        options = self._options_for(0)
        with self._lock:
            if (prompt, 0) in self._inflight:
                return None
        self.stats.speculated += 1
        launched_at = self._ledger.now()
        future = get_event_loop_core().submit(
            self._raw_attempt_async(prompt, options)
        )
        return Speculation(prompt, options, future, launched_at)

    def consume_speculation(self, spec: Speculation) -> Tuple[Completion, float]:
        """Charge a consumed speculation as if it were a normal call.

        Exactly one concurrent producer of a cache key pays for it:
        the atomic ``put_if_absent`` decides who, and everyone else
        records the zero-cost hit a sequential run would have recorded.
        Returns the completion plus the wall-clock still owed: the
        call's latency minus however much simulated time elapsed while
        it ran in the background (never below zero).
        """
        completion, from_cache = spec.future.result()
        self.stats.speculation_used += 1
        if self._meter is not None:
            self._meter.acquire_call()
        if from_cache:
            completion = zero_cost_copy(completion)
        elif self._cache is not None:
            _, was_present = self._cache.put_if_absent(
                spec.prompt, spec.options, completion, model_name=self._model_name
            )
            if was_present:
                # Someone else (another scan's speculation or a regular
                # call) already paid for this key while we were in
                # flight; sequentially this consume would have been a
                # cache hit.
                completion = zero_cost_copy(completion)
        if self._meter is not None:
            self._meter.record_completion(completion)
        if self._on_completion is not None:
            self._on_completion(
                "scan-page",
                completion.latency_ms,
                completion.prompt_tokens + completion.completion_tokens,
            )
        elapsed = self._ledger.now() - spec.launched_at_ms
        owed = max(0.0, completion.latency_ms - elapsed)
        if self._tracer.enabled:
            # A consumed speculation is a scan-page flight that started
            # when the prefetcher launched it; "via" is volatile by
            # design (serial runs fetch the same page inline).
            self._tracer.emit(
                "flight",
                spec.launched_at_ms,
                spec.launched_at_ms + completion.latency_ms,
                {"kind": "scan-page", "via": "prefetch"},
            )
        return completion, owed

    def abandon_speculations(self, count: int) -> None:
        self.stats.speculation_wasted += count

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _schedule(
        self,
        request: CompletionRequest,
        future: "Future[Outcome]",
        key: Optional[Tuple[str, int]],
    ) -> None:
        if self._pool is None:
            self._run_into(request, future, key)
            return
        try:
            self._pool.submit(self._run_into, request, future, key)
        except RuntimeError:
            # Pool already shut down.  Unreachable through the normal
            # flow (every submitted future is awaited before close()),
            # but a foreign-leader callback landing during teardown
            # must still resolve its follower — run inline rather than
            # leave a future forever pending.
            self._run_into(request, future, key)

    def _run_into(
        self,
        request: CompletionRequest,
        future: "Future[Outcome]",
        key: Optional[Tuple[str, int]],
    ) -> None:
        try:
            outcome = self._run_request(request)
        except BaseException as exc:
            self._clear_inflight(key, future)
            future.set_exception(exc)
        else:
            self._clear_inflight(key, future)
            future.set_result(outcome)

    def _clear_inflight(
        self, key: Optional[Tuple[str, int]], future: "Future[Outcome]"
    ) -> None:
        if key is None:
            return
        with self._lock:
            self._inflight.pop(key, None)
        if self._shared is not None:
            self._shared.release(self._dedup_scope + key, future)

    def _run_request(self, request: CompletionRequest) -> Outcome:
        path_ms = 0.0
        last_error: Optional[Exception] = request.prior_error
        for attempt in range(request.first_attempt, self._retry.max_attempts):
            options = self._options_for(
                request.sample_index + self._retry.nonce_for(attempt)
            )
            completion = self._guarded_complete(request.prompt, options)
            path_ms += completion.latency_ms
            if self._on_completion is not None:
                self._on_completion(
                    request.kind,
                    completion.latency_ms,
                    completion.prompt_tokens + completion.completion_tokens,
                )
            try:
                return Outcome(
                    value=request.parse(completion),
                    path_ms=path_ms,
                    attempts=attempt - request.first_attempt + 1,
                )
            except LLMProtocolError as exc:
                last_error = exc
                delay = self._retry.delay_ms(attempt)
                path_ms += delay
                self._retry.sleep(delay)
        raise ExecutionError(
            f"model output unusable after {self._retry.max_attempts} "
            f"attempts: {last_error}"
        )

    def _guarded_complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        """One metered model call under the global budget and token.

        The in-flight slot is held only for the duration of the call —
        never while waiting on a future or sleeping out a backoff — so
        the session-wide budget cannot deadlock the worker pools that
        share it.  A call the prompt cache will serve takes no slot at
        all: zero-cost replays (cross-query followers, warm repeats)
        must not queue behind real model traffic.  (If the entry is
        evicted between the probe and the read, the call briefly runs
        unslotted — a rare, bounded overshoot of the budget, preferred
        over serializing every cache hit.)
        """
        if self._cancel is not None:
            self._cancel.check()
        if self._flight_budget is None or (
            self._cache is not None
            and self._cache.contains(prompt, options, self._model_name)
        ):
            return self._model.complete(prompt, options)
        with self._flight_budget.slot(self._cancel):
            return self._model.complete(prompt, options)

    async def _raw_attempt_async(
        self, prompt: str, options: CompletionOptions
    ) -> Tuple[Completion, bool]:
        """Attempt 0 without metering, native on the event-loop core.

        Cache probe first (a warm key costs nothing and takes no
        slot); otherwise the call goes through the model's own async
        surface when it has one (transports, the batching gate) and
        through the in-process transport wrapper otherwise — identical
        completions either way, since the wrapper delegates to the
        same ``complete``.
        """
        if self._cache is not None:
            cached = self._cache.get(prompt, options, model_name=self._model_name)
            if cached is not None:
                return cached, True
        if self._cancel is not None:
            self._cancel.check()
        target = self._async_target
        if target is None:
            model = (
                self._raw_model if self._raw_model is not None else self._model
            )
            if hasattr(model, "complete_async"):
                target = model
            else:
                from repro.llm.transport import as_transport

                target = as_transport(model)
            self._async_target = target
        if self._flight_budget is None:
            return await target.complete_async(prompt, options), False
        # Wait on the loop, not on an executor thread: slot holders
        # need those threads for their blocking transport calls.
        async with self._flight_budget.slot_async(self._cancel):
            return await target.complete_async(prompt, options), False

    def _emit_flight_spans(
        self,
        requests: Sequence[CompletionRequest],
        futures: Sequence["Future[Outcome]"],
        outcomes: Sequence[Optional[Outcome]],
        wave_start: float,
    ) -> None:
        """One span per landed request, laid out analytically.

        Start/end offsets replay the same greedy slot assignment
        :meth:`_makespan` charges (submission order onto the wave's
        fair slot share), so flight timings derive from the simulated
        critical-path accounting — deterministic, never host thread
        timing.
        """
        slot_count = max(
            1, self._max_in_flight // self._ledger.current_divisor()
        )
        slots = [0.0] * slot_count
        for request, future, outcome in zip(requests, futures, outcomes):
            if outcome is None:
                continue
            index = min(range(slot_count), key=slots.__getitem__)
            start = slots[index]
            slots[index] = start + outcome.path_ms
            tags = {"kind": request.kind}
            tags.update(request.trace_tags)
            if outcome.attempts > 1:
                tags["attempts"] = outcome.attempts
            via = getattr(future, "repro_via", None)
            if via is not None:
                tags["via"] = via
            self._tracer.emit(
                "flight", wave_start + start, wave_start + slots[index], tags
            )

    def _makespan(self, durations: Sequence[float]) -> float:
        """Greedy schedule of durations onto this wave's fair slot share.

        When several plan branches dispatch waves concurrently they
        split the worker pool, so a wave's makespan is computed against
        ``max_in_flight`` divided by the calling scope's structural
        concurrency (at least one slot) — a fair-share approximation,
        fixed by the plan shape rather than live thread state, that
        keeps the reported critical path deterministic and from
        pretending each branch had the whole pool to itself.
        """
        slot_count = max(1, self._max_in_flight // self._ledger.current_divisor())
        return greedy_makespan(durations, slot_count)
