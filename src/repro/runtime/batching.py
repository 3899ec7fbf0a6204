"""Continuous cross-query batching: one shared slot pool per session.

Per-query batching (the dispatcher's waves) amortizes overhead *within*
one query; under concurrent serving every query still pays its own
round trips.  The :class:`ContinuousBatcher` replaces that with the
serving model of llama.cpp's ``examples/parallel``: a fixed pool of
``slots`` shared by the retrieval prompts of *all* in-flight queries.
A drain task on the event-loop core admits queued requests while fewer
than ``slots`` are in flight; each admitted request runs as its own
task and frees its slot the moment its own completion lands, so a freed
slot is refilled from any query's queue without waiting for slower
neighbours.  Blocking transport calls run on wire threads the batcher
owns — one per slot — rather than on the loop's CPU-sized default
executor.

Invariants:

* **Byte identity.**  The batcher moves *when* raw model calls happen,
  never what they are: each request reaches the transport with its
  exact prompt and options, and the simulated substrate is
  deterministic per ``(prompt, sample_index)``.  Cache, dedup, meter,
  and storage layers sit *above* the gate, so their behavior — and
  therefore results, token counts, and call counts — is unchanged at
  any concurrency.
* **Cancellation reclaims queued slots.**  A cancelled query's queued
  requests are failed with :class:`~repro.errors.QueryCancelled` at
  admission — before occupying a slot — so co-batched queries keep
  their full share of the pool and are never poisoned by a neighbour's
  timeout.
* **Per-request isolation.**  Every request resolves its own future:
  one failing request fails one future, nothing else.

:class:`BatchingGate` is the per-query adapter: it sits at the *bottom*
of the model stack (below cache and meter), so only calls that will
genuinely pay the model — cache misses, consumed speculations — enter
the shared pool, and zero-cost replays never occupy a slot.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Set

from repro.errors import QueryCancelled, TransportError
from repro.llm.cache import resolve_model_name
from repro.llm.interface import BatchRequest, Completion, CompletionOptions
from repro.llm.transport import wire_executor
from repro.runtime.dispatcher import EventLoopCore, get_event_loop_core
from repro.runtime.scheduler import CancellationToken

#: Occupancy-trace entries kept before the trace stops growing (the
#: stats keep counting either way).
_TRACE_CAP = 10_000


@dataclass
class BatcherStats:
    """Counters describing pool behavior (informational only).

    ``waves`` counts admission passes (each starts one or more queued
    requests into free slots) and ``max_batch`` is the most requests
    one pass started.
    """

    submitted: int = 0
    completed: int = 0
    waves: int = 0
    max_batch: int = 0
    cancelled_reclaimed: int = 0
    failed: int = 0


class _Pending:
    """One queued request: prompt, options, its future, its token."""

    __slots__ = ("prompt", "options", "future", "cancel")

    def __init__(
        self,
        prompt: str,
        options: CompletionOptions,
        future: "Future[Completion]",
        cancel: Optional[CancellationToken],
    ):
        self.prompt = prompt
        self.options = options
        self.future = future
        self.cancel = cancel


@dataclass
class ContinuousBatcher:
    """Slot-based request pool shared by the queries of a session.

    Thread-safe producers (:meth:`submit` from any dispatcher worker)
    feed a queue owned by the event-loop thread; a lazily-started drain
    task admits queued requests while fewer than ``slots`` are in
    flight, each as its own task calling ``transport.complete_async``.
    Every queue, slot and trace mutation happens on the loop thread, so
    no lock is needed.
    """

    transport: object
    slots: int = 32
    core: Optional[EventLoopCore] = None
    registry: object = None
    stats: BatcherStats = field(default_factory=BatcherStats)

    def __post_init__(self):
        self.slots = max(1, int(self.slots))
        if self.core is None:
            self.core = get_event_loop_core()
        self.wave_trace: List[dict] = []
        self._queue: Deque[_Pending] = deque()
        self._in_flight: Set["asyncio.Task[None]"] = set()
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._closed = False
        # Threads start on first use, so in-process transports (which
        # complete inline on the loop) never spawn any.
        self._wire = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-wire"
        )

    # -- producer side (any thread) ------------------------------------

    def submit(
        self,
        prompt: str,
        options: CompletionOptions = CompletionOptions(),
        cancel: Optional[CancellationToken] = None,
    ) -> "Future[Completion]":
        """Queue one request into the shared pool; returns its future."""
        future: "Future[Completion]" = Future()
        pending = _Pending(prompt, options, future, cancel)

        def enqueue() -> None:
            if self._closed:
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        TransportError("continuous batcher is closed")
                    )
                return
            self._queue.append(pending)
            self._ensure_drain_task()
            self._wakeup.set()

        self.stats.submitted += 1
        self.core.call_soon(enqueue)
        return future

    def complete(
        self,
        prompt: str,
        options: CompletionOptions = CompletionOptions(),
        cancel: Optional[CancellationToken] = None,
    ) -> Completion:
        """Blocking convenience over :meth:`submit`."""
        return self.submit(prompt, options, cancel=cancel).result()

    def close(self) -> None:
        """Stop admitting: queued requests fail, in-flight ones finish.

        Returns once the drain task and every admitted request are done
        and the wire threads have exited.  Idempotent.
        """

        async def shutdown() -> None:
            self._closed = True
            self._fail_queued(TransportError("continuous batcher is closed"))
            if self._wakeup is not None:
                self._wakeup.set()
            tasks = [*self._in_flight, *([self._task] if self._task else [])]
            if tasks:
                await asyncio.wait(tasks)

        try:
            self.core.run(shutdown())
        except RuntimeError:
            # Core already closed: the drain task died with the loop;
            # nothing can still be queued through this batcher.
            self._closed = True
        self._wire.shutdown(wait=True)

    # -- loop side -----------------------------------------------------

    def _ensure_drain_task(self) -> None:
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        try:
            while not self._closed:
                await self._wakeup.wait()
                self._wakeup.clear()
                if not self._closed:
                    self._admit()
        finally:
            self._fail_queued(
                TransportError("continuous batcher drain task exited")
            )

    def _admit(self) -> None:
        """One admission pass: start queued requests into free slots.

        Requests whose cancellation token is already due are failed
        *here* — their slot goes to a co-batched neighbour instead of
        being burned on a doomed model call.
        """
        loop = asyncio.get_running_loop()
        started = 0
        while self._queue and len(self._in_flight) < self.slots:
            pending = self._queue.popleft()
            if pending.cancel is not None:
                try:
                    pending.cancel.check()
                except QueryCancelled as exc:
                    self.stats.cancelled_reclaimed += 1
                    if pending.future.set_running_or_notify_cancel():
                        pending.future.set_exception(exc)
                    continue
            if not pending.future.set_running_or_notify_cancel():
                continue  # abandoned by its consumer
            task = loop.create_task(self._serve(pending))
            self._in_flight.add(task)
            task.add_done_callback(self._release)
            started += 1
        if started:
            self._record_pass(started)

    def _record_pass(self, started: int) -> None:
        self.stats.waves += 1
        self.stats.max_batch = max(self.stats.max_batch, started)
        if len(self.wave_trace) < _TRACE_CAP:
            self.wave_trace.append(
                {
                    "wave": self.stats.waves,
                    "batch": started,
                    "in_flight": len(self._in_flight),
                    "queued": len(self._queue),
                    "slots": self.slots,
                }
            )
        if self.registry is not None:
            from repro.obs import metrics as obs_metrics

            self.registry.counter(obs_metrics.BATCH_WAVES_TOTAL).inc()
            self.registry.counter(obs_metrics.BATCH_REQUESTS_TOTAL).inc(started)
            self.registry.histogram(obs_metrics.BATCH_OCCUPANCY).observe(
                len(self._in_flight)
            )

    async def _serve(self, pending: _Pending) -> None:
        """Run one admitted request and resolve its future."""
        # Tasks run in a copy of the context, so this scopes the wire
        # pool to this request's transport call only.
        wire_executor.set(self._wire)
        try:
            result = await self.transport.complete_async(
                pending.prompt, pending.options
            )
        except BaseException as exc:
            self.stats.failed += 1
            pending.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise  # cancellation or interrupt: resolved, then passed on
        else:
            self.stats.completed += 1
            pending.future.set_result(result)

    def _release(self, task: "asyncio.Task[None]") -> None:
        """Free a finished request's slot; wake the drain if work waits."""
        self._in_flight.discard(task)
        if self._queue and not self._closed:
            self._wakeup.set()

    def _fail_queued(self, error: Exception) -> None:
        while self._queue:
            pending = self._queue.popleft()
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(error)


class BatchingGate:
    """Per-query adapter routing raw model calls into a shared batcher.

    Implements the :class:`~repro.llm.interface.LanguageModel` surface
    so it can stand in for the raw model at the bottom of the
    cache/meter stack; carries the query's cancellation token so a
    cancelled query's queued requests are reclaimable at admission.
    """

    def __init__(
        self,
        inner,
        batcher: ContinuousBatcher,
        cancel: Optional[CancellationToken] = None,
    ):
        self._inner = inner
        self._batcher = batcher
        self._cancel = cancel

    @property
    def model_name(self) -> str:
        # Identity passes through: caches and storage scopes must key
        # on the model, not on how its calls are pooled.
        return resolve_model_name(self._inner)

    @property
    def batcher(self) -> ContinuousBatcher:
        return self._batcher

    def complete(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        return self._batcher.complete(prompt, options, cancel=self._cancel)

    def complete_many(
        self, requests: Sequence[BatchRequest]
    ) -> List[Completion]:
        futures = [
            self._batcher.submit(prompt, options, cancel=self._cancel)
            for prompt, options in requests
        ]
        return [future.result() for future in futures]

    async def complete_async(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        """Async surface: await the pooled future without blocking.

        The tasks that resolve batcher futures run on the event-loop
        core, so a coroutine on that same loop must await — the
        blocking :meth:`complete` there would deadlock the pool.
        """
        return await asyncio.wrap_future(
            self._batcher.submit(prompt, options, cancel=self._cancel)
        )
