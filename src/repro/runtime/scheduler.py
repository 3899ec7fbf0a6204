"""Multi-query serving: fair admission over one shared session.

The layers below this one accelerate a *single* statement (concurrent
waves, shards, streams).  The scheduler is the serving layer: it admits
N SQL statements against one shared engine session, runs each through
the existing planner/executor on its own worker, and makes the session's
resources genuinely shared rather than per-query:

* **One dispatcher budget.**  A :class:`FlightBudget` semaphore caps the
  *total* number of concurrently open model calls across every admitted
  query at the session's ``max_in_flight`` — eight queries do not get
  eight pools.
* **Cross-query single-flight.**  A :class:`CrossQueryDedup` registry
  extends the dispatcher's single-flight map across query boundaries:
  when two overlapping queries issue the identical scan page or lookup
  batch, the second joins the first's in-flight call instead of paying
  for its own (and then replays through the shared prompt cache, i.e.
  zero marginal tokens).  Keys carry the (model identity, semantic
  config) scope, so dedup can never join calls across fingerprints that
  could retrieve different rows.
* **Fair admission.**  FIFO by default; an optional integer priority
  reorders admission (higher first, FIFO within a priority).  Workers
  pull from the admission queue, so a small ``jobs`` setting bounds the
  number of statements in flight without starving late arrivals.
* **Per-query timeout/cancellation.**  Each admitted query carries a
  :class:`CancellationToken` checked before every model call; a timed
  out or cancelled query fails with
  :class:`~repro.errors.QueryCancelled` without disturbing its
  neighbours (an in-flight call it led stays available to followers
  only via the normal replay path, which re-pays if the leader never
  landed).

Wall-clock accounting.  Per-query meters report the query's *own chain*
(the critical path it would have with the configured ``max_in_flight``
to itself); the batch charges the session meter one deterministic
:func:`batch_makespan` — the elapsed critical path of serving the whole
batch — rather than the sum of per-query walls, which would
double-count overlapped time.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from contextlib import asynccontextmanager, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Sequence

from repro.errors import QueryCancelled
from repro.runtime.latency import greedy_makespan

#: How often a slot waiter re-checks its cancellation token (seconds).
_POLL_S = 0.02


class CancellationToken:
    """Cooperative cancellation with an optional real-time deadline.

    The dispatcher checks the token before each model call, so a
    cancelled query stops issuing traffic at the next call boundary
    (local relational compute is never interrupted).  Deadlines use the
    injected clock — real time by default, because a timeout protects
    the caller's wall clock, not the simulated one.
    """

    def __init__(
        self,
        timeout_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self._timeout_s = timeout_s
        self._deadline = None if timeout_s is None else clock() + timeout_s
        self._cancelled = threading.Event()
        self._reason = "query cancelled"

    def cancel(self, reason: str = "query cancelled") -> None:
        self._reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set() or (
            self._deadline is not None and self._clock() >= self._deadline
        )

    def check(self) -> None:
        """Raise :class:`~repro.errors.QueryCancelled` if due."""
        if self._cancelled.is_set():
            raise QueryCancelled(self._reason)
        if self._deadline is not None and self._clock() >= self._deadline:
            raise QueryCancelled(
                f"query timed out after {self._timeout_s:g}s"
            )


class _Waiter:
    """One blocked acquirer; ``wake`` runs once a slot is handed to it."""

    __slots__ = ("granted", "wake")

    def __init__(self, wake: Callable[[], None]):
        self.granted = False
        self.wake = wake


class FlightBudget:
    """The session-global cap on concurrently open model calls.

    Every dispatcher of a session acquires a slot for the duration of
    each raw model call (never while waiting on another future, so the
    budget cannot deadlock).  A single query saturates at most
    ``max_in_flight`` slots on its own — exactly the pre-serving
    behavior — and concurrent queries *share* those slots instead of
    multiplying them.

    A released slot is handed to the longest waiter, blocked thread
    (:meth:`slot`) or coroutine (:meth:`slot_async`) alike.  A
    coroutine waits on its event loop and holds no thread meanwhile, so
    waiting for a slot never takes an executor thread away from the
    slot holders, whose blocking transport calls need one.
    """

    def __init__(self, max_in_flight: int):
        self.max_in_flight = max(1, int(max_in_flight))
        self._lock = threading.Lock()
        self._free = self.max_in_flight
        self._waiters: Deque[_Waiter] = deque()
        # Occupancy tracking exists only once a registry is attached;
        # the untraced path never touches the gauge lock.
        self._registry = None
        self._occupancy_lock = threading.Lock()
        self._active = 0

    def attach_registry(self, registry) -> None:
        """Report slot occupancy (current/peak) as gauges."""
        self._registry = registry

    def _occupy(self, delta: int) -> None:
        registry = self._registry
        if registry is None:
            return
        from repro.obs import metrics as obs_metrics

        with self._occupancy_lock:
            self._active += delta
            active = self._active
        registry.gauge(obs_metrics.INFLIGHT_CURRENT).set(active)
        registry.gauge(obs_metrics.INFLIGHT_PEAK).max_update(active)

    def _take_or_queue(self, wake: Callable[[], None]) -> Optional[_Waiter]:
        """Take a free slot (returns ``None``) or queue a waiter.

        A queued waiter's ``wake`` runs once a release hands it a slot.
        """
        with self._lock:
            if self._free and not self._waiters:
                self._free -= 1
                return None
            waiter = _Waiter(wake)
            self._waiters.append(waiter)
            return waiter

    def _release(self) -> None:
        with self._lock:
            if not self._waiters:
                self._free += 1
                return
            waiter = self._waiters.popleft()
            waiter.granted = True
        waiter.wake()

    def _abandon(self, waiter: _Waiter) -> None:
        """Withdraw a waiter; a slot granted to it meanwhile moves on."""
        with self._lock:
            if not waiter.granted:
                self._waiters.remove(waiter)
                return
        self._release()

    def _acquire(self, cancel: Optional[CancellationToken]) -> None:
        if cancel is not None:
            cancel.check()
        woken = threading.Event()
        waiter = self._take_or_queue(woken.set)
        if waiter is None:
            return
        try:
            while not woken.wait(None if cancel is None else _POLL_S):
                cancel.check()
        except BaseException:
            self._abandon(waiter)
            raise

    async def _acquire_async(self, cancel: Optional[CancellationToken]) -> None:
        if cancel is not None:
            cancel.check()
        loop = asyncio.get_running_loop()
        woken = loop.create_future()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(_resolve, woken)
            except RuntimeError:
                self._release()  # loop closed: its waiter can never run

        waiter = self._take_or_queue(wake)
        if waiter is None:
            return
        try:
            while not woken.done():
                await asyncio.wait(
                    {woken}, timeout=None if cancel is None else _POLL_S
                )
                if not woken.done():
                    cancel.check()
        except BaseException:
            self._abandon(waiter)
            raise

    @contextmanager
    def slot(self, cancel: Optional[CancellationToken] = None):
        """Hold one in-flight slot; polls the token while waiting."""
        self._acquire(cancel)
        self._occupy(1)
        try:
            yield
        finally:
            self._occupy(-1)
            self._release()

    @asynccontextmanager
    async def slot_async(self, cancel: Optional[CancellationToken] = None):
        """:meth:`slot` for a coroutine: waits on its loop, not a thread."""
        await self._acquire_async(cancel)
        self._occupy(1)
        try:
            yield
        finally:
            self._occupy(-1)
            self._release()


def _resolve(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


class CrossQueryDedup:
    """Single-flight registry shared by the dispatchers of one session.

    Keys are ``scope + (prompt, sample_index)`` where the scope is the
    (model identity, semantic config) tuple fragments already use: two
    configurations that could retrieve different rows — different
    model, validation, page size, temperature, ... — can never join
    each other's in-flight calls.  Within one scope the same guarantee
    single-flight always gave holds: the joiner replays through the
    shared prompt cache after the leader lands, recording the same
    zero-cost call a sequential duplicate would.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, Any] = {}
        self._joins = 0

    def lease(self, key: Hashable, candidate: Any) -> Optional[Any]:
        """Register ``candidate`` as leader, or return the one to join.

        Atomic: exactly one caller per key becomes leader (gets
        ``None`` back); everyone else receives the leader's future.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._joins += 1
                return existing
            self._inflight[key] = candidate
            return None

    def release(self, key: Hashable, leader: Any) -> None:
        """Drop ``key`` if ``leader`` still owns it (identity-checked)."""
        with self._lock:
            if self._inflight.get(key) is leader:
                del self._inflight[key]

    @property
    def joins(self) -> int:
        """How many requests joined a foreign in-flight leader."""
        with self._lock:
            return self._joins

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight)


@dataclass
class QueryJob:
    """One admitted statement plus its serving context."""

    index: int
    statement: Any
    priority: int = 0
    timeout_s: Optional[float] = None
    meter: Any = None
    cancel: Optional[CancellationToken] = None
    pending_cancel: Optional[str] = None

    def request_cancel(self, reason: str = "query cancelled") -> None:
        """Cancel this query, whether queued or already running.

        A job still waiting for admission has no token yet; the reason
        is parked and applied the moment the token is created, so a
        cancel-while-queued is never lost.
        """
        self.pending_cancel = reason
        if self.cancel is not None:
            self.cancel.cancel(reason)


@dataclass
class QueryOutcome:
    """Terminal state of one admitted query.

    ``status`` is ``"ok"`` (``result`` holds the query result),
    ``"cancelled"`` (timeout or explicit cancel; ``error`` holds the
    :class:`~repro.errors.QueryCancelled`), or ``"error"``.  ``usage``
    is the query's own attributed usage either way — a failed query
    still reports what it spent before failing.
    """

    index: int
    statement: Any
    status: str
    result: Any = None
    error: Optional[BaseException] = None
    usage: Any = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def batch_makespan(
    query_walls: Sequence[float],
    total_model_ms: float,
    jobs: int,
    max_in_flight: int,
) -> float:
    """Deterministic elapsed critical path of a concurrently served batch.

    The true elapsed time of a batch is bounded below by two structural
    constraints, and the makespan is the larger of the two:

    * **Admission width.**  At most ``jobs`` queries run at once, so the
      batch cannot beat a greedy assignment of the per-query chains
      (their own-chain critical paths, in admission order) onto ``jobs``
      slots.
    * **Dispatcher budget.**  At most ``max_in_flight`` model calls are
      open at once, so the batch cannot beat the total *paid* model time
      divided by the budget (zero-cost cache/dedup replays add nothing).

    Like the dispatcher's wave makespan this is computed from simulated
    latencies and the declared structure, never from host thread timing,
    so it is reproducible run to run.
    """
    if not query_walls:
        return 0.0
    greedy = greedy_makespan(query_walls, max(1, int(jobs)))
    return max(greedy, total_model_ms / max(1, int(max_in_flight)))


class QueryScheduler:
    """Admits N statements against one shared session, fairly.

    The scheduler is engine-agnostic: it owns admission order, worker
    fan-out, per-query meters/cancellation tokens, and the batch's
    session wall-clock commit; ``run_query(statement, meter, cancel)``
    — bound by the engine to its internal per-statement pipeline — does
    the actual planning and execution.
    """

    def __init__(
        self,
        run_query: Callable[[Any, Any, CancellationToken], Any],
        session_meter,
        jobs: int = 4,
        max_in_flight: int = 1,
        registry=None,
    ):
        self._run_query = run_query
        self._session_meter = session_meter
        self._jobs = max(1, int(jobs))
        self._max_in_flight = max(1, int(max_in_flight))
        # Optional observability registry: queue-wait histogram (host
        # milliseconds a job sat in the admission queue — genuinely a
        # host-time metric, unlike the simulated wall accounting).
        self._registry = registry
        self.admitted: List[QueryJob] = []

    @property
    def jobs(self) -> int:
        return self._jobs

    def execute(
        self,
        statements: Sequence[Any],
        priorities: Optional[Sequence[int]] = None,
        timeout_s: Optional[Sequence[Optional[float]]] = None,
    ) -> List[QueryOutcome]:
        """Run all statements; outcomes come back in submission order.

        ``priorities`` (higher admitted first, FIFO within a priority)
        and ``timeout_s`` (per-query, ``None`` disables) align with
        ``statements`` by position; a scalar ``timeout_s`` applies to
        every query.
        """
        statements = list(statements)
        if not statements:
            return []
        if priorities is not None and len(priorities) != len(statements):
            raise ValueError(
                f"priorities has {len(priorities)} entries for "
                f"{len(statements)} statements"
            )
        if isinstance(timeout_s, (int, float)):
            timeout_s = [float(timeout_s)] * len(statements)
        if timeout_s is not None and len(timeout_s) != len(statements):
            raise ValueError(
                f"timeout_s has {len(timeout_s)} entries for "
                f"{len(statements)} statements"
            )

        jobs = [
            QueryJob(
                index=index,
                statement=statement,
                priority=priorities[index] if priorities is not None else 0,
                timeout_s=timeout_s[index] if timeout_s is not None else None,
            )
            for index, statement in enumerate(statements)
        ]
        # Admission order: priority desc, then FIFO.  Python's sort is
        # stable, so equal priorities keep submission order.
        admission = sorted(jobs, key=lambda job: -job.priority)
        self.admitted = admission

        outcomes: List[Optional[QueryOutcome]] = [None] * len(jobs)
        cursor = {"next": 0}
        cursor_lock = threading.Lock()
        fatal: List[BaseException] = []
        batch_started = time.monotonic()
        registry = self._registry

        def worker() -> None:
            while True:
                with cursor_lock:
                    position = cursor["next"]
                    if position >= len(admission):
                        return
                    cursor["next"] = position + 1
                job = admission[position]
                if registry is not None:
                    from repro.obs import metrics as obs_metrics

                    registry.histogram(obs_metrics.QUEUE_WAIT_MS).observe(
                        (time.monotonic() - batch_started) * 1000.0
                    )
                # The token's deadline starts at *admission*, not
                # submission: a queued query is not burning its budget.
                # A cancel requested while queued lands here.
                job.cancel = CancellationToken(job.timeout_s)
                if job.pending_cancel is not None:
                    job.cancel.cancel(job.pending_cancel)
                # Per-query attribution: a child meter that rolls calls,
                # tokens and storage savings up into the session meter
                # but keeps its wall clock to itself — the batch commits
                # one shared makespan below instead.
                job.meter = self._session_meter.child(forward_wall=False)
                try:
                    outcomes[job.index] = self._run_job(job)
                except BaseException as exc:
                    # KeyboardInterrupt/SystemExit (re-raised by
                    # _run_job on purpose): stop this worker and abort
                    # the whole batch after the join — never return a
                    # silently shortened outcome list.
                    fatal.append(exc)
                    return

        worker_count = min(self._jobs, len(jobs))
        if worker_count <= 1:
            worker()
        else:
            threads = [
                threading.Thread(
                    target=worker, name=f"repro-serve-{i}", daemon=True
                )
                for i in range(worker_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if fatal:
            raise fatal[0]

        walls = [job.meter.wall_ms for job in admission if job.meter is not None]
        total_model_ms = sum(
            job.meter.snapshot().latency_ms
            for job in admission
            if job.meter is not None
        )
        self._session_meter.add_wall_ms(
            batch_makespan(
                walls, total_model_ms, worker_count, self._max_in_flight
            )
        )
        return [outcome for outcome in outcomes if outcome is not None]

    def _run_job(self, job: QueryJob) -> QueryOutcome:
        try:
            result = self._run_query(job.statement, job.meter, job.cancel)
        except QueryCancelled as exc:
            return QueryOutcome(
                index=job.index,
                statement=job.statement,
                status="cancelled",
                error=exc,
                usage=job.meter.snapshot(),
            )
        except Exception as exc:  # surfaced per query, batch continues
            # (KeyboardInterrupt/SystemExit propagate: an operator abort
            # must kill the batch, not become one query's outcome.)
            return QueryOutcome(
                index=job.index,
                statement=job.statement,
                status="error",
                error=exc,
                usage=job.meter.snapshot(),
            )
        return QueryOutcome(
            index=job.index,
            statement=job.statement,
            status="ok",
            result=result,
            usage=job.meter.snapshot(),
        )
