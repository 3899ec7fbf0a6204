"""Spans around the public entry points of each engine layer.

The benchmark wraps the entry points from its own files: nothing under
``src/`` is instrumented.  Spans stay in memory while the traced pass
runs and are written out when it ends, as JSON lines plus a per-layer
self-time table.

A span's parent is the innermost open span of the same thread, so a
span's children are nested, sequential intervals and its self time is
its duration minus theirs.  Work handed to another thread (dispatcher
pool, event loop, executor) starts a root span there; the caller's span
keeps that wait as self time.  Every span carries the id of the request
(one statement, or one ``execute_many`` call) during which it started:
the benchmark runs one client, so requests never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.executor import PlanExecutor
from repro.core.operators import ModelClient
from repro.errors import LLMProtocolError
from repro.llm.transport import LlamaCppTransport
from repro.plan.optimizer import Optimizer
from repro.prompts import parsing
from repro.relational.executor import ReferenceExecutor
from repro.runtime.batching import ContinuousBatcher
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.scheduler import FlightBudget
from repro.sql import parser as sql_parser
from repro.sql.binder import Binder
from repro.stats.catalog import StatisticsCatalog
from repro.storage.tier import StorageTier

import repro.core.engine as engine_module

#: Marks a patched attribute the owner only inherited.
_INHERITED = object()


class Span:
    __slots__ = (
        "span_id", "parent", "request", "layer", "name", "thread",
        "start", "end", "tags",
    )

    def __init__(self, span_id, parent, request, layer, name, thread, start):
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.layer = layer
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.tags: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self, origin: float) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "request": self.request,
            "layer": self.layer,
            "name": self.name,
            "thread": self.thread,
            "start_ms": round((self.start - origin) * 1000.0, 4),
            "end_ms": round((self.end - origin) * 1000.0, 4),
            **(self.tags or {}),
        }


class Tracer:
    """Installs wrappers, records spans and tallies per-layer counters."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request = 0
        self.dispatcher_stats: list = []
        self.batchers: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list = []

    # -- recording -----------------------------------------------------

    def _open(self, layer: str, name: str, nest: bool = True) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            span_id,
            stack[-1].span_id if (stack and nest) else None,
            self.request,
            layer,
            name,
            threading.get_ident(),
            time.perf_counter(),
        )
        if nest:
            stack.append(span)
        return span

    def _close(self, span: Span, nest: bool = True) -> None:
        span.end = time.perf_counter()
        if nest:
            self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    def _timed(self, layer: str, name: str, func: Callable, on_result=None):
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                # Coroutines interleave on the loop thread, so they never
                # nest on its stack.
                span = self._open(layer, name, nest=False)
                try:
                    return await func(*args, **kwargs)
                finally:
                    self._close(span, nest=False)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = func(*args, **kwargs)
            except LLMProtocolError:
                span.tags = {"error": True}
                raise
            finally:
                self._close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attrs, layer: str, on_result=None) -> None:
        for attr in attrs:
            original = getattr(owner, attr)
            self._patch(
                owner, attr, self._timed(layer, attr, original, on_result)
            )

    def _stream_pages(self, layer: str):
        """Time each page pulled from a returned ``RowStream``."""

        def on_result(span, args, stream):
            stream.next_page = self._timed(layer, "next_page", stream.next_page)

        return on_result

    def install(self) -> None:
        self._wrap(sql_parser, ["parse"], "sql.parse")
        self._patch(engine_module, "parse", sql_parser.parse)
        self._wrap(Binder, ["bind"], "sql.bind")

        def plan_estimate(span, args, plan):
            span.tags = {"est_calls": plan.estimate.calls}

        self._wrap(Optimizer, ["plan"], "plan.optimize", plan_estimate)
        self._wrap(PlanExecutor, ["execute"], "core.execute")
        self._wrap(ModelClient, ["run_scan", "run_sharded_scan"], "core.scan")
        self._wrap(
            ModelClient,
            ["open_scan_stream", "open_sharded_scan_stream"],
            "core.scan",
            self._stream_pages("core.scan"),
        )
        self._wrap(ModelClient, ["run_lookup"], "core.lookup")
        self._wrap(
            ModelClient,
            ["open_lookup_stream"],
            "core.lookup",
            self._stream_pages("core.lookup"),
        )
        self._wrap(ModelClient, ["run_judge"], "core.judge")

        def rows_out(span, args, table):
            span.tags = {"rows": len(table.rows)}

        self._wrap(ReferenceExecutor, ["execute"], "relational.compute", rows_out)
        self._wrap(
            parsing,
            [
                "parse_enumerate_completion",
                "parse_lookup_completion",
                "parse_judge_completion",
            ],
            "prompts.parse",
        )
        self._wrap(
            StorageTier,
            [
                "get_result",
                "scan_fragment",
                "peek_scan_fragment",
                "shard_fragment",
                "lookup_cells",
                "peek_lookup_coverage",
            ],
            "storage.read",
        )
        self._wrap(
            StorageTier,
            [
                "put_result",
                "store_scan_fragment",
                "store_shard_fragment",
                "store_lookup_row",
                "store_lookup_negative",
            ],
            "storage.write",
        )
        self._wrap(StatisticsCatalog, ["flush"], "stats.flush")

        def wave_size(span, args, results):
            span.tags = {"size": len(args[1])}

        self._wrap(Dispatcher, ["run_wave"], "runtime.wave", wave_size)
        self._wrap(LlamaCppTransport, ["complete"], "llm.request")
        self._wrap(LlamaCppTransport, ["complete_async"], "llm.request_async")
        self._patch_slot()
        self._patch_collectors()

    def _patch_slot(self) -> None:
        original = FlightBudget.slot
        tracer = self

        class TimedSlot:
            """Times acquisition (the wait) of a FlightBudget slot."""

            def __init__(self, manager):
                self._manager = manager

            def __enter__(self):
                span = tracer._open("runtime.slot_wait", "slot")
                try:
                    return self._manager.__enter__()
                finally:
                    tracer._close(span)

            def __exit__(self, *exc):
                return self._manager.__exit__(*exc)

        def slot(budget, cancel=None):
            return TimedSlot(original(budget, cancel))

        self._patch(FlightBudget, "slot", slot)

    def _patch_collectors(self) -> None:
        """Keep each query's dispatcher counters and every batcher."""
        close = ModelClient.close
        submit = ContinuousBatcher.submit
        tracer = self

        def client_close(client):
            tracer.dispatcher_stats.append(client.dispatcher.stats)
            return close(client)

        def batcher_submit(batcher, *args, **kwargs):
            if batcher not in tracer.batchers:
                tracer.batchers.append(batcher)
            return submit(batcher, *args, **kwargs)

        self._patch(ModelClient, "close", client_close)
        self._patch(ContinuousBatcher, "submit", batcher_submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------

    def self_ms(self) -> Dict[int, float]:
        child_ms: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_ms[span.parent] += span.duration
        return {
            span.span_id: (span.duration - child_ms[span.span_id]) * 1000.0
            for span in self.spans
        }

    def outermost_ms(self, layer: str) -> float:
        """Inclusive time of ``layer`` spans not nested in another one."""
        by_id = {span.span_id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = by_id.get(span.parent)
            while parent is not None and parent.layer != layer:
                parent = by_id.get(parent.parent)
            if parent is None:
                total += span.duration
        return total * 1000.0

    def layer_table(self, elapsed_s: float) -> List[dict]:
        self_ms = self.self_ms()
        rows: Dict[str, dict] = {}
        for span in self.spans:
            row = rows.setdefault(
                span.layer, {"layer": span.layer, "spans": 0, "self_ms": 0.0}
            )
            row["spans"] += 1
            row["self_ms"] += self_ms[span.span_id]
        for row in rows.values():
            row["inclusive_ms"] = self.outermost_ms(row["layer"])
            row["self_share"] = row["self_ms"] / (elapsed_s * 1000.0)
        return sorted(rows.values(), key=lambda row: -row["self_ms"])

    def write(self, jsonl_path, table_path, elapsed_s: float) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        with open(jsonl_path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda span: span.start):
                out.write(json.dumps(span.as_json(origin)) + "\n")
        lines = [
            f"{'layer':<20} {'spans':>7} {'self_ms':>11} "
            f"{'inclusive_ms':>13} {'self_share':>10}"
        ]
        for row in self.layer_table(elapsed_s):
            lines.append(
                f"{row['layer']:<20} {row['spans']:>7} {row['self_ms']:>11.2f} "
                f"{row['inclusive_ms']:>13.2f} {row['self_share']:>10.4f}"
            )
        lines.append(f"traced elapsed: {elapsed_s * 1000.0:.2f} ms")
        with open(table_path, "w", encoding="utf-8") as out:
            out.write("\n".join(lines) + "\n")

