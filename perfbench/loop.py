"""What runs in the timed engine's own process.

``run.py`` starts this module's ``timed_process`` in a fresh spawned
process, so that process holds the timed engine and the statement list
and nothing the benchmark keeps for itself (the ground-truth world, the
reference engine, the memo warm-up engine): its peak resident memory is
the timed engine's.  ``fresh_set_up`` likewise times one set-up in a
fresh process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import queue
import resource
import statistics
import threading
import time
import traceback
import urllib.request
from pathlib import Path
from typing import Callable, List, Optional

import workload
from repro.core.engine import LLMStorageEngine
from repro.llm.transport import LlamaCppTransport

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Seconds one statement (or one ``execute_many`` call) may take before
#: it counts as failed.
STATEMENT_TIMEOUT_S = 20.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------
# Set-up and server counters
# ---------------------------------------------------------------------


def set_up(config, tables, url: str):
    """What a user pays before the first statement: engine construction
    and table registration.  Returns the engine and the seconds taken."""
    started = time.perf_counter()
    engine = LLMStorageEngine(LlamaCppTransport(url=url), config=config)
    workload.register(engine, tables)
    return engine, time.perf_counter() - started


def fresh_set_up(name: str, url: str, tables) -> float:
    """Seconds of one set-up in this (fresh) process, as a user starting
    a process pays it."""
    engine, seconds = set_up(workload.workload_spec(name).config, tables, url)
    engine.close()
    return seconds


def server_stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats", timeout=30) as reply:
        return json.loads(reply.read())


def billed(before: dict, after: dict) -> dict:
    """Server counters accrued between two ``/stats`` snapshots."""
    return {
        "requests": after["requests"] - before["requests"],
        "tokens": (
            after["prompt_tokens"] + after["completion_tokens"]
            - before["prompt_tokens"] - before["completion_tokens"]
        ),
        "service_ms": after["service_ms"][len(before["service_ms"]):],
        "late_ms": after["late_ms"][len(before["late_ms"]):],
        "computed": after["computed"] - before["computed"],
    }


# ---------------------------------------------------------------------
# Client loop
# ---------------------------------------------------------------------


class Worker:
    """Runs requests on one daemon thread so a hang becomes a timeout."""

    def __init__(self):
        self._jobs: queue.Queue = queue.Queue()
        self._done: queue.Queue = queue.Queue()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            job = self._jobs.get()
            started = time.perf_counter()
            try:
                result, error = job(), None
            except Exception as exc:  # reported as a failed request
                result, error = None, exc
            self._done.put((time.perf_counter() - started, result, error))

    def call(self, job: Callable, timeout_s: float):
        """``(elapsed_s, result, error)``; raises ``queue.Empty`` on hang."""
        self._jobs.put(job)
        return self._done.get(timeout=timeout_s)


class Outcome:
    """One statement's fate in the timed loop.  ``error`` is the repr of
    the exception, so outcomes cross the process boundary."""

    __slots__ = ("statement", "rows", "digest", "error")

    def __init__(self, statement, rows=None, digest=None, error=None):
        self.statement = statement
        self.rows = rows
        self.digest = digest
        self.error = error


def typed_digest(result) -> str:
    """Digest of a result's column types and typed cell values."""
    payload = repr(
        (
            [column.dtype.value for column in result.table.schema.columns],
            [[(type(v).__name__, v) for v in row] for row in result.rows],
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Pass:
    """Latencies and outcomes of one closed-loop pass."""

    def __init__(self):
        self.latencies_ms: List[float] = []
        self.outcomes: List[Outcome] = []
        self.elapsed_s = 0.0
        self.hung = False

    @property
    def requests(self) -> int:
        return len(self.latencies_ms)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error is None)


def run_pass(
    engine, spec, stream, worker: Worker, seconds: Optional[float],
    requests: Optional[int] = None, on_request: Optional[Callable] = None,
) -> Pass:
    """Closed loop: next request only after the previous one returned.

    Stops once ``seconds`` have elapsed, ``requests`` have run, or the
    planned statements are used up.
    """
    result = Pass()
    started = time.perf_counter()
    while True:
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        if requests is not None and result.requests >= requests:
            break
        batch = list(itertools.islice(stream, spec.batch))
        if len(batch) < spec.batch:
            break
        if on_request is not None:
            on_request(result.requests)
        if spec.batch == 1:
            job = lambda: [engine.execute(batch[0].sql)]  # noqa: E731
        else:
            job = lambda: engine.execute_many(  # noqa: E731
                [item.sql for item in batch],
                jobs=spec.jobs,
                timeout_s=STATEMENT_TIMEOUT_S,
                collect_outcomes=True,
            )
        try:
            elapsed, results, error = worker.call(
                job, STATEMENT_TIMEOUT_S * (2 if spec.batch > 1 else 1)
            )
        except queue.Empty:
            result.hung = True
            elapsed = STATEMENT_TIMEOUT_S
            results, error = None, TimeoutError("request hung")
        result.latencies_ms.append(elapsed * 1000.0)
        for index, item in enumerate(batch):
            if error is not None:
                result.outcomes.append(Outcome(item, error=repr(error)))
                continue
            outcome = results[index]
            if spec.batch > 1:
                if not outcome.ok:
                    result.outcomes.append(
                        Outcome(item, error=repr(outcome.error))
                    )
                    continue
                outcome = outcome.result
            result.outcomes.append(
                Outcome(item, outcome.rows, typed_digest(outcome))
            )
        if result.hung:
            break  # the engine is still busy: nothing more can be timed
    result.elapsed_s = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------
# The timed process
# ---------------------------------------------------------------------


def timed_process(conn, name, url, tables, planned, seconds, trace, stem):
    """Body of the timed process: reports a dict on ``conn``.

    ``--trace 0`` runs one pass for ``seconds``.  ``--trace 1`` runs
    half of that untraced, then as many requests traced on the same
    engine, continuing the plan.
    """
    try:
        result = _timed(name, url, tables, planned, seconds, trace, stem)
    except Exception:
        conn.send({"error": traceback.format_exc()})
        return
    conn.send(result)
    conn.close()
    if result["hung"]:
        # A hung request still holds engine threads; do not wait on them.
        os._exit(0)


def _timed(name, url, tables, planned, seconds, trace, stem) -> dict:
    spec = workload.workload_spec(name)
    engine, _ = set_up(spec.config, tables, url)
    stream = iter(planned)
    worker = Worker()
    before = server_stats(url)
    untraced = run_pass(engine, spec, stream, worker, seconds / 2 if trace else seconds)
    after = server_stats(url)
    result = {
        "untraced": untraced,
        "billed": billed(before, after),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hung": untraced.hung,
    }
    if trace and not untraced.hung:
        from spans import Tracer

        usage_before = usage_totals(engine)
        storage_before = engine.storage_stats
        tracer = Tracer()

        def on_request(index):
            tracer.request = index

        tracer.install()
        try:
            traced = run_pass(
                engine, spec, stream, worker, None,
                requests=untraced.requests, on_request=on_request,
            )
        finally:
            tracer.uninstall()
        traced_billed = billed(after, server_stats(url))
        usage_after = usage_totals(engine)
        usage_delta = {
            key: usage_after[key] - usage_before[key] for key in usage_after
        }
        tracer.write(
            OUT_DIR / f"{stem}.spans.jsonl",
            OUT_DIR / f"{stem}.layers.txt",
            traced.elapsed_s,
        )
        result.update(
            traced=traced,
            traced_billed=traced_billed,
            hung=traced.hung,
            per_layer=per_layer(
                tracer, traced, untraced, usage_delta,
                engine.storage_stats.minus(storage_before), engine, traced_billed,
            ),
            layers=(OUT_DIR / f"{stem}.layers.txt").read_text(),
        )
    if not result["hung"]:
        engine.close()
    return result


# ---------------------------------------------------------------------
# Per-layer metrics (``--trace 1``)
# ---------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 1.0 when both are zero (nothing to
    reconcile), the numerator when only the denominator is."""
    if denominator:
        return numerator / denominator
    return 1.0 if not numerator else float(numerator)


def usage_totals(engine) -> dict:
    usage = engine.usage
    return {
        name: getattr(usage, name)
        for name in (
            "calls", "prompt_tokens", "completion_tokens", "wall_ms", "dedup_hits",
        )
    }


def per_layer(tracer, traced: Pass, untraced: Pass, usage_delta, storage_delta,
              engine, server_billed) -> dict:
    statements = max(1, len(traced.outcomes))
    self_ms = tracer.self_ms()

    def spans(layer):
        return [span for span in tracer.spans if span.layer == layer]

    def self_per_stmt(layer):
        return sum(self_ms[span.span_id] for span in spans(layer)) / statements

    requests = spans("llm.request")
    request_ms = [span.duration * 1000.0 for span in requests]
    p50_request = statistics.median(request_ms) if request_ms else 0.0
    service = server_billed["service_ms"]
    p50_service = statistics.median(service) if service else 0.0

    busy = 0.0
    covered_until = None
    for span in sorted(requests, key=lambda span: span.start):
        if covered_until is None or span.start >= covered_until:
            busy += span.duration
            covered_until = span.end
        elif span.end > covered_until:
            busy += span.end - covered_until
            covered_until = span.end
    concurrency = sum(span.duration for span in requests) / busy if busy else 0.0

    if tracer.batchers:
        waves = sum(batcher.stats.waves for batcher in tracer.batchers)
        sized = sum(
            batcher.stats.completed + batcher.stats.failed
            for batcher in tracer.batchers
        )
    else:
        wave_spans = spans("runtime.wave")
        waves = len(wave_spans)
        sized = sum(span.tags["size"] for span in wave_spans)
    speculated = sum(stats.speculated for stats in tracer.dispatcher_stats)
    used = sum(stats.speculation_used for stats in tracer.dispatcher_stats)
    metered_tokens = usage_delta["prompt_tokens"] + usage_delta["completion_tokens"]
    hits = storage_delta.result_hits + storage_delta.fragment_hits
    probes = hits + storage_delta.result_misses + storage_delta.fragment_misses
    est_calls = sum(span.tags["est_calls"] for span in spans("plan.optimize"))
    per_request_s = [
        item.elapsed_s / max(1, item.requests) for item in (traced, untraced)
    ]
    return {
        "llm.requests": metric(len(requests) / statements, "count/stmt"),
        "llm.request_ms_p50": metric(p50_request, "ms"),
        "llm.wire_overhead_ms_p50": metric(p50_request - p50_service, "ms"),
        "llm.concurrency_mean": metric(concurrency, "requests"),
        "runtime.slot_wait_ms": metric(self_per_stmt("runtime.slot_wait"), "ms/stmt"),
        "runtime.wave_size_mean": metric(sized / waves if waves else 0.0, "requests"),
        "runtime.dedup_hits": metric(usage_delta["dedup_hits"] / statements, "count/stmt"),
        "runtime.sim_over_real": metric(
            usage_delta["wall_ms"] * workload.LATENCY_SCALE
            / (traced.elapsed_s * 1000.0),
            "ratio",
        ),
        "runtime.speculated": metric(speculated / statements, "count/stmt"),
        "runtime.speculation_used_ratio": metric(ratio(used, speculated), "ratio"),
        "llm.metered_calls": metric(usage_delta["calls"] / statements, "count/stmt"),
        "llm.metered_tokens": metric(metered_tokens / statements, "tokens/stmt"),
        "llm.metered_over_billed_tokens": metric(
            ratio(metered_tokens, server_billed["tokens"]), "ratio"
        ),
        "relational.compute_ms": metric(self_per_stmt("relational.compute"), "ms/stmt"),
        "relational.rows_out": metric(
            sum(span.tags["rows"] for span in spans("relational.compute")
                if span.tags) / statements,
            "count/stmt",
        ),
        "storage.read_ms": metric(self_per_stmt("storage.read"), "ms/stmt"),
        "storage.write_ms": metric(self_per_stmt("storage.write"), "ms/stmt"),
        "storage.hit_ratio": metric(hits / probes if probes else 0.0, "ratio"),
        "storage.bytes_used": metric(engine.storage.bytes_used, "bytes"),
        "stats.flush_ms": metric(self_per_stmt("stats.flush"), "ms/stmt"),
        "sql.parse_ms": metric(self_per_stmt("sql.parse"), "ms/stmt"),
        "sql.bind_ms": metric(self_per_stmt("sql.bind"), "ms/stmt"),
        "plan.optimize_ms": metric(self_per_stmt("plan.optimize"), "ms/stmt"),
        "core.execute_self_ms": metric(self_per_stmt("core.execute"), "ms/stmt"),
        "plan.est_over_actual_calls": metric(
            ratio(est_calls, usage_delta["calls"]), "ratio"
        ),
        "prompts.parse_ms": metric(self_per_stmt("prompts.parse"), "ms/stmt"),
        "prompts.parse_failures": metric(
            sum(1 for span in spans("prompts.parse") if span.tags) / statements,
            "count/stmt",
        ),
        "core.scan_ms": metric(tracer.outermost_ms("core.scan") / statements, "ms/stmt"),
        "core.lookup_ms": metric(
            tracer.outermost_ms("core.lookup") / statements, "ms/stmt"
        ),
        "obs.trace_overhead_ratio": metric(
            per_request_s[0] / per_request_s[1], "ratio"
        ),
    }
