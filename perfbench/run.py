"""Real-clock benchmark of the engine against an out-of-process model.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

The engine talks to a model server stand-in (``perfbench/server.py``, a
separate process speaking llama.cpp's ``POST /completion``) through the
shipped ``LlamaCppTransport``, so the urllib/JSON wire path and real
reply latency are part of what is measured.  One client thread in a
fresh process (``perfbench/loop.py``) runs a closed loop of seeded
statements for ``--seconds``; every result is checked against a serial,
storage-off reference engine (typed-row digests) and scored against the
world's ground truth.

The benchmark runs in a process group of its own under a small
supervisor (``supervise``), which kills and reaps whatever is left in
that group when the run ends, so no process outlives a run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same loop untraced for half the time, then the next as many requests
with spans around every layer's entry points, prints the per-layer
metrics, and writes the spans (JSONL) and a per-layer self-time table
under ``perfbench/out/``.  The last line of standard output is always
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
try:
    import loop
    import workload
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the engine ({exc}); run from a checkout")

#: Fresh processes whose set-up times give ``setup_s`` (their median).
SETUP_REPS = 9
#: Statements per second of ``--seconds`` that set-up prepares (server
#: memo warm-up and reference digests): 1.75 times the rate the parent
#: engine reaches on 2 vCPUs (interactive 21.6/s, batch 39.5/s).  The
#: timed loop stops when the plan is used up, so an engine more than 1.75
#: times as fast measures for less than ``--seconds`` instead of timing
#: completions the stand-in computes on the fly.  A wider margin costs
#: set-up time in every run.
PLANNED_PER_S = {"interactive": 38, "batch": 70}
#: Share of the timed requests whose completions the stand-in may compute
#: on the fly before the run is void.  Concurrent statements race for the
#: storage tier, so the timed ``batch`` engine can send a prompt the
#: warm-up did not (1 of ~2000 requests in 3 of 26 runs); each costs the
#: stand-in 10-40 ms of CPU, hidden in its own reply delay.
MAX_COMPUTED_SHARE = 0.01
#: Seconds beyond ``--seconds`` the timed process may take before the run
#: gives up on it (set-up plus two hung requests).
TIMED_SLACK_S = 30.0 + 4 * loop.STATEMENT_TIMEOUT_S
#: Set in the benchmark process that ``supervise`` starts.
SUPERVISED_ENV = "PERFBENCH_SUPERVISED"
#: Seconds ``supervise`` spends killing and reaping what the run left.
REAP_S = 10.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------
# Model server process
# ---------------------------------------------------------------------


class ModelServer:
    """The stand-in server as a child process on a loopback port."""

    def __init__(self, scale: float, noise: str):
        self._process = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--scale", str(scale), "--noise", noise,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._process.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("model server did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def close(self) -> None:
        try:
            self._process.stdin.close()
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


# ---------------------------------------------------------------------
# Set-up and preparation
# ---------------------------------------------------------------------


def measure_set_up(name: str, url: str, tables, processes: int) -> List[float]:
    """One set-up per fresh process, ``processes`` times in a row.

    Fresh processes because a process's speed varies with its own
    layout: repeating set-up inside one process would sample one process.
    """
    context = multiprocessing.get_context("spawn")
    with context.Pool(1, maxtasksperchild=1) as pool:
        return [
            pool.apply(loop.fresh_set_up, (name, url, tables))
            for _ in range(processes)
        ]


def warm_memo(spec, tables, url: str, statements) -> None:
    """Fill the server's memo with the completions the timed engine asks for.

    The planned statements run once, in order, through an engine
    configured like the timed one, against the undelayed endpoint: its
    speculative pages and storage-residual lookups are prompts the
    reference never sends.
    """
    engine, _ = loop.set_up(spec.config, tables, f"{url}/instant")
    try:
        for start in range(0, len(statements), spec.batch):
            sqls = [item.sql for item in statements[start:start + spec.batch]]
            if spec.batch == 1:
                engine.execute(sqls[0])
            else:
                engine.execute_many(
                    sqls, jobs=spec.jobs, timeout_s=loop.STATEMENT_TIMEOUT_S,
                    collect_outcomes=True,
                )
    finally:
        engine.close()


def oracle_rows(sqls: List[str]) -> list:
    """Ground-truth rows of each statement (runs in a worker process)."""
    executor = workload.combined_world().executor()
    return [executor.execute(sql).rows for sql in sqls]


class Checker:
    """Reference digests and ground truth for every planned statement.

    The reference is a serial, storage-off engine with
    ``max_in_flight=1`` asking the server's undelayed endpoint, so the
    same model the timed engine asks.  It runs during set-up, while the
    ground truth is computed in a worker process.
    """

    def __init__(self, tables, url: str):
        from repro.config import EngineConfig

        self._reference, _ = loop.set_up(
            EngineConfig(max_in_flight=1, storage_mode="off"), tables, f"{url}/instant"
        )
        self._digests: dict = {}
        self._truths: dict = {}

    def prepare(self, statements) -> None:
        from concurrent.futures import ProcessPoolExecutor

        sqls = [item.sql for item in statements]
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            truths = pool.submit(oracle_rows, sqls)
            for sql in sqls:
                self._digests[sql] = loop.typed_digest(self._reference.execute(sql))
            self._truths.update(zip(sqls, truths.result()))

    def verify(self, outcomes):
        """``(correct, f1s)``: every completed statement must match its
        reference digest; failed statements score an F1 of 0."""
        from repro.eval.metrics import tuple_metrics

        correct = True
        f1s = []
        for outcome in outcomes:
            if outcome.error is not None:
                f1s.append(0.0)
                continue
            sql = outcome.statement.sql
            if self._digests[sql] != outcome.digest:
                correct = False
                print(
                    f"MISMATCH #{outcome.statement.index}: {sql}",
                    file=sys.stderr,
                )
            f1s.append(tuple_metrics(outcome.rows, self._truths[sql]).f1)
        return correct, f1s

    def close(self) -> None:
        self._reference.close()


def run_timed(name, url, tables, planned, seconds, trace, stem) -> dict:
    """Run ``loop.timed_process`` in a fresh process; return its report."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=loop.timed_process,
        args=(sender, name, url, tables, planned, seconds, trace, stem),
    )
    process.start()
    sender.close()
    try:
        if not receiver.poll(seconds + TIMED_SLACK_S):
            raise RuntimeError("the timed process did not report")
        report = receiver.recv()
    finally:
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()
    if "error" in report:
        raise RuntimeError(f"the timed process failed:\n{report['error']}")
    return report


# ---------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------


def tail(latencies_ms: List[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten or fewer samples
    the maximum stands in.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(timed, setup_times, timed_billed, rss_mb, f1s) -> dict:
    metric = loop.metric
    value, percentile, samples = tail(timed.latencies_ms)
    print(
        f"tail latency: p{percentile:.1f} over {samples} requests "
        f"({min(10, samples - 1)} beyond it)"
    )
    late = [ms for ms in timed_billed["late_ms"] if ms > 1.0]
    print(
        f"server late by >1 ms on {len(late)} of "
        f"{len(timed_billed['late_ms'])} requests ({sum(late):.0f} ms in all)"
    )
    completed = max(1, timed.completed)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "request_latency_p50_ms": metric(
            statistics.median(timed.latencies_ms), "ms"
        ),
        "request_latency_tail_ms": metric(value, "ms"),
        "stmt_per_s": metric(timed.completed / timed.elapsed_s, "1/s"),
        "model_requests_per_stmt": metric(
            timed_billed["requests"] / completed, "count"
        ),
        "billed_tokens_per_stmt": metric(timed_billed["tokens"] / completed, "tokens"),
        "answer_f1": metric(statistics.fmean(f1s), "ratio"),
        "completed_frac": metric(timed.completed / len(timed.outcomes), "ratio"),
        "rss_peak_mb": metric(rss_mb, "MB"),
    }


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------


class Phases:
    """Wall time of each phase of a run, for the summary line."""

    def __init__(self):
        self._last = time.perf_counter()
        self._phases: List[tuple] = []

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self._phases.append((name, now - self._last))
        self._last = now

    def render(self) -> str:
        return "phases: " + ", ".join(
            f"{name} {seconds:.1f}s" for name, seconds in self._phases
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    clock = Phases()
    loop.OUT_DIR.mkdir(exist_ok=True)
    spec = workload.workload_spec(args.workload)
    world = workload.combined_world()
    tables = workload.registration(world)
    batches = -(-PLANNED_PER_S[args.workload] * args.seconds // spec.batch)
    planned = list(
        itertools.islice(
            workload.statements(world, args.workload, args.seed),
            int(batches) * spec.batch,
        )
    )
    server = ModelServer(workload.LATENCY_SCALE, spec.noise)
    checker = None
    clock.mark("start")
    try:
        checker = Checker(tables, server.url)
        setup_times = measure_set_up(args.workload, server.url, tables, SETUP_REPS)
        clock.mark("set-up")
        # Concurrent warm-up first keeps the server busy computing; the
        # serial reference then mostly reads its memo.
        warm_memo(spec, tables, server.url, planned)
        clock.mark("memo warm-up")
        checker.prepare(planned)
        clock.mark("reference")
        report = run_timed(
            args.workload, server.url, tables, planned, args.seconds, args.trace,
            f"{args.workload}-seed{args.seed}",
        )
        clock.mark("timed")
        passes = [report["untraced"]]
        if "traced" in report:
            passes.append(report["traced"])
        outcomes = [outcome for item in passes for outcome in item.outcomes]
        correct, f1s = checker.verify(outcomes)
        clock.mark("check")
    finally:
        if checker is not None:
            checker.close()
        server.close()

    clock.mark("teardown")
    print(clock.render())
    timed_billed = [report[key] for key in ("billed", "traced_billed") if key in report]
    computed = sum(item["computed"] for item in timed_billed)
    received = sum(item["requests"] for item in timed_billed)
    print(f"{computed} of {received} completions computed, not memoised")
    if computed > MAX_COMPUTED_SHARE * received:
        return _fail(
            f"the timed engine asked for {computed} completions the memo "
            "warm-up did not, so the stand-in's own CPU was timed; no result"
        )
    if args.trace and "per_layer" not in report:
        return _fail("the untraced pass hung, so no traced pass ran; no result")
    failed = sum(1 for outcome in outcomes if outcome.error is not None)
    print(
        f"{args.workload}: seed {args.seed}, {len(outcomes)} statements "
        f"({len(planned)} planned), {failed} failed, classes "
        f"{workload.class_counts([o.statement for o in outcomes])}"
    )
    if args.trace:
        print(report["layers"], end="")
        metrics = report["per_layer"]
    else:
        metrics = end_to_end(
            report["untraced"], setup_times, report["billed"], report["rss_mb"], f1s
        )
    for key, value in metrics.items():
        print(f"  {key:<32} {value['value']:>14.4f} {value['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


# ---------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    the processes a run leaves behind are ours to reap, not init's."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def supervise(argv: List[str]) -> int:
    """Run the benchmark in a process group of its own, then kill and
    reap every process still in it.

    The run starts a model server with its worker processes, spawned
    pools and the timed process, and ``multiprocessing`` starts a
    resource tracker in each spawning process that outlives it; any of
    these can outlast the run on some path out of it.  Killing the
    group and reaping as a subreaper leaves nothing running and no
    zombie behind, whatever path the run took.
    """
    _become_subreaper()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env={**os.environ, SUPERVISED_ENV: "1"},
        start_new_session=True,
    )

    def forward(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    code = 1
    try:
        code = child.wait()
    finally:
        deadline = time.monotonic() + REAP_S
        while time.monotonic() < deadline:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no child left, alive or zombie
            if pid == 0:
                time.sleep(0.01)
    return code


if __name__ == "__main__":
    if os.environ.get(SUPERVISED_ENV):
        sys.exit(main())
    sys.exit(supervise(sys.argv[1:]))
