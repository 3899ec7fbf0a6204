"""Model server stand-in: llama.cpp's ``POST /completion`` on loopback.

Backed by ``SimulatedLLM`` over the benchmark's world, with the noise
``--noise`` names.  Each reply leaves ``latency_ms x scale`` after the
request was received, where ``latency_ms`` is the simulated model's own
latency for that completion, so real elapsed time follows the latency
model the engine's simulated clock uses.  Completions are memoised, so after warm-up the server's own
CPU drops out of the reply time.

The server is the outside source of truth for what the engine sent:
``GET /stats`` returns the requests received, the tokens served (what a
user is billed), the per-request service times, and how late each reply
was because computing the completion outlasted its delay.  The same model is
also served without delay and without counting at
``POST /instant/completion``, for the benchmark's reference engine.

Run as ``python3 perfbench/server.py --scale 0.05 --noise default``; it
prints ``PORT <n>`` once listening and exits when its standard input
closes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.llm.interface import CompletionOptions  # noqa: E402

from workload import NOISE, combined_world, simulated_model  # noqa: E402


#: Processes computing completions that are not memoised yet.
WORKERS = 2

_MODEL = None


def _start_worker(noise: str) -> None:
    global _MODEL
    _MODEL = simulated_model(combined_world(), noise)


def _complete_in_worker(prompt: str, options: CompletionOptions):
    return _MODEL.complete(prompt, options)


class ModelService:
    """Memoised simulated completions plus the counters ``/stats`` reports.

    Completions not yet memoised are computed in worker processes, so
    concurrent requests use every core instead of one interpreter.
    """

    def __init__(self, scale: float, noise: str, workers: int):
        self._latency_model = simulated_model(combined_world(), noise).latency_model
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker,
            initargs=(noise,),
        )
        self._scale = scale
        self._memo = {}
        self._lock = threading.Lock()
        self.requests = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.service_ms = []
        self.late_ms = []
        self.computed = 0

    def complete(self, payload: dict):
        options = CompletionOptions(
            temperature=float(payload.get("temperature", 0.0)),
            max_tokens=int(payload.get("n_predict", 512)),
            sample_index=int(payload.get("seed", 0)),
        )
        key = (payload["prompt"], options)
        completion = self._memo.get(key)
        if completion is None:
            completion = self._pool.submit(
                _complete_in_worker, payload["prompt"], options
            ).result()
            self._memo[key] = completion
            with self._lock:
                self.computed += 1
        return completion

    def reply_delay_s(self, completion) -> float:
        return completion.latency_ms * self._scale / 1000.0

    def prompt_ms(self, completion) -> float:
        return self._latency_model.latency(completion.prompt_tokens, 0)

    def record(self, completion, service_ms: float, late_ms: float) -> None:
        with self._lock:
            self.requests += 1
            self.prompt_tokens += completion.prompt_tokens
            self.completion_tokens += completion.completion_tokens
            self.service_ms.append(service_ms)
            self.late_ms.append(late_ms)

    def close(self) -> None:
        self._pool.shutdown()

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
                "service_ms": list(self.service_ms),
                "late_ms": list(self.late_ms),
                "computed": self.computed,
            }


class Handler(BaseHTTPRequestHandler):
    service: ModelService  # set on the subclass built by ``serve``

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send_json(self, body: dict, status: int = 200) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._send_json(self.service.stats())
        else:
            self._send_json({"error": "not found"}, 404)

    def do_POST(self):
        if self.path not in ("/completion", "/instant/completion"):
            self._send_json({"error": "not found"}, 404)
            return
        metered = self.path == "/completion"
        length = int(self.headers.get("Content-Length", 0))
        received = time.perf_counter()
        payload = json.loads(self.rfile.read(length))
        completion = self.service.complete(payload)
        remaining = (
            received + self.service.reply_delay_s(completion) - time.perf_counter()
        )
        if metered and remaining > 0:
            time.sleep(remaining)
        prompt_ms = self.service.prompt_ms(completion)
        body = {
            "content": completion.text,
            "tokens_evaluated": completion.prompt_tokens,
            "tokens_predicted": completion.completion_tokens,
            "truncated": completion.truncated,
            "stop_type": "limit" if completion.truncated else "eos",
            # Simulated timings, so the engine's simulated clock matches
            # the in-process model's exactly.
            "timings": {
                "prompt_n": completion.prompt_tokens,
                "prompt_ms": prompt_ms,
                "predicted_n": completion.completion_tokens,
                "predicted_ms": completion.latency_ms - prompt_ms,
            },
        }
        if metered:
            self.service.record(
                completion,
                (time.perf_counter() - received) * 1000.0,
                max(0.0, -remaining) * 1000.0,
            )
        self._send_json(body)


def serve(scale: float, noise: str, workers: int) -> None:
    service = ModelService(scale, noise, workers)
    handler = type("BoundHandler", (Handler,), {"service": service})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        service.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--noise", choices=sorted(NOISE), required=True)
    args = parser.parse_args()
    serve(args.scale, args.noise, WORKERS)


if __name__ == "__main__":
    main()
