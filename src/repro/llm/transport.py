"""Model transports: the adapter between the engine and a model backend.

The engine above :class:`~repro.llm.interface.LanguageModel` never cares
where completions come from; a :class:`Transport` is the one adapter
that does.  It carries three surfaces over a single implementation:

* the **sync** :class:`~repro.llm.interface.LanguageModel` surface
  (``complete`` / ``complete_many``) that the existing metered/caching
  stack consumes unchanged;
* the **async-native** surface (``complete_async`` /
  ``complete_many_async``) that the event-loop core
  (:func:`repro.runtime.dispatcher.get_event_loop_core`) and the
  continuous batcher (:mod:`repro.runtime.batching`) drive — network
  transports overlap their I/O here instead of burning a thread per
  call;
* the **streaming** surface (``open_completion_stream``) yielding
  ``(index, completion)`` pairs as requests land, in completion order.

Registered transports:

* ``simulated`` — wraps any in-process model (normally
  :class:`~repro.llm.simulated.SimulatedLLM`); the deterministic
  default.
* ``openai`` — an OpenAI-style chat-completions HTTP client.  Online
  only when an API key is configured; it prefers the ``openai`` SDK
  when the package is installed (probed with ``importlib.util.find_spec``
  so the dependency stays optional) and otherwise speaks the wire
  protocol through stdlib ``urllib``.
* ``llamacpp`` — a llama.cpp ``llama-server`` client (``POST
  /completion``), online only when a server URL is configured.

**Offline fallback is total delegation.**  A network transport without
credentials/endpoint delegates every request to a required in-process
fallback model and *reports the fallback's identity* as its
``model_name``.  That single decision is what keeps the whole engine
byte-identical offline: prompt-cache keys, storage-tier scopes, and
cross-query dedup scopes are all derived from the model name, so an
offline ``openai`` engine shares nothing with (and loses nothing
against) a plain in-process engine.  :func:`ensure_latency` additionally
guards accounting: a transport that reports no latency (zero, NaN, or
negative — common for HTTP backends without timing fields) gets a
deterministic synthetic latency from the same
:class:`~repro.llm.simulated.LatencyModel` the simulated model uses, so
``UsageSnapshot`` wall/latency totals never collapse to zero or NaN.
"""

from __future__ import annotations

import asyncio
import importlib
import importlib.util
import json
import math
import os
import time
from concurrent.futures import Executor, as_completed
from contextvars import ContextVar
from dataclasses import replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError, TransportError
from repro.llm.cache import resolve_model_name
from repro.llm.interface import (
    BatchRequest,
    Completion,
    CompletionOptions,
    as_batching,
)
from repro.llm.simulated import LatencyModel
from repro.llm.tokenizer import count_tokens

#: Executor the default :meth:`Transport.complete_async` runs blocking
#: calls on; ``None`` means the running loop's default executor.  The
#: continuous batcher sets its slot-sized pool here for each request it
#: admits.
wire_executor: ContextVar[Optional[Executor]] = ContextVar(
    "wire_executor", default=None
)

#: Default OpenAI-style endpoint; overridable per transport or via env.
OPENAI_DEFAULT_URL = "https://api.openai.com/v1"
OPENAI_DEFAULT_MODEL = "gpt-4o-mini"


def ensure_latency(
    completion: Completion, latency_model: LatencyModel
) -> Completion:
    """Guarantee a finite, positive ``latency_ms`` on a completion.

    Real backends routinely omit timing information; propagating a zero
    (or NaN) latency would poison the wall-clock accounting that every
    makespan commit is built on.  Missing latencies are synthesized from
    token counts with the same deterministic model the simulated LLM
    uses, so offline and online accounting stay on one scale.
    """
    latency = completion.latency_ms
    if latency is not None and math.isfinite(latency) and latency > 0.0:
        return completion
    return replace(
        completion,
        latency_ms=latency_model.latency(
            completion.prompt_tokens, completion.completion_tokens
        ),
    )


def _http_post_json(
    url: str,
    payload: dict,
    headers: Optional[Dict[str, str]] = None,
    timeout_s: float = 30.0,
) -> Tuple[dict, float]:
    """POST JSON, return (parsed body, elapsed milliseconds).

    Module-level so tests monkeypatch the wire without a server.
    """
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    started = time.perf_counter()
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        body = json.loads(response.read().decode("utf-8"))
    return body, (time.perf_counter() - started) * 1000.0


def _openai_client(api_key: Optional[str], base_url: str):
    """The ``openai`` SDK client, or ``None`` when not installed.

    The import is probed, never required: environments without the
    package fall through to the stdlib HTTP path (online) or the
    deterministic fallback model (offline).
    """
    if importlib.util.find_spec("openai") is None:
        return None
    openai_module = importlib.import_module("openai")
    OpenAI = getattr(openai_module, "OpenAI")
    return OpenAI(api_key=api_key, base_url=base_url)


class Transport:
    """Base adapter: one implementation, sync + async + stream surfaces.

    Subclasses implement :meth:`_complete` (and may override
    :meth:`complete_async` when they can do better than delegating the
    blocking call to an executor thread — e.g. the simulated
    transport computes inline, a native-async backend would await its
    own client).  Everything returned to callers passes through
    :func:`ensure_latency`.
    """

    #: Registry name; subclasses override.
    name = "transport"
    #: Duck-typed marker (``isinstance`` across reloads is fragile).
    is_transport = True

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        self._latency_model = latency_model or LatencyModel()

    # -- identity ------------------------------------------------------

    @property
    def model_name(self) -> str:
        """The identity caches and storage scopes key on."""
        raise NotImplementedError

    @property
    def offline(self) -> bool:
        """Whether requests are served by the in-process fallback."""
        return False

    def describe(self) -> str:
        """One human-readable line for ``.storage`` / usage output."""
        return self.name

    # -- implementation hook -------------------------------------------

    def _complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        raise NotImplementedError

    # -- sync LanguageModel surface ------------------------------------

    def complete(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        return ensure_latency(
            self._complete(prompt, options), self._latency_model
        )

    def complete_many(
        self, requests: Sequence[BatchRequest]
    ) -> List[Completion]:
        """Batch entry point: issued concurrently on the event-loop core.

        Results come back in request order; a single-element batch skips
        the loop round-trip entirely.
        """
        requests = list(requests)
        if not requests:
            return []
        if len(requests) == 1:
            prompt, options = requests[0]
            return [self.complete(prompt, options)]
        from repro.runtime.dispatcher import get_event_loop_core

        return get_event_loop_core().run(self.complete_many_async(requests))

    # -- async-native surface ------------------------------------------

    async def complete_async(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        """One completion without blocking the event loop.

        The default runs the (blocking) sync implementation on the
        executor in :data:`wire_executor`: for calls the continuous
        batcher admits, its own pool of ``batch_slots`` threads.  Other
        callers get the loop's default executor, whose ``min(32, cpu +
        4)`` threads cap how many socket waits overlap.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            wire_executor.get(), self.complete, prompt, options
        )

    async def complete_many_async(
        self, requests: Sequence[BatchRequest]
    ) -> List[Completion]:
        return list(
            await asyncio.gather(
                *(self.complete_async(prompt, options) for prompt, options in requests)
            )
        )

    # -- streaming surface ---------------------------------------------

    def open_completion_stream(
        self, requests: Sequence[BatchRequest]
    ) -> Iterator[Tuple[int, Completion]]:
        """Yield ``(request_index, completion)`` in completion order.

        All requests are issued concurrently on the event-loop core;
        consumers see each result as soon as it lands rather than
        waiting for the slowest element of the batch.  Closing the
        iterator early abandons the remaining results (the underlying
        calls still finish on the loop; nothing leaks un-awaited).
        """
        from repro.runtime.dispatcher import get_event_loop_core

        core = get_event_loop_core()
        futures = {}
        for index, (prompt, options) in enumerate(requests):
            futures[core.submit(self.complete_async(prompt, options))] = index
        for future in as_completed(futures):
            yield futures[future], future.result()


class SimulatedTransport(Transport):
    """The in-process transport: wraps any local model, zero wire cost."""

    name = "simulated"

    def __init__(self, model, latency_model: Optional[LatencyModel] = None):
        super().__init__(latency_model)
        if model is None:
            raise ConfigError(
                "simulated transport needs the in-process model it serves "
                "(fallback_model=)"
            )
        self._model = as_batching(model)

    @property
    def model_name(self) -> str:
        return resolve_model_name(self._model)

    def describe(self) -> str:
        return f"simulated (in-process {self.model_name})"

    def _complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        return self._model.complete(prompt, options)

    def complete_many(
        self, requests: Sequence[BatchRequest]
    ) -> List[Completion]:
        # The inner model may batch natively; no loop round-trip needed
        # for pure in-process compute.
        return [
            ensure_latency(completion, self._latency_model)
            for completion in self._model.complete_many(list(requests))
        ]

    async def complete_async(
        self, prompt: str, options: CompletionOptions = CompletionOptions()
    ) -> Completion:
        # In-process compute is microseconds; running it inline on the
        # loop beats an executor hop and keeps results deterministic
        # under any scheduling.
        return self.complete(prompt, options)


class OpenAITransport(Transport):
    """OpenAI-style chat-completions client with deterministic fallback.

    Online when an API key is available (argument or ``OPENAI_API_KEY``);
    the endpoint defaults to ``OPENAI_BASE_URL`` or the public API.  The
    SDK is used when installed, else the stdlib wire path.  Offline,
    every request is delegated to ``fallback_model`` and the transport
    *is* that model as far as identity-keyed machinery is concerned.
    """

    name = "openai"

    def __init__(
        self,
        fallback_model=None,
        url: Optional[str] = None,
        model: str = OPENAI_DEFAULT_MODEL,
        api_key: Optional[str] = None,
        latency_model: Optional[LatencyModel] = None,
        timeout_s: float = 30.0,
        offline: Optional[bool] = None,
    ):
        super().__init__(latency_model)
        self._url = (
            url or os.environ.get("OPENAI_BASE_URL") or OPENAI_DEFAULT_URL
        ).rstrip("/")
        self._api_key = (
            api_key if api_key is not None else os.environ.get("OPENAI_API_KEY")
        )
        self._model = model or OPENAI_DEFAULT_MODEL
        self._timeout_s = timeout_s
        self._offline = bool(offline) if offline is not None else not self._api_key
        self._fallback = (
            as_batching(fallback_model) if fallback_model is not None else None
        )
        self._client = (
            None if self._offline else _openai_client(self._api_key, self._url)
        )
        if self._offline and self._fallback is None:
            raise ConfigError(
                "openai transport is offline (no API key) and has no "
                "fallback model; pass fallback_model= or set OPENAI_API_KEY"
            )

    @property
    def offline(self) -> bool:
        return self._offline

    @property
    def model_name(self) -> str:
        if self._offline:
            return resolve_model_name(self._fallback)
        return f"openai/{self._model}"

    def describe(self) -> str:
        if self._offline:
            return f"openai (offline fallback → {self.model_name})"
        via = "sdk" if self._client is not None else "http"
        return f"openai ({self._model} @ {self._url}, {via})"

    def _complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        if self._offline:
            return self._fallback.complete(prompt, options)
        if self._client is not None:
            return self._sdk_complete(prompt, options)
        return self._http_complete(prompt, options)

    def _sdk_complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        try:
            response = self._client.chat.completions.create(
                model=self._model,
                messages=[{"role": "user", "content": prompt}],
                temperature=options.temperature,
                max_tokens=options.max_tokens,
            )
            choice = response.choices[0]
            text = choice.message.content or ""
        except Exception as exc:
            raise TransportError(f"openai request failed: {exc}") from exc
        usage = getattr(response, "usage", None)
        return Completion(
            text=text,
            prompt_tokens=int(
                getattr(usage, "prompt_tokens", 0) or count_tokens(prompt)
            ),
            completion_tokens=int(
                getattr(usage, "completion_tokens", 0) or count_tokens(text)
            ),
            truncated=getattr(choice, "finish_reason", "") == "length",
            # The SDK reports no timing; ensure_latency synthesizes one.
            latency_ms=0.0,
            model_name=self.model_name,
        )

    def _http_complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        payload = {
            "model": self._model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": options.temperature,
            "max_tokens": options.max_tokens,
        }
        try:
            body, elapsed_ms = _http_post_json(
                f"{self._url}/chat/completions",
                payload,
                headers={"Authorization": f"Bearer {self._api_key}"},
                timeout_s=self._timeout_s,
            )
        except (OSError, ValueError) as exc:
            raise TransportError(f"openai request failed: {exc}") from exc
        try:
            choice = body["choices"][0]
            text = choice.get("message", {}).get("content") or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(
                f"openai response malformed: {exc}"
            ) from exc
        usage = body.get("usage") or {}
        return Completion(
            text=text,
            prompt_tokens=int(
                usage.get("prompt_tokens") or count_tokens(prompt)
            ),
            completion_tokens=int(
                usage.get("completion_tokens") or count_tokens(text)
            ),
            truncated=choice.get("finish_reason") == "length",
            latency_ms=float(elapsed_ms),
            model_name=self.model_name,
        )


class LlamaCppTransport(Transport):
    """llama.cpp ``llama-server`` client (``POST /completion``).

    Online when a server URL is configured (argument,
    ``LLAMA_SERVER_URL``, or ``REPRO_LLAMACPP_URL``); offline it
    delegates to the fallback model like :class:`OpenAITransport`.  The
    server's own ``timings`` (prompt + predicted milliseconds) become
    the completion latency when present.
    """

    name = "llamacpp"

    def __init__(
        self,
        fallback_model=None,
        url: Optional[str] = None,
        latency_model: Optional[LatencyModel] = None,
        timeout_s: float = 60.0,
        offline: Optional[bool] = None,
        model: str = "default",
    ):
        super().__init__(latency_model)
        self._url = (
            url
            or os.environ.get("LLAMA_SERVER_URL")
            or os.environ.get("REPRO_LLAMACPP_URL")
            or ""
        ).rstrip("/")
        self._model = model or "default"
        self._timeout_s = timeout_s
        self._offline = bool(offline) if offline is not None else not self._url
        self._fallback = (
            as_batching(fallback_model) if fallback_model is not None else None
        )
        if self._offline and self._fallback is None:
            raise ConfigError(
                "llamacpp transport is offline (no server URL) and has no "
                "fallback model; pass fallback_model= or set LLAMA_SERVER_URL"
            )

    @property
    def offline(self) -> bool:
        return self._offline

    @property
    def model_name(self) -> str:
        if self._offline:
            return resolve_model_name(self._fallback)
        return f"llamacpp/{self._model}@{self._url}"

    def describe(self) -> str:
        if self._offline:
            return f"llamacpp (offline fallback → {self.model_name})"
        return f"llamacpp (server @ {self._url})"

    def _complete(
        self, prompt: str, options: CompletionOptions
    ) -> Completion:
        if self._offline:
            return self._fallback.complete(prompt, options)
        payload = {
            "prompt": prompt,
            "temperature": options.temperature,
            "n_predict": options.max_tokens,
            # Repeat samples decode with distinct seeds so voting sees
            # independent draws, mirroring the simulated model's
            # per-sample determinism.
            "seed": options.sample_index,
            "cache_prompt": True,
        }
        try:
            body, elapsed_ms = _http_post_json(
                f"{self._url}/completion", payload, timeout_s=self._timeout_s
            )
        except (OSError, ValueError) as exc:
            raise TransportError(f"llamacpp request failed: {exc}") from exc
        if not isinstance(body, dict) or "content" not in body:
            raise TransportError(
                f"llamacpp response malformed: missing 'content' in {body!r:.200}"
            )
        text = body.get("content") or ""
        timings = body.get("timings") or {}
        server_ms = float(timings.get("prompt_ms") or 0.0) + float(
            timings.get("predicted_ms") or 0.0
        )
        return Completion(
            text=text,
            prompt_tokens=int(
                body.get("tokens_evaluated")
                or timings.get("prompt_n")
                or count_tokens(prompt)
            ),
            completion_tokens=int(
                body.get("tokens_predicted")
                or timings.get("predicted_n")
                or count_tokens(text)
            ),
            truncated=bool(body.get("truncated"))
            or body.get("stop_type") == "limit",
            latency_ms=server_ms or float(elapsed_ms),
            model_name=self.model_name,
        )


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., Transport]] = {}


def register_transport(name: str):
    """Class/factory decorator adding a transport under ``name``."""

    def decorate(factory):
        _REGISTRY[name] = factory
        return factory

    return decorate


def available_transports() -> Tuple[str, ...]:
    """Registered transport names, sorted."""
    return tuple(sorted(_REGISTRY))


def build_transport(
    name: str,
    fallback_model=None,
    url: Optional[str] = None,
    model: Optional[str] = None,
    api_key: Optional[str] = None,
    latency_model: Optional[LatencyModel] = None,
    offline: Optional[bool] = None,
) -> Transport:
    """Instantiate a registered transport with normalized arguments.

    ``offline=True`` forces the deterministic fallback path regardless
    of ambient credentials — the conformance suite and CI run every
    transport this way so results never depend on the environment.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown transport {name!r}; "
            f"available: {', '.join(available_transports())}"
        )
    return factory(
        fallback_model=fallback_model,
        url=url,
        model=model,
        api_key=api_key,
        latency_model=latency_model,
        offline=offline,
    )


@register_transport("simulated")
def _build_simulated(
    fallback_model=None, latency_model=None, **_ignored
) -> SimulatedTransport:
    return SimulatedTransport(fallback_model, latency_model=latency_model)


@register_transport("openai")
def _build_openai(
    fallback_model=None,
    url=None,
    model=None,
    api_key=None,
    latency_model=None,
    offline=None,
) -> OpenAITransport:
    return OpenAITransport(
        fallback_model=fallback_model,
        url=url,
        model=model or OPENAI_DEFAULT_MODEL,
        api_key=api_key,
        latency_model=latency_model,
        offline=offline,
    )


@register_transport("llamacpp")
def _build_llamacpp(
    fallback_model=None,
    url=None,
    model=None,
    latency_model=None,
    offline=None,
    **_ignored,
) -> LlamaCppTransport:
    return LlamaCppTransport(
        fallback_model=fallback_model,
        url=url,
        model=model or "default",
        latency_model=latency_model,
        offline=offline,
    )


def as_transport(model) -> Transport:
    """``model`` if it already is a transport, else wrapped in-process."""
    if getattr(model, "is_transport", False):
        return model
    return SimulatedTransport(model)


def transport_from_config(config, fallback_model) -> Transport:
    """The transport an :class:`~repro.config.EngineConfig` names."""
    return build_transport(
        config.transport, fallback_model=fallback_model, url=config.transport_url
    )


def transport_label(model) -> Optional[str]:
    """Short usage-line label, or ``None`` for plain in-process models."""
    if not getattr(model, "is_transport", False):
        return None
    label = str(getattr(model, "name", "transport"))
    if getattr(model, "offline", False):
        label += " (offline)"
    return label
