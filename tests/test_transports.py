"""Transport conformance: every registered transport, offline mode.

Each registered transport is built with ``offline=True`` and the shared
simulated model as fallback, then held to one contract: completions,
token counts, latencies, and identity are byte-identical to calling the
in-process model directly — across the sync, async, and streaming
surfaces.  This is the invariant that makes ``--transport openai`` on a
machine without credentials indistinguishable from the plain engine.

Online wire paths are exercised against a monkeypatched
``_http_post_json`` so no test ever opens a socket.  The whole module
must pass under ``-W error::RuntimeWarning`` (CI runs it that way): an
un-awaited coroutine anywhere in the transport stack is a failure.
"""

import asyncio
import math
import threading

import pytest

import repro.llm.transport as transport_mod
from repro.config import EngineConfig
from repro.errors import ConfigError, TransportError
from repro.llm.interface import CompletionOptions
from repro.llm.simulated import LatencyModel
from repro.llm.transport import (
    LlamaCppTransport,
    OpenAITransport,
    SimulatedTransport,
    Transport,
    as_transport,
    available_transports,
    build_transport,
    ensure_latency,
    register_transport,
    transport_from_config,
    transport_label,
)
from tests.conftest import make_engine

PROMPTS = [
    "What is the capital of France?",
    "List three composers.",
    "TASK: nonsense probe",
]


def build_offline(name, model):
    return build_transport(name, fallback_model=model, offline=True)


# ---------------------------------------------------------------------
# Conformance: every registered transport, offline
# ---------------------------------------------------------------------


def test_registry_lists_all_builtins():
    names = available_transports()
    assert "simulated" in names
    assert "openai" in names
    assert "llamacpp" in names


@pytest.mark.parametrize("name", available_transports())
def test_offline_completions_match_fallback(name, perfect_model):
    transport = build_offline(name, perfect_model)
    for prompt in PROMPTS:
        direct = ensure_latency(
            perfect_model.complete(prompt), transport._latency_model
        )
        via = transport.complete(prompt)
        assert via == direct


@pytest.mark.parametrize("name", available_transports())
def test_offline_model_name_is_fallback_identity(name, perfect_model):
    transport = build_offline(name, perfect_model)
    assert transport.model_name == perfect_model.model_name


@pytest.mark.parametrize("name", available_transports())
def test_describe_names_the_transport(name, perfect_model):
    transport = build_offline(name, perfect_model)
    assert name in transport.describe()
    assert name in transport_label(transport)


@pytest.mark.parametrize("name", available_transports())
def test_latency_always_finite_positive(name, perfect_model):
    transport = build_offline(name, perfect_model)
    for prompt in PROMPTS:
        latency = transport.complete(prompt).latency_ms
        assert math.isfinite(latency) and latency > 0.0


@pytest.mark.parametrize("name", available_transports())
def test_complete_many_preserves_request_order(name, perfect_model):
    transport = build_offline(name, perfect_model)
    requests = [(prompt, CompletionOptions()) for prompt in PROMPTS]
    batch = transport.complete_many(requests)
    assert len(batch) == len(PROMPTS)
    for (prompt, options), completion in zip(requests, batch):
        assert completion == transport.complete(prompt, options)
    assert transport.complete_many([]) == []
    single = transport.complete_many(requests[:1])
    assert single == batch[:1]


@pytest.mark.parametrize("name", available_transports())
def test_async_surface_matches_sync(name, perfect_model):
    transport = build_offline(name, perfect_model)

    async def drive():
        one = await transport.complete_async(PROMPTS[0])
        many = await transport.complete_many_async(
            [(prompt, CompletionOptions()) for prompt in PROMPTS]
        )
        return one, many

    one, many = asyncio.run(drive())
    assert one == transport.complete(PROMPTS[0])
    assert many == transport.complete_many(
        [(prompt, CompletionOptions()) for prompt in PROMPTS]
    )


@pytest.mark.parametrize("name", available_transports())
def test_stream_yields_every_request_exactly_once(name, perfect_model):
    transport = build_offline(name, perfect_model)
    requests = [(prompt, CompletionOptions()) for prompt in PROMPTS]
    seen = dict(transport.open_completion_stream(requests))
    assert sorted(seen) == list(range(len(PROMPTS)))
    for index, (prompt, options) in enumerate(requests):
        assert seen[index] == transport.complete(prompt, options)


@pytest.mark.parametrize("name", available_transports())
def test_engine_results_identical_through_any_transport(
    name, perfect_model, mini_world
):
    sql = "SELECT name, population FROM countries WHERE continent = 'Europe'"
    plain = make_engine(perfect_model, mini_world).execute(sql)
    transported = make_engine(
        build_offline(name, perfect_model), mini_world
    ).execute(sql)
    assert transported.rows == plain.rows
    assert transported.render() == plain.render()


@pytest.mark.parametrize("name", available_transports())
def test_sample_index_reaches_the_fallback(name, perfect_model):
    transport = build_offline(name, perfect_model)
    prompt = PROMPTS[0]
    base = transport.complete(prompt, CompletionOptions(sample_index=0))
    again = transport.complete(prompt, CompletionOptions(sample_index=0))
    assert base == again  # deterministic per (prompt, sample_index)


# ---------------------------------------------------------------------
# ensure_latency (the S4 accounting guard)
# ---------------------------------------------------------------------


@pytest.mark.parametrize("broken", [0.0, -3.0, float("nan"), float("inf")])
def test_ensure_latency_synthesizes_missing_latency(broken):
    from repro.llm.interface import Completion

    model = LatencyModel()
    completion = Completion(
        text="x", prompt_tokens=10, completion_tokens=4, latency_ms=broken
    )
    fixed = ensure_latency(completion, model)
    assert math.isfinite(fixed.latency_ms) and fixed.latency_ms > 0.0
    assert fixed.latency_ms == model.latency(10, 4)
    # Everything but the latency is untouched.
    assert (fixed.text, fixed.prompt_tokens, fixed.completion_tokens) == (
        "x",
        10,
        4,
    )


def test_ensure_latency_preserves_reported_latency():
    from repro.llm.interface import Completion

    completion = Completion(
        text="x", prompt_tokens=1, completion_tokens=1, latency_ms=17.5
    )
    assert ensure_latency(completion, LatencyModel()) is completion


def test_offline_usage_matches_in_process_usage(perfect_model, mini_world):
    """Offline fallback keeps UsageSnapshot accounting identical (S4)."""
    sql = "SELECT population FROM countries WHERE name = 'Japan'"
    plain = make_engine(perfect_model, mini_world)
    plain.execute(sql)
    wrapped = make_engine(
        build_offline("openai", perfect_model), mini_world
    )
    wrapped.execute(sql)
    a, b = plain.usage, wrapped.usage
    assert (a.calls, a.prompt_tokens, a.completion_tokens) == (
        b.calls,
        b.prompt_tokens,
        b.completion_tokens,
    )
    assert a.cost_usd == b.cost_usd
    assert a.latency_ms == b.latency_ms
    assert math.isfinite(b.wall_ms) and b.wall_ms > 0.0
    # The wrapped engine's usage line names its transport; plain doesn't.
    assert a.transport is None
    assert b.transport == "openai (offline)"
    assert "transport: openai (offline)" in b.render()
    assert "transport:" not in a.render()


def test_engine_close_leaves_no_batcher_thread_or_task(perfect_model, mini_world):
    """A closed engine leaves nothing running: the continuous batcher's
    wire threads have exited and its drain task is done."""
    before = set(threading.enumerate())

    def wire_threads():
        return [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("repro-wire")
        ]

    engine = make_engine(
        build_offline("llamacpp", perfect_model),
        mini_world,
        EngineConfig().with_(enable_continuous_batching=True, batch_slots=4),
    )
    engine.execute_many(
        [
            "SELECT name FROM countries WHERE continent = 'Europe'",
            "SELECT COUNT(*) FROM cities",
            "SELECT population FROM countries WHERE name = 'Japan'",
        ],
        jobs=3,
    )
    batcher = engine._session.batcher
    assert wire_threads()  # the blocking calls ran on the batcher's pool
    engine.close()
    assert wire_threads() == []
    assert batcher._task.done()


# ---------------------------------------------------------------------
# Online wire paths (monkeypatched; no sockets)
# ---------------------------------------------------------------------


def test_openai_http_parses_usage_and_latency(monkeypatch):
    calls = {}

    def fake_post(url, payload, headers=None, timeout_s=30.0):
        calls["url"] = url
        calls["payload"] = payload
        calls["headers"] = headers
        return (
            {
                "choices": [
                    {
                        "message": {"content": "Paris"},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {"prompt_tokens": 12, "completion_tokens": 3},
            },
            42.0,
        )

    monkeypatch.setattr(transport_mod, "_http_post_json", fake_post)
    monkeypatch.setattr(transport_mod, "_openai_client", lambda *a: None)
    transport = OpenAITransport(api_key="sk-test", model="gpt-test")
    assert not transport.offline
    completion = transport.complete("capital of France?")
    assert completion.text == "Paris"
    assert completion.prompt_tokens == 12
    assert completion.completion_tokens == 3
    assert completion.latency_ms == 42.0
    assert not completion.truncated
    assert completion.model_name == "openai/gpt-test"
    assert calls["url"].endswith("/chat/completions")
    assert calls["headers"]["Authorization"] == "Bearer sk-test"
    assert calls["payload"]["model"] == "gpt-test"


def test_openai_http_synthesizes_latency_and_tokens(monkeypatch):
    def fake_post(url, payload, headers=None, timeout_s=30.0):
        # No usage block, no timing: the transport must fall back to
        # count_tokens and ensure_latency, never to zero/NaN.
        return (
            {"choices": [{"message": {"content": "out"}}]},
            0.0,
        )

    monkeypatch.setattr(transport_mod, "_http_post_json", fake_post)
    monkeypatch.setattr(transport_mod, "_openai_client", lambda *a: None)
    transport = OpenAITransport(api_key="sk-test")
    completion = transport.complete("a prompt")
    assert completion.prompt_tokens > 0
    assert completion.completion_tokens > 0
    assert math.isfinite(completion.latency_ms) and completion.latency_ms > 0


def test_openai_http_truncation_flag(monkeypatch):
    def fake_post(url, payload, headers=None, timeout_s=30.0):
        return (
            {
                "choices": [
                    {"message": {"content": "cut"}, "finish_reason": "length"}
                ]
            },
            5.0,
        )

    monkeypatch.setattr(transport_mod, "_http_post_json", fake_post)
    monkeypatch.setattr(transport_mod, "_openai_client", lambda *a: None)
    assert OpenAITransport(api_key="k").complete("p").truncated


def test_openai_http_malformed_body_raises(monkeypatch):
    monkeypatch.setattr(
        transport_mod, "_http_post_json", lambda *a, **k: ({"oops": 1}, 1.0)
    )
    monkeypatch.setattr(transport_mod, "_openai_client", lambda *a: None)
    with pytest.raises(TransportError):
        OpenAITransport(api_key="k").complete("p")


def test_openai_http_network_error_raises(monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("connection refused")

    monkeypatch.setattr(transport_mod, "_http_post_json", boom)
    monkeypatch.setattr(transport_mod, "_openai_client", lambda *a: None)
    with pytest.raises(TransportError):
        OpenAITransport(api_key="k").complete("p")


def test_llamacpp_parses_server_timings(monkeypatch):
    calls = {}

    def fake_post(url, payload, headers=None, timeout_s=30.0):
        calls["url"] = url
        calls["payload"] = payload
        return (
            {
                "content": "predicted text",
                "tokens_evaluated": 20,
                "tokens_predicted": 6,
                "timings": {"prompt_ms": 30.0, "predicted_ms": 70.0},
                "stop_type": "eos",
            },
            999.0,
        )

    monkeypatch.setattr(transport_mod, "_http_post_json", fake_post)
    transport = LlamaCppTransport(url="http://localhost:8080")
    assert not transport.offline
    completion = transport.complete(
        "a prompt", CompletionOptions(sample_index=3)
    )
    assert completion.text == "predicted text"
    assert completion.prompt_tokens == 20
    assert completion.completion_tokens == 6
    # Server timings win over our wall measurement.
    assert completion.latency_ms == 100.0
    assert not completion.truncated
    assert calls["url"] == "http://localhost:8080/completion"
    assert calls["payload"]["seed"] == 3
    assert calls["payload"]["cache_prompt"] is True


def test_llamacpp_truncation_and_fallback_latency(monkeypatch):
    monkeypatch.setattr(
        transport_mod,
        "_http_post_json",
        lambda *a, **k: ({"content": "c", "stop_type": "limit"}, 33.0),
    )
    completion = LlamaCppTransport(url="http://h").complete("p")
    assert completion.truncated
    assert completion.latency_ms == 33.0  # measured wall, no timings


def test_llamacpp_malformed_body_raises(monkeypatch):
    monkeypatch.setattr(
        transport_mod, "_http_post_json", lambda *a, **k: ({"no": "content"}, 1.0)
    )
    with pytest.raises(TransportError):
        LlamaCppTransport(url="http://h").complete("p")


# ---------------------------------------------------------------------
# Registry & construction errors
# ---------------------------------------------------------------------


def test_unknown_transport_rejected(perfect_model):
    with pytest.raises(ConfigError, match="unknown transport"):
        build_transport("carrier-pigeon", fallback_model=perfect_model)


def test_offline_without_fallback_rejected():
    with pytest.raises(ConfigError):
        OpenAITransport(api_key=None, offline=True)
    with pytest.raises(ConfigError):
        LlamaCppTransport(url=None, offline=True)
    with pytest.raises(ConfigError):
        SimulatedTransport(None)


def test_register_transport_decorator(perfect_model):
    @register_transport("test-echo")
    class EchoTransport(SimulatedTransport):
        name = "test-echo"

        def __init__(self, fallback_model=None, **_ignored):
            super().__init__(fallback_model)

    try:
        assert "test-echo" in available_transports()
        built = build_transport("test-echo", fallback_model=perfect_model)
        assert isinstance(built, EchoTransport)
    finally:
        del transport_mod._REGISTRY["test-echo"]
    assert "test-echo" not in available_transports()


def test_transport_from_config(perfect_model):
    config = EngineConfig().with_(transport="llamacpp")
    transport = transport_from_config(config, fallback_model=perfect_model)
    assert transport.name == "llamacpp"
    assert transport.offline  # no URL configured in tests


def test_config_rejects_unknown_transport():
    with pytest.raises(ConfigError):
        EngineConfig(transport="smoke-signals")


def test_as_transport_idempotent(perfect_model):
    transport = as_transport(perfect_model)
    assert isinstance(transport, SimulatedTransport)
    assert as_transport(transport) is transport
    assert transport_label(perfect_model) is None
    assert transport_label(transport) == "simulated"


def test_base_transport_is_abstract():
    transport = Transport()
    with pytest.raises(NotImplementedError):
        _ = transport.model_name
    with pytest.raises(NotImplementedError):
        transport.complete("p")
