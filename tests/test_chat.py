import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softprove
from softprove.chat import (
    ChatError,
    ChatParams,
    HttpChatClient,
    MockTranscript,
    TranscriptEntry,
)
from conftest import data_path


def _client(entries):
    return MockTranscript([TranscriptEntry(*e) for e in entries])


def test_mock_matches_on_role_and_substring():
    client = _client([
        ("semantic", "frog", "reply-a"),
        ("deduce", "frog", "reply-b"),
    ])
    params = ChatParams().tagged("deduce")
    assert client.complete([("user", "about the frog")], params) == "reply-b"


def test_mock_first_matching_entry_wins():
    client = _client([
        ("semantic", "frog", "first"),
        ("semantic", "the frog", "second"),
    ])
    assert client.complete([("user", "the frog case")], ChatParams().tagged("semantic")) == "first"


def test_mock_entries_are_reusable():
    client = _client([("autoformalize", "fact", "rule(X) :- base(X). = 1.0")])
    params = ChatParams().tagged("autoformalize")
    for _ in range(3):
        assert client.complete([("user", "fact one")], params).startswith("rule")


def test_strict_mock_raises_on_miss():
    client = _client([("semantic", "frog", "x")])
    with pytest.raises(ChatError, match="^no transcript entry for role 'semantic'"):
        client.complete([("user", "a dog instead")], ChatParams().tagged("semantic"))


def test_transcript_from_json_validates_entries():
    good = json.dumps([{"role": "semantic", "match": "a", "response": "b"}])
    client = MockTranscript.from_json(good)
    assert client.entries[0].role == "semantic"
    with pytest.raises(ChatError):
        MockTranscript.from_json(json.dumps({"role": "semantic"}))
    with pytest.raises(ChatError):
        MockTranscript.from_json(json.dumps([{"role": "semantic"}]))
    for bad in ({"match": 5}, {"response": ["Premises:", "1. a"]}):
        entry = {"role": "semantic", "match": "a", "response": "b", **bad}
        with pytest.raises(ChatError, match="malformed transcript entry"):
            MockTranscript.from_json(json.dumps([entry]))


def test_mock_records_requests():
    client = _client([("deduce", "", "Hypothesis: care")])
    client.complete([("system", "s"), ("user", "u")], ChatParams().tagged("deduce"))
    assert client.requests == [("deduce", "s\nu")]


_HTTP_STACK_PROBE = """
import contextlib, io, sys
from softprove.cli import main

loaded = {"import": sorted({"requests", "ssl", "urllib3"} & set(sys.modules))}
data = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", f"{data}/cases/frog.json", "--embeddings", f"{data}/demo_vectors.txt"])
    main(["refine", "--case", f"{data}/cases/prison_seed.json", "--mock", f"{data}/transcripts/prison.json"])
loaded["commands"] = sorted({"requests", "ssl", "urllib3"} & set(sys.modules))
print(loaded)
"""


def test_the_cli_loads_the_http_stack_only_for_the_http_client():
    env = dict(os.environ, PYTHONPATH=str(Path(softprove.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _HTTP_STACK_PROBE, data_path("")], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "{'import': [], 'commands': []}\n"


# -- live client payload (no network) ---------------------------------------------


class _StubResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        return None

    def json(self):
        return self._payload


class _StubSession:
    def __init__(self, payload):
        self.payload = payload
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        return _StubResponse(self.payload)


def test_http_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv("SOFTPROVE_LLM_URL", raising=False)
    with pytest.raises(ChatError):
        HttpChatClient()


def test_http_client_builds_chat_payload(monkeypatch):
    session = _StubSession({"choices": [{"message": {"content": "ok"}}]})
    client = HttpChatClient(url="https://example.test/v1/chat", api_key="k", session=session)
    params = ChatParams(model="demo-model", temperature=0.5, max_tokens=64, timeout=9.0)
    reply = client.complete([("system", "s"), ("user", "u")], params)
    assert reply == "ok"
    call = session.calls[0]
    assert call["url"] == "https://example.test/v1/chat"
    assert call["json"] == {
        "model": "demo-model",
        "messages": [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}],
        "temperature": 0.5,
        "max_tokens": 64,
    }
    assert call["headers"]["Authorization"] == "Bearer k"
    assert call["timeout"] == 9.0


def test_http_client_env_configuration(monkeypatch):
    monkeypatch.setenv("SOFTPROVE_LLM_URL", "https://env.test/chat")
    monkeypatch.setenv("SOFTPROVE_LLM_KEY", "envkey")
    session = _StubSession({"choices": [{"message": {"content": "hi"}}]})
    client = HttpChatClient(session=session)
    client.complete([("user", "x")], ChatParams())
    assert session.calls[0]["url"] == "https://env.test/chat"
    assert session.calls[0]["headers"]["Authorization"] == "Bearer envkey"


# OpenAI-style endpoints send ``"content": null``; a list or a number is no reply either.
@pytest.mark.parametrize(
    "body",
    [
        {"unexpected": True},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["a"]}}]},
        {"choices": [{"message": {"content": 5}}]},
    ],
    ids=["no-choices", "content-null", "content-list", "content-number"],
)
def test_http_client_malformed_response_is_chat_error(body):
    session = _StubSession(body)
    client = HttpChatClient(url="https://example.test/chat", session=session)
    with pytest.raises(ChatError):
        client.complete([("user", "x")], ChatParams())
