import http.client
import io
import json
import os
import socket
import subprocess
import sys
import urllib.error
import urllib.request
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


# ``requests`` is installed here, so only its ``None`` entry shows that the live
# client never imports it.
_HTTP_STACK_PROBE = """
import contextlib, io, sys
sys.modules["requests"] = None
stack = lambda: sorted({"http.client", "ssl", "urllib3"} & set(sys.modules))
from softprove.cli import main

loaded = {"import": stack()}
data = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", f"{data}/cases/frog.json", "--embeddings", f"{data}/demo_vectors.txt"])
    main(["refine", "--case", f"{data}/cases/prison_seed.json", "--mock", f"{data}/transcripts/prison.json"])
loaded["commands"] = stack()

import urllib.request, urllib.response
from softprove.chat import ChatParams, HttpChatClient

class Endpoint(urllib.request.BaseHandler):
    handler_order = 100

    def https_open(self, request):
        body = io.BytesIO(b'{"choices": [{"message": {"content": "ok"}}]}')
        response = urllib.response.addinfourl(body, {}, request.full_url, 200)
        response.msg = "OK"
        return response

client = HttpChatClient(url="https://example.test/chat", transport=Endpoint())
loaded["reply"] = client.complete([("user", "x")], ChatParams())
print(loaded)
"""


def test_the_cli_loads_the_http_stack_only_for_the_http_client():
    env = dict(os.environ, PYTHONPATH=str(Path(softprove.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _HTTP_STACK_PROBE, data_path("")], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "{'import': [], 'commands': [], 'reply': 'ok'}\n"


# -- live client through urllib, no socket ---------------------------------------


class _Endpoint(urllib.request.BaseHandler):
    """Answers ``https_open`` ahead of urllib's HTTPS handler (order 500) with a
    response parsed from raw bytes, or raises the exception it was given."""

    handler_order = 100

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests = []
        self.responses = []

    def https_open(self, request):
        self.requests.append(request)
        reply = self.replies.pop(0)
        if isinstance(reply, BaseException):
            raise reply
        response = http.client.HTTPResponse(_Socket(reply), method=request.get_method())
        response.begin()
        response.url, response.msg = request.full_url, response.reason  # as urllib's do_open sets them
        self.responses.append(response)
        return response


class _Socket:
    def __init__(self, raw):
        self.raw = raw

    def makefile(self, mode):
        return io.BytesIO(self.raw)


def _reply(body, status="200 OK", headers=()):
    body = body if isinstance(body, bytes) else json.dumps(body).encode()
    head = [f"HTTP/1.1 {status}", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


OK = _reply({"choices": [{"message": {"content": "ok"}}]})


def test_http_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv("SOFTPROVE_LLM_URL", raising=False)
    with pytest.raises(ChatError):
        HttpChatClient()


def test_http_client_builds_chat_payload():
    endpoint = _Endpoint(OK)
    client = HttpChatClient(url="https://example.test/v1/chat", api_key="k", transport=endpoint)
    params = ChatParams(model="demo-model", temperature=0.5)
    assert client.complete([("system", "s"), ("user", "u")], params) == "ok"
    (request,) = endpoint.requests
    assert (request.full_url, request.get_method(), request.timeout) == ("https://example.test/v1/chat", "POST", 60.0)
    assert request.get_header("Content-type") == "application/json"
    assert request.get_header("Authorization") == "Bearer k"
    assert request.data == (
        b'{"model": "demo-model", "messages": [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}],'
        b' "temperature": 0.5, "max_tokens": 1024}'
    )
    assert endpoint.responses[0].closed


def test_http_client_env_configuration(monkeypatch):
    monkeypatch.setenv("SOFTPROVE_LLM_URL", "https://env.test/chat")
    monkeypatch.setenv("SOFTPROVE_LLM_KEY", "envkey")
    endpoint = _Endpoint(OK)
    HttpChatClient(transport=endpoint).complete([("user", "x")], ChatParams())
    assert endpoint.requests[0].full_url == "https://env.test/chat"
    assert endpoint.requests[0].get_header("Authorization") == "Bearer envkey"


def test_http_client_sends_no_authorization_without_a_key(monkeypatch):
    monkeypatch.delenv("SOFTPROVE_LLM_KEY", raising=False)
    endpoint = _Endpoint(OK)
    HttpChatClient(url="https://example.test/chat", transport=endpoint).complete([("user", "x")], ChatParams())
    assert not endpoint.requests[0].has_header("Authorization")


@pytest.mark.parametrize(
    "reply, message",
    [
        (_reply(b"down", "500 Internal Server Error"), "HTTP Error 500: Internal Server Error"),
        (urllib.error.URLError("no route"), "<urlopen error no route>"),
        (socket.timeout("timed out"), "timed out"),
        (OK[:-5], "IncompleteRead"),  # Content-Length promises 5 bytes more
    ],
    ids=["status-500", "url-error", "timeout", "incomplete-read"],
)
def test_http_client_transport_failure_is_chat_error(reply, message):
    endpoint = _Endpoint(reply)
    client = HttpChatClient(url="https://example.test/chat", transport=endpoint)
    with pytest.raises(ChatError, match="^chat request failed: ") as excinfo:
        client.complete([("user", "x")], ChatParams())
    assert message in str(excinfo.value)
    assert all(response.closed for response in endpoint.responses)


def test_http_client_refuses_a_redirect_and_keeps_the_key():
    location = "Location: https://elsewhere.test/steal"
    endpoint = _Endpoint(_reply(b"", "302 Found", [location]), OK)
    client = HttpChatClient(url="https://example.test/chat", api_key="KEY", transport=endpoint)
    with pytest.raises(ChatError, match="^chat request failed: HTTP Error 302: Found"):
        client.complete([("user", "x")], ChatParams())
    assert [request.full_url for request in endpoint.requests] == ["https://example.test/chat"]
    assert endpoint.responses[0].closed


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_http_client_refuses_a_non_finite_temperature_before_sending(temperature):
    endpoint = _Endpoint(OK)
    client = HttpChatClient(url="https://example.test/chat", transport=endpoint)
    with pytest.raises(ChatError, match="^chat request failed: Out of range float values are not JSON compliant$"):
        client.complete([("user", "x")], ChatParams(temperature=temperature))
    assert endpoint.requests == []


@pytest.mark.parametrize("url", ["file:///dev/null", "data:,{}"])
def test_http_client_refuses_a_url_that_is_not_http(url):
    with pytest.raises(ChatError, match="^chat request failed: not an http\\(s\\) URL"):
        HttpChatClient(url=url).complete([("user", "x")], ChatParams())


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
    client = HttpChatClient(url="https://example.test/chat", transport=_Endpoint(_reply(body)))
    with pytest.raises(ChatError, match="^malformed chat response: "):
        client.complete([("user", "x")], ChatParams())


def test_http_client_body_that_is_not_json_is_chat_error():
    client = HttpChatClient(url="https://example.test/chat", transport=_Endpoint(_reply(b"<html>busy</html>")))
    with pytest.raises(ChatError, match="^malformed chat response: Expecting value"):
        client.complete([("user", "x")], ChatParams())
