"""Chat-completion client contract, a deterministic transcript mock, and a
thin HTTPS client for OpenAI-style endpoints.

The mock replays canned responses keyed by (prompt role, prompt substring);
an unmatched prompt is an error, never a fabricated reply.

The HTTPS client sends one POST per call on a new connection, refuses
redirects (the bearer key goes only to the configured URL) and trusts the
system CA store; ``complete`` imports ``urllib.request``, which loads ``ssl``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union

LLM_URL_ENV = "SOFTPROVE_LLM_URL"
LLM_KEY_ENV = "SOFTPROVE_LLM_KEY"
LLM_MODEL_ENV = "SOFTPROVE_LLM_MODEL"
MAX_TOKENS = 1024
TIMEOUT_S = 60.0

Message = tuple[str, str]


class ChatError(RuntimeError):
    """A failed call, a malformed transcript, or a mock's unmatched prompt."""


@dataclass(frozen=True)
class ChatParams:
    """Request settings; ``role`` tags the dispatching prompt template so
    transcript mocks can route without inspecting template text."""

    model: str = "gpt-3.5-turbo"
    temperature: float = 0.5
    role: Optional[str] = None

    def tagged(self, role: str) -> "ChatParams":
        return replace(self, role=role)


class ChatClient(Protocol):
    def complete(self, messages: Sequence[Message], params: ChatParams) -> str:
        ...


@dataclass(frozen=True)
class TranscriptEntry:
    role: str
    match: str
    response: str


class MockTranscript:
    """Deterministic client: first entry whose role matches and whose match key
    is a substring of the rendered prompt wins.  Entries are reusable."""

    def __init__(self, entries: Sequence[TranscriptEntry]) -> None:
        self.entries = list(entries)
        self.requests: list[tuple[str, str]] = []

    @classmethod
    def from_json(cls, text: str) -> "MockTranscript":
        docs = json.loads(text)
        if not isinstance(docs, list):
            raise ChatError("transcript must be a JSON array")
        entries = []
        for doc in docs:
            if not isinstance(doc, dict) or not all(isinstance(doc.get(k), str) for k in ("role", "match", "response")):
                raise ChatError(f"malformed transcript entry: {doc!r}")
            entries.append(TranscriptEntry(doc["role"], doc["match"], doc["response"]))
        return cls(entries)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "MockTranscript":
        return cls.from_json(Path(path).read_text("utf-8"))

    def complete(self, messages: Sequence[Message], params: ChatParams) -> str:
        rendered = "\n".join(text for _, text in messages)
        role = params.role or ""
        self.requests.append((role, rendered))
        for entry in self.entries:
            if entry.role == role and entry.match in rendered:
                return entry.response
        raise ChatError(f"no transcript entry for role {role!r}; prompt starts: {rendered[:120]!r}")


class HttpChatClient:
    """OpenAI-style chat-completion call over HTTPS.

    Endpoint and key come from arguments or SOFTPROVE_LLM_URL / SOFTPROVE_LLM_KEY.
    ``transport`` is one more urllib handler; tests answer ``https_open`` with it.
    """

    def __init__(self, url: Optional[str] = None, api_key: Optional[str] = None, transport: object = None) -> None:
        self.url = url or os.environ.get(LLM_URL_ENV, "")
        self.api_key = api_key or os.environ.get(LLM_KEY_ENV, "")
        self.transport = transport
        if not self.url:
            raise ChatError(f"no chat endpoint configured; set {LLM_URL_ENV}")

    def build_payload(self, messages: Sequence[Message], params: ChatParams) -> dict:
        return {
            "model": params.model,
            "messages": [{"role": role, "content": text} for role, text in messages],
            "temperature": params.temperature,
            "max_tokens": MAX_TOKENS,
        }

    def complete(self, messages: Sequence[Message], params: ChatParams) -> str:
        import http.client
        import urllib.error
        import urllib.request

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args: object) -> None:
                return None

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        handlers = [RefuseRedirects()] + ([self.transport] if self.transport else [])
        try:
            # allow_nan=False refuses a NaN or infinite temperature before any request.
            data = json.dumps(self.build_payload(messages, params), allow_nan=False).encode("utf-8")
            request = urllib.request.Request(self.url, data=data, headers=headers)
            if request.type not in ("http", "https"):
                raise ValueError(f"not an http(s) URL: {self.url!r}")
            with urllib.request.build_opener(*handlers).open(request, timeout=TIMEOUT_S) as response:
                raw = response.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # it holds the response, and with it the socket
            raise ChatError(f"chat request failed: {exc}") from exc
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ChatError(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise ChatError(f"malformed chat response: content is {type(content).__name__}, not a string")
        return content


def default_model() -> str:
    return os.environ.get(LLM_MODEL_ENV, "gpt-3.5-turbo")
