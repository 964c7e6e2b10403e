"""Chat-completion client contract, a deterministic transcript mock, and a
thin HTTPS client for OpenAI-style endpoints.

The mock replays canned responses keyed by (prompt role, prompt substring);
an unmatched prompt is an error, never a fabricated reply.

The HTTP stack (``requests``, and with it ``ssl``) is imported only when an
``HttpChatClient`` is made, so a command that never calls a live endpoint
does not load it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, Union

if TYPE_CHECKING:
    import requests

LLM_URL_ENV = "SOFTPROVE_LLM_URL"
LLM_KEY_ENV = "SOFTPROVE_LLM_KEY"
LLM_MODEL_ENV = "SOFTPROVE_LLM_MODEL"

Message = tuple[str, str]


class ChatError(RuntimeError):
    """A failed call, a malformed transcript, or a mock's unmatched prompt."""


@dataclass(frozen=True)
class ChatParams:
    """Request settings; ``role`` tags the dispatching prompt template so
    transcript mocks can route without inspecting template text."""

    model: str = "gpt-3.5-turbo"
    temperature: float = 0.5
    max_tokens: int = 1024
    timeout: float = 60.0
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

    Endpoint and key come from arguments or the SOFTPROVE_LLM_URL /
    SOFTPROVE_LLM_KEY environment variables.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        api_key: Optional[str] = None,
        session: Optional[requests.Session] = None,
    ) -> None:
        import requests

        self.url = url or os.environ.get(LLM_URL_ENV, "")
        self.api_key = api_key or os.environ.get(LLM_KEY_ENV, "")
        self.session = session or requests.Session()
        if not self.url:
            raise ChatError(f"no chat endpoint configured; set {LLM_URL_ENV}")

    def build_payload(self, messages: Sequence[Message], params: ChatParams) -> dict:
        return {
            "model": params.model,
            "messages": [{"role": role, "content": text} for role, text in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }

    def complete(self, messages: Sequence[Message], params: ChatParams) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = self.session.post(
                self.url,
                json=self.build_payload(messages, params),
                headers=headers,
                timeout=params.timeout,
            )
            response.raise_for_status()
            body = response.json()
            content = body["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
            raise ChatError(f"chat request failed: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ChatError(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise ChatError(f"malformed chat response: content is {type(content).__name__}, not a string")
        return content


def default_model() -> str:
    return os.environ.get(LLM_MODEL_ENV, "gpt-3.5-turbo")
