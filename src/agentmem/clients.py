"""HTTP adapters for the external reader, embedder, and extractor services.

Wire contracts (JSON bodies, base URL + fixed path):

    POST {base}/embed    {"texts": [...]}                 -> {"vectors": [[...], ...]}
    POST {base}/extract  {"session_id": ..., "text": ...} -> {"facts": [{subject, relation, value}, ...]}
    POST {base}/answer   {"question": ..., "context": ...}-> {"answer": ...}

Any transport failure, non-2xx status, or malformed payload raises
ServiceError; nothing falls back silently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import requests

from .consolidation import FactDraft
from .errors import ServiceError

MAX_READER_TOKENS = 30


def _post_json(url: str, payload: dict, timeout: float) -> dict:
    try:
        response = requests.post(url, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise ServiceError(f"POST {url} failed: {exc}") from exc
    if response.status_code != 200:
        raise ServiceError(f"POST {url} returned {response.status_code}")
    try:
        body = response.json()
    except ValueError as exc:
        raise ServiceError(f"POST {url} returned non-JSON body") from exc
    if not isinstance(body, dict):
        raise ServiceError(f"POST {url} returned {type(body).__name__}, expected object")
    return body


class HttpEmbedder:
    """Embedder client; vectors are re-normalised to unit length on receipt."""

    def __init__(self, base_url: str, dimension: int, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.dimension = dimension
        self.timeout = timeout

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        body = _post_json(f"{self.base_url}/embed", {"texts": list(texts)}, self.timeout)
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ServiceError("embedder returned wrong vector count")
        out = []
        for vec in vectors:
            if not isinstance(vec, list) or not all(type(x) in (int, float) for x in vec):
                raise ServiceError(f"embedder returned {vec!r}, expected a list of numbers")
            if len(vec) != self.dimension:
                raise ServiceError(
                    f"embedder returned dimension {len(vec)}, expected {self.dimension}"
                )
            norm = math.sqrt(sum(x * x for x in vec))
            if norm == 0:
                raise ServiceError("embedder returned a zero vector")
            out.append([x / norm for x in vec])
        return out


class HttpExtractor:
    """Extractor client implementing the consolidation interface."""

    name = "http"

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def extract(self, session_id: str, session_text: str) -> list[FactDraft]:
        body = _post_json(
            f"{self.base_url}/extract",
            {"session_id": session_id, "text": session_text},
            self.timeout,
        )
        facts = body.get("facts")
        if not isinstance(facts, list):
            raise ServiceError("extractor response missing 'facts' list")
        try:
            drafts = [FactDraft(f["subject"], f["relation"], f["value"]) for f in facts]
        except (KeyError, TypeError) as exc:
            raise ServiceError(f"malformed fact in extractor response: {exc}") from exc
        for draft in drafts:
            if not type(draft.subject) is type(draft.relation) is type(draft.value) is str:
                raise ServiceError(f"extractor returned a fact field that is not a string: {draft}")
        return drafts


class HttpReader:
    """Reader client; answers are truncated to 30 whitespace tokens."""

    name = "http"

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def answer(self, question, context: str) -> str:
        question_text = getattr(question, "question", question)
        body = _post_json(
            f"{self.base_url}/answer",
            {"question": question_text, "context": context},
            self.timeout,
        )
        answer = body.get("answer")
        if not isinstance(answer, str):
            raise ServiceError("reader response missing 'answer' string")
        return " ".join(answer.split()[:MAX_READER_TOKENS])
