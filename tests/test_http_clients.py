"""Exercises the external-service wire contracts against a local HTTP server."""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from agentmem.clients import HttpEmbedder, HttpExtractor, HttpReader
from agentmem.consolidation import FactDraft
from agentmem.errors import ServiceError


# Base path -> a malformed body served for any request under it.
MALFORMED = {
    "/vector-5": {"vectors": [5]},
    "/vector-null": {"vectors": [None]},
    "/vector-strings": {"vectors": [["a", "b"]]},
    "/vector-bools": {"vectors": [[True, False]]},
    "/subject-null": {"facts": [{"subject": None, "relation": "kv", "value": "blue"}]},
    "/value-object": {"facts": [{"subject": "color", "relation": "kv", "value": {"a": 1}}]},
    "/relation-number": {"facts": [{"subject": "color", "relation": 3, "value": "blue"}]},
}


class Handler(BaseHTTPRequestHandler):
    requests_seen: list[tuple[str, dict]] = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        Handler.requests_seen.append((self.path, payload))
        base = self.path.rsplit("/", 1)[0]
        if base in MALFORMED:
            body = MALFORMED[base]
        elif self.path == "/embed":
            body = {"vectors": [[3.0, 4.0] for _ in payload["texts"]]}
        elif self.path == "/extract":
            body = {
                "facts": [
                    {"subject": "color", "relation": "kv", "value": "blue"},
                    {"subject": payload["session_id"], "relation": "is_a", "value": "session"},
                ]
            }
        elif self.path == "/answer":
            body = {"answer": " ".join(f"tok{i}" for i in range(40))}
        elif self.path == "/broken":
            self.send_response(500)
            self.end_headers()
            return
        else:
            self.send_response(404)
            self.end_headers()
            return
        encoded = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)


@pytest.fixture(scope="module")
def server_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


def test_embedder_contract(server_url):
    embedder = HttpEmbedder(server_url, dimension=2)
    vectors = embedder.embed(["one", "two"])
    path, payload = Handler.requests_seen[-1]
    assert path == "/embed"
    assert payload == {"texts": ["one", "two"]}
    # Vectors come back renormalised to unit length.
    assert len(vectors) == 2
    assert math.hypot(*vectors[0]) == pytest.approx(1.0, abs=1e-9)
    assert vectors[0] == pytest.approx([0.6, 0.8])


def test_embedder_dimension_mismatch(server_url):
    embedder = HttpEmbedder(server_url, dimension=5)
    with pytest.raises(ServiceError):
        embedder.embed(["one"])


@pytest.mark.parametrize("base", ["/vector-5", "/vector-null", "/vector-strings", "/vector-bools"])
def test_embedder_rejects_a_vector_that_is_not_a_list_of_numbers(server_url, base):
    with pytest.raises(ServiceError, match="list of numbers"):
        HttpEmbedder(server_url + base, dimension=2).embed(["one"])


@pytest.mark.parametrize("base", ["/subject-null", "/value-object", "/relation-number"])
def test_extractor_rejects_a_fact_field_that_is_not_a_string(server_url, base):
    with pytest.raises(ServiceError, match="not a string"):
        HttpExtractor(server_url + base).extract("s1", "the sky is blue")


def test_extractor_contract(server_url):
    extractor = HttpExtractor(server_url)
    drafts = extractor.extract("s42", "the sky is blue")
    path, payload = Handler.requests_seen[-1]
    assert path == "/extract"
    assert payload == {"session_id": "s42", "text": "the sky is blue"}
    assert drafts[0] == FactDraft("color", "kv", "blue")
    assert drafts[1].subject == "s42"


def test_reader_contract_truncates_to_thirty_tokens(server_url):
    reader = HttpReader(server_url)
    answer = reader.answer("what is up", "some context")
    path, payload = Handler.requests_seen[-1]
    assert path == "/answer"
    assert payload == {"question": "what is up", "context": "some context"}
    assert len(answer.split()) == 30


def test_reader_accepts_question_objects(server_url):
    from conftest import SYNTHETIC20
    from agentmem.evaluation import load_dataset

    question = load_dataset(SYNTHETIC20)[0]
    HttpReader(server_url).answer(question, "ctx")
    _, payload = Handler.requests_seen[-1]
    assert payload["question"] == question.question


def test_http_error_maps_to_service_error(server_url):
    from agentmem.clients import _post_json

    with pytest.raises(ServiceError):
        _post_json(f"{server_url}/broken", {}, timeout=5)


def test_connection_refused_maps_to_service_error():
    embedder = HttpEmbedder("http://127.0.0.1:9", dimension=2, timeout=0.2)
    with pytest.raises(ServiceError):
        embedder.embed(["x"])
