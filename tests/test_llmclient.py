import json
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from docqa.analysis import reading_order_perplexity
from docqa.errors import EndpointError
from docqa.llmclient import (
    HTTPBackend,
    InferenceRequest,
    InferenceResponse,
    MockBackend,
    predict_batch,
)
from docqa.serialize import SerializedContext, build_prompt


def prompt_for(context_text, question):
    ctx = SerializedContext(doc_id="d", text=context_text, token_count=0, pieces=())
    return build_prompt(ctx, question).text


def request_for(context_text, question, max_new_tokens=32, want_logprobs=True):
    return InferenceRequest(
        prompt=prompt_for(context_text, question),
        max_new_tokens=max_new_tokens,
        want_logprobs=want_logprobs,
    )


class TestResponseValidation:
    def test_token_pieces_must_tile_text(self, scripted_server):
        scripted_server.script = [
            (200, {"text": "ab", "model_id": "m", "tokens": [{"text": "a", "logprob": 0.0}]})
        ]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(
            EndpointError,
            match="malformed endpoint response: token pieces 'a' do not concatenate to text 'ab'",
        ):
            backend.complete(request_for("x", "q?"))

    def test_tokens_optional(self):
        assert InferenceResponse(text="ab", model_id="m").tokens is None


class TestMockEcho:
    def test_echoes_last_context_word(self):
        backend = MockBackend(rule="echo_last_word")
        response = backend.complete(request_for("a b c", "which word?"))
        assert response.text == "c"

    def test_empty_context_yields_empty_answer(self):
        backend = MockBackend(rule="echo_last_word")
        response = backend.complete(request_for("", "which word?"))
        assert response.text == ""
        assert response.tokens == ()

    def test_deterministic(self):
        backend = MockBackend(rule="echo_last_word")
        req = request_for("alpha beta", "q?")
        assert backend.complete(req) == backend.complete(req)

    def test_logprobs_omitted_when_not_requested(self):
        backend = MockBackend(rule="echo_last_word")
        response = backend.complete(request_for("a b", "q?", want_logprobs=False))
        assert response.tokens is None


def answer_key_backend(context_text, golds):
    """A mock whose key gives each question, asked of context_text, its golds."""
    key = {prompt_for(context_text, question): answers for question, answers in golds.items()}
    return MockBackend(rule="answer_key", answer_key=key)


class TestMockAnswerKey:
    GOLDS = {
        "total?": ("42",),
        "city?": ("new york", "nyc"),
        "season?": ("spring",),
    }

    def ask(self, context_text, question):
        backend = answer_key_backend(context_text, self.GOLDS)
        return backend.complete(request_for(context_text, question))

    def test_answers_when_gold_is_in_context(self):
        response = self.ask("total due 42 dollars", "total?")
        assert response.text == "42"

    def test_unknown_when_gold_absent(self):
        response = self.ask("no numbers here", "total?")
        assert response.text == "unknown"

    def test_multiword_gold_needs_adjacent_words(self):
        found = self.ask("flights to new york", "city?")
        assert found.text == "new york"
        split = self.ask("new haven and york", "city?")
        assert split.text == "unknown"

    def test_later_gold_can_match(self):
        response = self.ask("gate b nyc departures", "city?")
        assert response.text == "nyc"

    def test_match_ignores_case(self):
        response = self.ask("Arrived in New York today", "city?")
        assert response.text == "new york"

    def test_unlisted_question_is_unknown(self):
        response = self.ask("anything", "color?")
        assert response.text == "unknown"

    def test_same_question_on_two_contexts_keeps_each_gold(self):
        key = {
            prompt_for("total due 42", "total?"): ("42",),
            prompt_for("total due 17", "total?"): ("17",),
        }
        backend = MockBackend(rule="answer_key", answer_key=key)
        assert backend.complete(request_for("total due 42", "total?")).text == "42"
        assert backend.complete(request_for("total due 17", "total?")).text == "17"

    def test_rule_name_validated(self):
        with pytest.raises(ValueError, match="rule"):
            MockBackend(rule="oracle")


class TestMockTokens:
    def test_pieces_concatenate_to_text(self):
        # A multiword answer exercises the spacing convention.
        backend = answer_key_backend("one two three", {"q?": ("one two three",)})
        response = backend.complete(request_for("one two three", "q?"))
        assert [t.token_text for t in response.tokens] == ["one", " two", " three"]
        assert "".join(t.token_text for t in response.tokens) == response.text

    def test_default_logprob_gives_rop_two(self):
        backend = answer_key_backend("a b", {"q?": ("a b",)})
        response = backend.complete(request_for("a b", "q?"))
        assert len(response.tokens) == 2
        assert all(t.logprob == pytest.approx(-math.log(2)) for t in response.tokens)
        assert reading_order_perplexity(response.tokens) == pytest.approx(2.0)

    def test_max_new_tokens_truncates(self):
        backend = answer_key_backend("one two three", {"q?": ("one two three",)})
        response = backend.complete(request_for("one two three", "q?", max_new_tokens=2))
        assert response.text == "one two"
        assert len(response.tokens) == 2


class FlakyBackend:
    """Succeeds except on prompts containing the marker word."""

    def __init__(self):
        self.calls = []

    def complete(self, request):
        self.calls.append(request.prompt)
        if "poison" in request.prompt:
            raise EndpointError("refused")
        return InferenceResponse(text="ok", model_id="stub")


class TestClientBatch:
    def test_sequential_batch_preserves_order(self):
        backend = MockBackend(rule="echo_last_word")
        reqs = [request_for(f"w{i}", "q?") for i in range(10)]
        responses = predict_batch(backend, reqs, max_in_flight=1)
        assert [r.text for r in responses] == [f"w{i}" for i in range(10)]

    def test_concurrent_batch_preserves_order(self):
        backend = MockBackend(rule="echo_last_word")
        reqs = [request_for(f"w{i}", "q?") for i in range(20)]
        responses = predict_batch(backend, reqs, max_in_flight=4)
        assert [r.text for r in responses] == [f"w{i}" for i in range(20)]

    @pytest.mark.parametrize("max_in_flight", [1, 2])
    def test_failures_reported_in_place(self, max_in_flight):
        reqs = [
            request_for("fine", "q?"),
            request_for("poison pill", "q?"),
            request_for("also fine", "q?"),
        ]
        results = predict_batch(FlakyBackend(), reqs, max_in_flight=max_in_flight)
        assert results[0].text == "ok"
        assert isinstance(results[1], EndpointError)
        assert results[2].text == "ok"

    def test_repeat_batches_identical(self):
        backend = MockBackend(rule="echo_last_word")
        reqs = [request_for(f"w{i}", "q?") for i in range(5)]
        assert predict_batch(backend, reqs, max_in_flight=3) == predict_batch(
            backend, reqs, max_in_flight=3
        )

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError):
            predict_batch(MockBackend(rule="echo_last_word"), [], max_in_flight=0)


# Seconds a "stall" step waits before closing; the retry tests give the
# client a shorter timeout than this.
STALL_S = 0.5


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves canned responses; the server instance carries the script.

    A script step is a (status, payload) pair or one of the transport
    faults "drop" (close the connection unanswered), "stall" (answer
    nothing for STALL_S) and "garbage" (send a malformed status line).
    """

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        self.server.requests.append(body)
        step = self.server.script[min(len(self.server.requests) - 1,
                                      len(self.server.script) - 1)]
        if step == "drop":
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_RDWR)
            return
        if step == "stall":
            time.sleep(STALL_S)
            self.close_connection = True
            return
        if step == "garbage":
            self.wfile.write(b"garbage\r\n\r\n")
            self.close_connection = True
            return
        status, payload = step
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if isinstance(payload, (dict, list)):
            self.wfile.write(json.dumps(payload).encode())
        else:
            self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.daemon_threads = True
    server.requests = []
    server.script = [(200, {"text": "", "model_id": "m", "tokens": []})]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def server_url(server):
    host, port = server.server_address
    return f"http://{host}:{port}/v1/complete"


class TestHTTPBackend:
    def test_round_trip(self, scripted_server):
        scripted_server.script = [
            (200, {
                "text": "4 pm",
                "model_id": "layout-reader-1",
                "tokens": [
                    {"text": "4", "logprob": -0.1},
                    {"text": " pm", "logprob": -0.2},
                ],
            })
        ]
        backend = HTTPBackend(server_url(scripted_server))
        response = backend.complete(request_for("open 4 pm", "when?", max_new_tokens=5))
        assert response.text == "4 pm"
        assert response.model_id == "layout-reader-1"
        assert [t.logprob for t in response.tokens] == [-0.1, -0.2]
        sent = scripted_server.requests[0]
        assert set(sent) == {"prompt", "max_new_tokens", "logprobs"}
        assert sent["max_new_tokens"] == 5
        assert sent["logprobs"] is True

    def test_logprobs_flag_follows_request(self, scripted_server):
        scripted_server.script = [(200, {"text": "x", "model_id": "m"})]
        backend = HTTPBackend(server_url(scripted_server))
        response = backend.complete(request_for("x", "q?", want_logprobs=False))
        assert response.tokens is None
        assert scripted_server.requests[0]["logprobs"] is False

    def test_http_error_carries_status_and_body(self, scripted_server):
        scripted_server.script = [(503, "overloaded, go away")]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError, match="503.*overloaded"):
            backend.complete(request_for("x", "q?"))
        assert len(scripted_server.requests) == 1  # protocol errors do not retry

    def test_malformed_json_rejected(self, scripted_server):
        scripted_server.script = [(200, "not json{")]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError, match="JSON"):
            backend.complete(request_for("x", "q?"))

    def test_positive_logprob_rejected(self, scripted_server):
        scripted_server.script = [
            (200, {"text": "x", "model_id": "m",
                   "tokens": [{"text": "x", "logprob": 0.5}]})
        ]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError, match="logprob"):
            backend.complete(request_for("x", "q?"))

    def test_missing_field_rejected(self, scripted_server):
        scripted_server.script = [(200, {"model_id": "m"})]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError):
            backend.complete(request_for("x", "q?"))


class TestRetries:
    def test_retries_then_succeeds_with_backoff(self, scripted_server):
        scripted_server.script = ["stall", "drop", (200, {"text": "ok", "model_id": "m"})]
        sleeps = []
        backend = HTTPBackend(
            server_url(scripted_server),
            timeout=0.2,
            max_attempts=3,
            backoff_base=0.5,
            jitter_rng=random.Random(0),
            sleeper=sleeps.append,
        )
        response = backend.complete(request_for("x", "q?", want_logprobs=False))
        assert response.text == "ok"
        assert len(scripted_server.requests) == 3
        # Backoff doubles per attempt; jitter scales by [0.5, 1.0).
        assert len(sleeps) == 2
        assert 0.25 <= sleeps[0] < 0.5
        assert 0.5 <= sleeps[1] < 1.0

    def test_exhausted_retries_name_attempt_count(self, scripted_server):
        scripted_server.script = ["drop"]
        backend = HTTPBackend(
            server_url(scripted_server),
            max_attempts=3,
            sleeper=lambda s: None,
        )
        with pytest.raises(EndpointError, match="3 attempts"):
            backend.complete(request_for("x", "q?"))
        assert len(scripted_server.requests) == 3

    def test_malformed_status_line_is_retried(self, scripted_server):
        scripted_server.script = ["garbage"]
        backend = HTTPBackend(
            server_url(scripted_server),
            max_attempts=3,
            sleeper=lambda s: None,
        )
        with pytest.raises(EndpointError, match="3 attempts"):
            backend.complete(request_for("x", "q?"))
        assert len(scripted_server.requests) == 3

    def test_connection_refused_retries_then_fails(self):
        # Grab a port that nothing is listening on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = HTTPBackend(
            f"http://127.0.0.1:{port}/complete",
            max_attempts=2,
            sleeper=lambda s: None,
        )
        with pytest.raises(EndpointError, match="2 attempts"):
            backend.complete(request_for("x", "q?"))

    def test_max_attempts_validated(self):
        bad = [
            ("max_attempts", 0), ("max_attempts", "3"), ("max_attempts", True),
            ("max_attempts", 2.0), ("timeout", "x"), ("timeout", 0),
            ("timeout", -1.0), ("timeout", math.inf), ("timeout", math.nan),
            ("timeout", True), ("backoff_base", -1), ("backoff_base", math.inf),
            ("backoff_base", "0.5"), ("endpoint", "notaurl"), ("endpoint", "ftp://x/y"),
            ("endpoint", "http://"), ("endpoint", "http://h/a b"), ("endpoint", "http://h:x/"),
        ]
        for key, value in bad:
            with pytest.raises(ValueError, match=key):
                HTTPBackend(**{"endpoint": "http://example.invalid", key: value})
        HTTPBackend("http://example.invalid", timeout=1, max_attempts=1, backoff_base=0)


def test_importing_the_cli_loads_no_http_library():
    code = "import sys, docqa.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
