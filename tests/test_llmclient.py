import json
import math
import os
import random
import resource
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from docqa import cli
from docqa.analysis import load_predictions, reading_order_perplexity
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


# Seconds a "stall" step waits before answering; the retry tests give the
# client a shorter timeout than this.
STALL_S = 0.5

# A 503 that promises 100 body bytes and sends 10 before closing.
CUT_SHORT_503 = (
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 100\r\n\r\n0123456789"
)


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves canned responses; the server instance carries the script.

    A script step is a (status, payload) pair, raw bytes sent as the whole
    reply before closing, or one of the transport faults "drop" (close the
    connection unanswered), "stall" (answer only after STALL_S, then close)
    and "garbage" (send a malformed status line). "echo" answers with the
    request's own prompt. The server records each request line in `seen`,
    each POST body in `requests` and the headers of each request in
    `headers`; `accepted` and `finished` grow by one per connection opened
    and per connection whose handler has ended. With `hang_up` set it
    closes every connection right after replying.
    """

    def setup(self):
        super().setup()
        self.server.accepted.append(self.client_address)

    def finish(self):
        super().finish()
        self.server.finished.append(self.client_address)

    def record(self):
        self.server.seen.append(f"{self.command} {self.path}")
        self.server.headers.append(dict(self.headers))

    def do_GET(self):
        self.record()
        self.reply(200, {"text": "from a GET", "model_id": "m"})

    def do_CONNECT(self):
        self.record()
        self.close_connection = True

    def do_POST(self):
        self.record()
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
            try:
                self.reply(200, {"text": "late", "model_id": "m"})
            except OSError:
                pass  # the client gave up and closed
            return
        if step == "garbage":
            self.wfile.write(b"garbage\r\n\r\n")
            self.close_connection = True
            return
        if isinstance(step, bytes):
            self.wfile.write(step)
            self.close_connection = True
            return
        if step == "echo":
            step = (200, {"text": body["prompt"], "model_id": "m"})
        self.reply(*step)
        if self.server.hang_up:
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_RDWR)

    def reply(self, status, payload):
        if isinstance(payload, (dict, list)):
            data = json.dumps(payload).encode()
        else:
            data = payload.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        # An HTTP/1.1 reply needs a length for the connection to stay open.
        if self.protocol_version == "HTTP/1.1":
            self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class KeepAliveHandler(ScriptedHandler):
    """ScriptedHandler speaking HTTP/1.1, so connections stay open."""

    protocol_version = "HTTP/1.1"
    # Without this, delayed ACKs on the client stall every keep-alive reply.
    disable_nagle_algorithm = True


@pytest.fixture
def serve():
    """Starts ScriptedHandler-style servers; all are shut down afterwards."""
    started = []

    def start(handler=ScriptedHandler):
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        server.requests, server.seen, server.headers = [], [], []
        server.accepted, server.finished = [], []
        server.hang_up = False
        server.script = [(200, {"text": "", "model_id": "m", "tokens": []})]
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def scripted_server(serve):
    return serve()


@pytest.fixture
def keepalive_server(serve):
    return serve(KeepAliveHandler)


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

    def test_redirect_is_a_protocol_error_and_not_followed(self, scripted_server, http_backend):
        scripted_server.script = [
            b"HTTP/1.1 302 Found\r\nLocation: /other\r\nContent-Length: 0\r\n\r\n"
        ]
        backend = http_backend(server_url(scripted_server))
        with pytest.raises(EndpointError, match="^endpoint returned 302: $"):
            backend.complete(request_for("x", "q?"))
        assert scripted_server.seen == ["POST /v1/complete"]

    def test_error_reply_cut_short_still_reports_status(self, scripted_server):
        scripted_server.script = [CUT_SHORT_503]
        backend = HTTPBackend(server_url(scripted_server), sleeper=lambda s: None)
        with pytest.raises(EndpointError, match="^endpoint returned 503: $"):
            backend.complete(request_for("x", "q?"))
        assert len(scripted_server.requests) == 1

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


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


OK = (200, {"text": "ok", "model_id": "m"})


@pytest.fixture
def http_backend():
    """Makes HTTPBackends and closes their connections after the test."""
    made = []

    def make(*args, **kwargs):
        made.append(HTTPBackend(*args, **kwargs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, keepalive_server, http_backend):
        keepalive_server.script = ["echo"]
        backend = http_backend(server_url(keepalive_server))
        for i in range(20):
            request = request_for(f"w{i}", "q?", want_logprobs=False)
            assert backend.complete(request).text == request.prompt
        assert len(keepalive_server.requests) == 20
        assert len(keepalive_server.accepted) == 1

    @pytest.mark.parametrize("max_in_flight", [2, 8])
    def test_no_more_connections_than_requests_in_flight(
        self, keepalive_server, http_backend, max_in_flight
    ):
        keepalive_server.script = ["echo"]
        backend = http_backend(server_url(keepalive_server))
        reqs = [request_for(f"w{i}", "q?", want_logprobs=False) for i in range(200)]
        # Frequent thread switches give a race on the idle stack a chance
        # to hand one connection to two requests, which would cross replies.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = predict_batch(backend, reqs, max_in_flight=max_in_flight)
        finally:
            sys.setswitchinterval(interval)
        assert [r.text for r in results] == [r.prompt for r in reqs]
        assert len(keepalive_server.requests) == 200
        assert 1 <= len(keepalive_server.accepted) <= max_in_flight

    def test_timed_out_connection_is_never_reused(self, keepalive_server, http_backend):
        keepalive_server.script = ["stall", (200, {"text": "fresh", "model_id": "m"})]
        backend = http_backend(
            server_url(keepalive_server), timeout=0.2, max_attempts=2,
            sleeper=lambda s: None,
        )
        response = backend.complete(request_for("x", "q?", want_logprobs=False))
        assert response.text == "fresh"
        assert len(keepalive_server.requests) == 2
        assert len(keepalive_server.accepted) == 2

    def test_connection_closed_while_idle_is_replaced_for_free(
        self, keepalive_server, http_backend
    ):
        keepalive_server.script = ["echo"]
        keepalive_server.hang_up = True
        backend = http_backend(server_url(keepalive_server), max_attempts=1)
        for i in range(2):
            request = request_for(f"w{i}", "q?", want_logprobs=False)
            assert backend.complete(request).text == request.prompt
            assert wait_until(lambda: len(keepalive_server.finished) == i + 1)
        assert len(keepalive_server.requests) == 2
        assert len(keepalive_server.accepted) == 2

    def test_error_reply_keeps_the_connection(self, keepalive_server, http_backend):
        keepalive_server.script = [(503, "overloaded"), OK]
        backend = http_backend(server_url(keepalive_server))
        with pytest.raises(EndpointError, match="^endpoint returned 503: overloaded$"):
            backend.complete(request_for("x", "q?"))
        assert backend.complete(request_for("x", "q?")).text == "ok"
        assert len(keepalive_server.accepted) == 1

    def test_idle_connection_on_a_high_descriptor_is_reused(
        self, keepalive_server, http_backend
    ):
        # select() cannot take a descriptor at or above FD_SETSIZE (1024).
        high = 1500
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high:
            pytest.skip(f"RLIMIT_NOFILE does not allow descriptor {high}")
        keepalive_server.script = ["echo"]
        backend = http_backend(server_url(keepalive_server), max_attempts=1)
        first = request_for("a", "q?", want_logprobs=False)
        assert backend.complete(first).text == first.prompt
        [conn] = backend._idle
        os.dup2(conn.sock.fileno(), high)
        low, conn.sock = conn.sock, socket.socket(fileno=high)
        conn.sock.settimeout(low.gettimeout())
        low.close()
        second = request_for("b", "q?", want_logprobs=False)
        assert backend.complete(second).text == second.prompt
        assert len(keepalive_server.accepted) == 1


GOLDEN = Path(__file__).resolve().parent / "golden"


def predict_over_http(endpoint, out, *extra):
    return cli.main([
        "predict", "--qa", str(GOLDEN / "input" / "qa.jsonl"),
        "--contexts", str(GOLDEN / "expected" / "contexts-standard.jsonl"),
        "--dataset", "golden", "--datasets-config", str(GOLDEN / "input" / "benchmarks.json"),
        "--backend", "http", "--endpoint", endpoint, "--out", str(out), *extra,
    ])


class TestPredictOverHTTP:
    def test_connections_closed_when_predict_returns(
        self, keepalive_server, monkeypatch, tmp_path, capsys
    ):
        keepalive_server.script = [OK]
        # Keeps every backend alive, so only close() can end its connections.
        backends = []

        class KeptBackend(HTTPBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                backends.append(self)

        monkeypatch.setattr(cli, "HTTPBackend", KeptBackend)
        code = predict_over_http(
            server_url(keepalive_server), tmp_path / "pred.jsonl", "--parallelism", "2"
        )
        assert code == 0
        assert len(backends) == 1
        assert 1 <= len(keepalive_server.accepted) <= 2
        assert wait_until(
            lambda: len(keepalive_server.finished) == len(keepalive_server.accepted)
        )

    def test_error_reply_cut_short_is_recorded_in_its_row(
        self, scripted_server, tmp_path, capsys
    ):
        scripted_server.script = [CUT_SHORT_503]
        out = tmp_path / "pred.jsonl"
        assert predict_over_http(server_url(scripted_server), out, "--parallelism", "2") == 3
        predictions = load_predictions(out)
        assert len(predictions) == 9
        assert {p.error for p in predictions} == {"endpoint returned 503: "}
        assert len(scripted_server.requests) == 9


PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "all_proxy")


def proxy_env(monkeypatch, **values):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def proxy_url(server, userinfo=""):
    host, port = server.server_address
    return f"http://{userinfo}{host}:{port}"


# "user:p@ss" in base64, as Proxy-Authorization: Basic carries it.
BASIC_CREDENTIALS = "Basic dXNlcjpwQHNz"


class TestProxies:
    def test_http_goes_through_the_proxy_with_credentials(self, serve, monkeypatch):
        proxy = serve()
        proxy.script = [(200, {"text": "via proxy", "model_id": "m"})]
        proxy_env(monkeypatch, http_proxy=proxy_url(proxy, "user:p%40ss@"))
        backend = HTTPBackend("http://docqa.invalid:8080/v1/complete?v=2#frag")
        assert backend.complete(request_for("x", "q?")).text == "via proxy"
        assert proxy.seen == ["POST http://docqa.invalid:8080/v1/complete?v=2"]
        assert proxy.headers[0]["Proxy-Authorization"] == BASIC_CREDENTIALS
        assert proxy.headers[0]["Host"] == "docqa.invalid:8080"

    def test_no_proxy_host_bypasses_the_proxy(self, serve, monkeypatch):
        proxy, endpoint = serve(), serve()
        endpoint.script = [OK]
        proxy_env(monkeypatch, http_proxy=proxy_url(proxy), no_proxy="127.0.0.1")
        backend = HTTPBackend(server_url(endpoint))
        assert backend.complete(request_for("x", "q?")).text == "ok"
        assert proxy.seen == []
        assert endpoint.seen == ["POST /v1/complete"]
        assert "Proxy-Authorization" not in endpoint.headers[0]

    def test_https_tunnels_with_connect(self, serve, monkeypatch):
        proxy = serve()
        proxy_env(monkeypatch, https_proxy=proxy_url(proxy, "user:p%40ss@"))
        backend = HTTPBackend(
            "https://docqa.invalid:8443/v1/complete", max_attempts=2, sleeper=lambda s: None
        )
        with pytest.raises(EndpointError, match="unreachable after 2 attempts"):
            backend.complete(request_for("x", "q?"))
        assert proxy.seen == ["CONNECT docqa.invalid:8443"] * 2
        assert [h["Proxy-Authorization"] for h in proxy.headers] == [BASIC_CREDENTIALS] * 2


def test_importing_the_cli_loads_no_http_library():
    heavy = {"http.client", "ssl", "email.parser", "urllib.request", "concurrent.futures",
             "requests", "urllib3"}
    code = f"import sys, docqa.cli; print(sorted({heavy!r} & set(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
