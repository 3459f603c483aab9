import gc
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
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_dataset_config, write_records
from docqa import cli, llmclient
from docqa.analysis import load_predictions, reading_order_perplexity
from docqa.errors import EndpointError
from docqa.llmclient import (
    TIMEOUT_MAX,
    HTTPBackend,
    InferenceRequest,
    InferenceResponse,
    MockBackend,
    predict_batch,
)
from docqa.metrics import contains_words, word_haystack
from docqa.serialize import SerializedContext, build_prompt, parse_prompt


def context_for(context_text, doc_id="d"):
    return SerializedContext(doc_id=doc_id, context=context_text, token_count=0)


def prompt_for(context_text, question):
    return build_prompt(context_for(context_text), question).text


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
        backend = MockBackend()
        response = backend.complete(request_for("a b c", "which word?"))
        assert response.text == "c"

    def test_empty_context_yields_empty_answer(self):
        backend = MockBackend()
        response = backend.complete(request_for("", "which word?"))
        assert response.text == ""
        assert response.tokens == ()

    def test_deterministic(self):
        backend = MockBackend()
        req = request_for("alpha beta", "q?")
        assert backend.complete(req) == backend.complete(req)

    def test_logprobs_omitted_when_not_requested(self):
        backend = MockBackend()
        response = backend.complete(request_for("a b", "q?", want_logprobs=False))
        assert response.tokens is None


def answer_key_backend(context_text, golds):
    """A mock built from one record per question, asked of context_text, with
    its golds."""
    ctx = context_for(context_text)
    return MockBackend((ctx, question, answers) for question, answers in golds.items())


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
        records = [
            (context_for("total due 42", "d1"), "total?", ("42",)),
            (context_for("total due 17", "d2"), "total?", ("17",)),
        ]
        backend = MockBackend(records)
        assert backend.complete(request_for("total due 42", "total?")).text == "42"
        assert backend.complete(request_for("total due 17", "total?")).text == "17"

    def test_keeps_no_copy_of_a_context_after_answering(self):
        # The mock used to normalize each context on its first request and
        # keep the result, keyed by a copy of the context sliced out of that
        # prompt: two more copies of every page for the whole run. Now every
        # answer is decided when the mock is built. Only what docqa's own
        # lines allocated counts; the interpreter keeps freed tuples on its
        # free lists, which tracemalloc still sees.
        contexts = [" ".join(f"p{page}w{i}" for i in range(1000)) for page in range(20)]
        key = {
            (text, f"question {q}?"): ("absent", f"p{page}w{q * 7}")
            for page, text in enumerate(contexts) for q in range(20)
        }
        requests = [request_for(text, question) for text, question in key]
        golds = [answers[1] for answers in key.values()]
        pages = {text: context_for(text, f"d{page}") for page, text in enumerate(contexts)}
        records = [(pages[text], question, answers) for (text, question), answers in key.items()]
        tracemalloc.start()
        try:
            backend = MockBackend(records)
            right = sum(backend.complete(r).text == g for r, g in zip(requests, golds))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        docqa_lines = tracemalloc.Filter(True, str(Path(llmclient.__file__).parent / "*"))
        held = sum(s.size for s in snapshot.filter_traces([docqa_lines]).statistics("filename"))
        assert right == len(requests) == 400
        context_chars = sum(map(len, contexts))
        assert held < context_chars / 4, (held, context_chars)

    def test_records_pool_by_the_pair_their_prompt_parses_to(self):
        # The prompt of d3's question parses back as context
        # "total due 42 Question: what is the", question "total?": d4's own
        # pair, so the two pool their golds under it, while d1 and d2 ask the
        # same question of two documents and keep theirs apart.
        records = [
            (context_for("total due 42", "d1"), "total?", ("42",)),
            (context_for("total due 17", "d2"), "total?", ("17",)),
            (context_for("total due 42", "d3"), "what is the Question: total?", ("absent", "42")),
            (context_for("total due 42 Question: what is the", "d4"), "total?", ("due",)),
            (context_for("total due 17", "d5"), "owed?", ("absent",)),
        ]
        backend = MockBackend(records)
        asked = [
            ("total due 42", "total?", "42"),
            ("total due 17", "total?", "17"),
            ("total due 42", "what is the Question: total?", "42"),
            ("total due 42 Question: what is the", "total?", "42"),
            ("total due 17", "owed?", "unknown"),
            ("total due 17", "other?", "unknown"),
            ("total due 99", "total?", "unknown"),
        ]
        for context_text, question, answer in asked:
            assert backend.complete(request_for(context_text, question)).text == answer


# Contexts and questions drawn from the template's own markers, so a marker
# inside a question or context, and the splits it allows, come up often.
MARKER_TEXT = st.lists(
    st.sampled_from(("Question: ", " Question: ", " Answer:", "Context: ", " ", "a", "b")),
    max_size=5,
).map("".join)
GOLDS = st.lists(st.sampled_from(("a", "b", "a b", "Question:", "zz")), min_size=1, max_size=2)


def answers_keyed_by_prompt(prompts, golds):
    """The mock's answers under an answer key keyed by the whole prompt:
    records with equal prompts pool their golds, and each prompt gets the
    first pooled gold that is a run of whole words of its context."""
    key = {}
    for prompt, answers in zip(prompts, golds):
        key.setdefault(prompt, []).extend(answers)
    out = []
    for prompt in prompts:
        haystack = word_haystack(parse_prompt(prompt)[0])
        out.append(next((g for g in key[prompt] if contains_words(haystack, g)), "unknown"))
    return out


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    contexts=st.lists(MARKER_TEXT, min_size=1, max_size=3),
    records=st.lists(
        st.tuples(st.integers(0, 2), MARKER_TEXT.filter(bool), GOLDS), min_size=1, max_size=6
    ),
)
def test_answer_key_answers_as_a_key_by_whole_prompt(tmp_path, contexts, records):
    contexts_path = tmp_path / "contexts.jsonl"
    header = {"config_digest": "0", "stage": "serialize", "strategy": "standard",
              "dataset": "toy", "budget": 1024}
    write_records(contexts_path, [header] + [
        {"doc_id": f"d{i}", "context": text, "token_count": len(text.split())}
        for i, text in enumerate(contexts)
    ])
    qa_path = tmp_path / "qa.jsonl"
    write_records(qa_path, [
        {"example_id": f"e{n}", "doc_id": f"d{doc % len(contexts)}", "question": question,
         "answers": golds}
        for n, (doc, question, golds) in enumerate(records)
    ])
    config = write_dataset_config(tmp_path / "benchmarks.json", ["toy"])
    out = tmp_path / "predictions.jsonl"
    assert cli.main([
        "predict", "--qa", str(qa_path), "--contexts", str(contexts_path),
        "--dataset", "toy", "--datasets-config", str(config),
        "--backend", "mock-answer-key", "--out", str(out),
    ]) == 0

    prompts = [prompt_for(contexts[doc % len(contexts)], q) for doc, q, _ in records]
    expected = answers_keyed_by_prompt(prompts, [golds for _, _, golds in records])
    _, predictions = load_predictions(out)
    assert [p.text for p in predictions] == [" ".join(a.split()) for a in expected]


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
        backend = MockBackend()
        reqs = [request_for(f"w{i}", "q?") for i in range(10)]
        responses = predict_batch(backend, reqs, max_in_flight=1)
        assert [r.text for r in responses] == [f"w{i}" for i in range(10)]

    def test_concurrent_batch_preserves_order(self):
        backend = MockBackend()
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

    @pytest.mark.parametrize("max_in_flight", [1, 2])
    def test_failures_keep_no_frames_alive(self, max_in_flight):
        class RefusingBackend:
            def complete(self, request):
                try:
                    raise OSError("connection refused")
                except OSError as exc:
                    raise EndpointError(f"request failed: {exc}") from exc

        reqs = [request_for(f"w{i}", "q?") for i in range(100)]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            results = predict_batch(RefusingBackend(), reqs, max_in_flight=max_in_flight)
            assert all(r.__traceback__ is None and r.__cause__ is None for r in results)
            assert [str(r) for r in results] == ["request failed: connection refused"] * 100
            del results
            # Raised errors kept as results would hold their frames, and
            # through them the pool's futures, in cycles only gc can free.
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_repeat_batches_identical(self):
        backend = MockBackend()
        reqs = [request_for(f"w{i}", "q?") for i in range(5)]
        assert predict_batch(backend, reqs, max_in_flight=3) == predict_batch(
            backend, reqs, max_in_flight=3
        )

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError):
            predict_batch(MockBackend(), [], max_in_flight=0)


class CountingBackend:
    """Echoes the last context word and counts the calls that returned."""

    def __init__(self, gate=None):
        self.done = 0
        self.gate = gate
        self._lock = threading.Lock()
        self._echo = MockBackend()

    def complete(self, request):
        if self.gate is not None:
            assert self.gate.wait(timeout=10)
        response = self._echo.complete(request)
        with self._lock:
            self.done += 1
        return response


# predict_batch keeps at most this many requests queued per worker.
QUEUED_PER_WORKER = 16


class TestLazyBatch:
    """predict_batch pulls its requests only a bounded window ahead."""

    def test_serial_path_pulls_one_request_per_result(self):
        backend = CountingBackend()
        done_at_pull = []

        def requests():
            for i in range(10):
                done_at_pull.append(backend.done)
                yield request_for(f"w{i}", "q?")

        results = predict_batch(backend, requests(), max_in_flight=1)
        assert [r.text for r in results] == [f"w{i}" for i in range(10)]
        assert done_at_pull == list(range(10))

    def test_pool_pulls_a_bounded_window_ahead(self):
        window = QUEUED_PER_WORKER * 2
        gate = threading.Event()
        backend = CountingBackend(gate)
        ahead = []

        def requests():
            for i in range(10 * window):
                ahead.append(i - backend.done)
                # The workers wait until a full window has been pulled, so
                # a pool that pulls further ahead shows it at once.
                if i + 1 == window:
                    gate.set()
                yield request_for(f"w{i}", "q?")

        results = predict_batch(backend, requests(), max_in_flight=2)
        assert [r.text for r in results] == [f"w{i}" for i in range(10 * window)]
        assert max(ahead) < window

    @pytest.mark.parametrize("max_in_flight", [1, 3])
    def test_empty_generator_gives_an_empty_list(self, max_in_flight):
        backend = MockBackend()
        assert predict_batch(backend, (r for r in ()), max_in_flight=max_in_flight) == []

    def test_zero_in_flight_raises_before_pulling(self):
        pulled = []

        def requests():
            pulled.append(1)
            yield request_for("w", "q?")

        with pytest.raises(ValueError, match="max_in_flight"):
            predict_batch(MockBackend(), requests(), max_in_flight=0)
        assert pulled == []

    @pytest.mark.parametrize("max_in_flight", [1, 2])
    def test_other_errors_propagate_and_cancel_the_queue(self, max_in_flight):
        calls = []

        class BrokenBackend:
            def complete(self, request):
                calls.append(request.prompt)
                if len(calls) == 1:
                    raise RuntimeError("backend bug")
                time.sleep(0.002)
                return InferenceResponse(text="ok", model_id="stub")

        reqs = [request_for(f"w{i}", "q?") for i in range(200)]
        with pytest.raises(RuntimeError, match="backend bug"):
            predict_batch(BrokenBackend(), iter(reqs), max_in_flight=max_in_flight)
        ran = len(calls)
        time.sleep(0.05)
        assert len(calls) == ran
        # Only requests pulled before the error surfaced can have run.
        assert ran <= (1 if max_in_flight == 1 else QUEUED_PER_WORKER * max_in_flight)


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

    def test_reply_nested_too_deeply_is_invalid_json_and_not_retried(self, scripted_server):
        # json.loads raised RecursionError here, which escaped predict_batch
        # and lost every finished answer.
        scripted_server.script = [(200, "[" * 100_000)]
        backend = HTTPBackend(server_url(scripted_server), sleeper=lambda s: None)
        with pytest.raises(EndpointError, match="^endpoint returned invalid JSON: "):
            backend.complete(request_for("x", "q?"))
        assert len(scripted_server.requests) == 1

    def test_reply_with_too_long_an_integer_is_invalid_json(self, scripted_server):
        # json.loads raised a bare ValueError here, reported with advice for
        # the programmer about sys.set_int_max_str_digits().
        scripted_server.script = [(200, '{"text": "x", "model_id": ' + "1" * 5000 + "}")]
        backend = HTTPBackend(server_url(scripted_server), sleeper=lambda s: None)
        with pytest.raises(
            EndpointError, match="^endpoint returned invalid JSON: integer has too many digits$"
        ):
            backend.complete(request_for("x", "q?"))
        assert len(scripted_server.requests) == 1

    SURROGATE_REPLY = b'{"text": "\xed\xa0\x80", "model_id": "m", "tokens": null}'

    @pytest.mark.parametrize("step, reason", [
        ((200, '{"text": "\\ud800", "model_id": "m", "tokens": null}'),
         "lone surrogate in a string"),
        (b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s"
         % (len(SURROGATE_REPLY), SURROGATE_REPLY),
         "'utf-8' codec can't decode byte 0xed in position 10: invalid continuation byte"),
    ], ids=["escaped", "raw bytes"])
    def test_reply_with_a_lone_surrogate_is_invalid_json_and_not_retried(
        self, scripted_server, step, reason
    ):
        # json.loads took both, and the text could not be written to the
        # predictions file: a UnicodeEncodeError that lost every answer.
        scripted_server.script = [step]
        backend = HTTPBackend(server_url(scripted_server), sleeper=lambda s: None)
        with pytest.raises(EndpointError) as caught:
            backend.complete(request_for("x", "q?"))
        assert str(caught.value) == f"endpoint returned invalid JSON: {reason}"
        assert len(scripted_server.requests) == 1

    def test_positive_logprob_rejected(self, scripted_server):
        scripted_server.script = [
            (200, {"text": "x", "model_id": "m",
                   "tokens": [{"text": "x", "logprob": 0.5}]})
        ]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError) as caught:
            backend.complete(request_for("x", "q?"))
        assert str(caught.value) == (
            "malformed endpoint response: logprob must be a finite number <= 0, got 0.5"
        )

    def test_missing_field_rejected(self, scripted_server):
        # It used to be recorded as "malformed endpoint response: 'text'".
        scripted_server.script = [(200, {"model_id": "m"})]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError) as caught:
            backend.complete(request_for("x", "q?"))
        assert str(caught.value) == "malformed endpoint response: text must be a string, got None"

    @pytest.mark.parametrize("body, message", [
        ({"text": "x"}, "model_id must be a non-empty string, got None"),
        ({"text": "x", "model_id": "m", "tokens": [5]}, "token must be an object, got 5"),
        ({"text": "x", "model_id": "m", "tokens": [["x", 0]]},
         "token must be an object, got ['x', 0]"),
        # False is not above 0, so only the exact type test refuses it.
        ({"text": "x", "model_id": "m", "tokens": [{"text": "x", "logprob": False}]},
         "logprob must be a finite number <= 0, got False"),
    ], ids=["no model_id", "number token", "list token", "bool logprob"])
    def test_malformed_reply_worded_by_its_rule(self, scripted_server, body, message):
        scripted_server.script = [(200, body)]
        backend = HTTPBackend(server_url(scripted_server))
        with pytest.raises(EndpointError) as caught:
            backend.complete(request_for("x", "q?"))
        assert str(caught.value) == f"malformed endpoint response: {message}"


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

    def test_backoff_is_capped_at_timeout_max(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        backend = HTTPBackend(
            f"http://127.0.0.1:{port}/complete",
            max_attempts=3,
            backoff_base=TIMEOUT_MAX,
            sleeper=sleeps.append,
        )
        with pytest.raises(EndpointError, match="3 attempts"):
            backend.complete(request_for("x", "q?"))
        assert TIMEOUT_MAX / 2 <= sleeps[0] < TIMEOUT_MAX
        assert sleeps[1] == TIMEOUT_MAX

    def test_backoff_of_a_late_attempt_does_not_overflow(self):
        # With backoff_base 0.0 and max_attempts 1100, attempt 1025 computed
        # 0.0 * 2**1024 and raised "int too large to convert to float".
        zero = HTTPBackend("http://example.invalid", backoff_base=0.0)
        assert zero.backoff(1025) == 0.0
        for base in (1e-290, 1.0, TIMEOUT_MAX):
            backend = HTTPBackend("http://example.invalid", backoff_base=base)
            assert [backend.backoff(a) for a in (1025, 1100, 10**6)] == [TIMEOUT_MAX] * 3

    def test_default_sleeper_takes_the_longest_backoff(self):
        # time.sleep fails with EINVAL once the clock plus the delay passes
        # the clock's range, as TIMEOUT_MAX does on Linux after a second of
        # uptime; the default sleeper must just wait, here until it is killed.
        code = (
            "from docqa.llmclient import TIMEOUT_MAX, HTTPBackend\n"
            "HTTPBackend('http://example.invalid').sleeper(TIMEOUT_MAX)"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        with pytest.raises(subprocess.TimeoutExpired):
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, timeout=2,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )

    def test_longest_timeout_reaches_the_socket(self):
        # A socket timeout past TIMEOUT_MAX raised OverflowError on connect.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = HTTPBackend(
            f"http://127.0.0.1:{port}/complete", timeout=TIMEOUT_MAX, max_attempts=1
        )
        with pytest.raises(EndpointError, match="unreachable after 1 attempts"):
            backend.complete(request_for("x", "q?"))

    def test_failed_attempts_leave_no_reference_cycles(self):
        # cli.main pauses the cyclic collector for a whole predict run, so a
        # cycle per failed attempt would hold its request body until the end.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = HTTPBackend(
            f"http://127.0.0.1:{port}/complete", max_attempts=3, sleeper=lambda s: None
        )

        def message():
            try:
                backend.complete(request_for("x", "q?"))
            except EndpointError as exc:
                return str(exc)

        gc.collect()
        # Every object a collection finds unreachable goes to gc.garbage.
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert "3 attempts" in message()
            gc.collect()
            in_cycles = [o for o in gc.garbage if isinstance(o, OSError)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert in_cycles == []

    def test_max_attempts_validated(self):
        bad = [
            ("max_attempts", 0), ("max_attempts", "3"), ("max_attempts", True),
            ("max_attempts", 2.0), ("timeout", "x"), ("timeout", 0),
            ("timeout", -1.0), ("timeout", math.inf), ("timeout", math.nan),
            ("timeout", True), ("timeout", 10**400), ("timeout", 1e10),
            ("timeout", TIMEOUT_MAX + 1), ("backoff_base", -1), ("backoff_base", math.inf),
            ("backoff_base", "0.5"), ("backoff_base", 1e300), ("backoff_base", TIMEOUT_MAX + 1),
        ]
        rules = {
            "max_attempts": "an integer >= 1",
            "timeout": f"a number in (0, {TIMEOUT_MAX}]",
            "backoff_base": f"a number in [0, {TIMEOUT_MAX}]",
        }
        for key, value in bad:
            with pytest.raises(ValueError) as info:
                HTTPBackend(**{"endpoint": "http://example.invalid", key: value})
            assert str(info.value) == f"{key} must be {rules[key]}, got {value!r}"
        for value in ("notaurl", "ftp://x/y", "http://", "http://h/a b", "http://h:x/"):
            with pytest.raises(ValueError, match="endpoint"):
                HTTPBackend(value)
        HTTPBackend("http://example.invalid", timeout=1, max_attempts=1, backoff_base=0)
        HTTPBackend("http://example.invalid", timeout=TIMEOUT_MAX, backoff_base=TIMEOUT_MAX)


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

    def test_reply_that_is_not_an_object_is_recorded_in_its_row(
        self, scripted_server, tmp_path, capsys
    ):
        scripted_server.script = [(200, [{"text": "ok", "model_id": "m"}])]
        out = tmp_path / "pred.jsonl"
        assert predict_over_http(server_url(scripted_server), out) == 3
        _, predictions = load_predictions(out)
        assert {p.error for p in predictions} == {"endpoint returned list, expected object"}
        assert capsys.readouterr() == ("wrote 9 predictions to " + str(out) + "\n",
                                       "9 of 9 requests failed\n")
        assert len(scripted_server.requests) == 9

    def test_error_reply_cut_short_is_recorded_in_its_row(
        self, scripted_server, tmp_path, capsys
    ):
        scripted_server.script = [CUT_SHORT_503]
        out = tmp_path / "pred.jsonl"
        assert predict_over_http(server_url(scripted_server), out, "--parallelism", "2") == 3
        _, predictions = load_predictions(out)
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
