"""Local mock completion endpoint for the `http_predict` workload.

Speaks the `predict --backend http` wire protocol on 127.0.0.1 using only the
standard library. Everything it does to a request is a pure function of the
prompt, so a rerun meets the same latencies and the same faults:

- latency: 5-15 ms, except a 2% tail that waits 60 ms;
- connection drops: 1.5% of prompts lose the connection on the first attempt
  and 0.5% on the first two; the client retries these and then succeeds;
- unavailability: 1% of prompts get a 503, which the client does not retry;
- answer: the last two words of the prompt's context.

The server counts attempts per prompt, so the benchmark can measure retries
from outside the client. Run it as `python3 mock_server.py`; it prints its
port on the first line of stdout and serves until terminated.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CONTEXT_PREFIX = "Context: "
QUESTION_SEP = " Question: "
ANSWER_SUFFIX = " Answer:"
TOKEN_LOGPROB = -0.5
MODEL_ID = "mock-http"


def _unit(prompt: str, salt: str) -> float:
    digest = hashlib.sha256(f"{salt}\0{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def dropped_attempts(prompt: str) -> int:
    """How many leading attempts for this prompt lose their connection."""
    u = _unit(prompt, "fault")
    if 0.010 <= u < 0.015:
        return 2
    if 0.015 <= u < 0.030:
        return 1
    return 0


def unavailable(prompt: str) -> bool:
    """True when every attempt for this prompt gets a 503."""
    return _unit(prompt, "fault") < 0.010


def latency_s(prompt: str) -> float:
    if _unit(prompt, "tail") < 0.02:
        return 0.060
    return 0.005 + 0.010 * _unit(prompt, "latency")


def context_of(prompt: str) -> str:
    inner = prompt[len(CONTEXT_PREFIX) : -len(ANSWER_SUFFIX)]
    return inner[: inner.rfind(QUESTION_SEP)]


def answer(prompt: str) -> str:
    return " ".join(context_of(prompt).split()[-2:])


def completion(prompt: str, max_new_tokens: int, logprobs: bool) -> dict:
    words = answer(prompt).split()[:max_new_tokens]
    pieces = [w if i == 0 else " " + w for i, w in enumerate(words)]
    tokens = [{"text": p, "logprob": TOKEN_LOGPROB} for p in pieces] if logprobs else None
    return {"text": "".join(pieces), "model_id": MODEL_ID, "tokens": tokens}


class _Counters:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.attempts_by_prompt: dict[str, int] = {}
            self.totals = {"attempts": 0, "answered": 0, "unavailable": 0, "dropped": 0}

    def attempt(self, prompt: str) -> int:
        with self._lock:
            n = self.attempts_by_prompt.get(prompt, 0) + 1
            self.attempts_by_prompt[prompt] = n
            self.totals["attempts"] += 1
            return n

    def count(self, outcome: str) -> None:
        with self._lock:
            self.totals[outcome] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.totals, prompts=len(self.attempts_by_prompt))


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, delayed ACKs on the client stall every keep-alive reply.
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._reply(200, self.server.counters.snapshot())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.server.counters.reset()
            self._reply(200, {})
            return
        payload = json.loads(body)
        prompt = payload["prompt"]
        if self.server.counters.attempt(prompt) <= dropped_attempts(prompt):
            self.server.counters.count("dropped")
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_RDWR)
            return
        time.sleep(latency_s(prompt))
        if unavailable(prompt):
            self.server.counters.count("unavailable")
            self._reply(503, {"error": "model overloaded"})
            return
        self.server.counters.count("answered")
        self._reply(200, completion(prompt, payload["max_new_tokens"], payload["logprobs"]))


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.counters = _Counters()
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    sys.exit(main())
