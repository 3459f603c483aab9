"""Backends for a text-completion endpoint (HTTP and a deterministic
mock), plus predict_batch, which fans a batch out to one of them. The
batch is any iterable of requests and is pulled only a bounded window
ahead of the responses, so a caller that builds each prompt as it is
pulled holds the prompts of the requests in flight, not of the batch.

The wire protocol is one JSON POST per completion: the request carries
{"prompt", "max_new_tokens", "logprobs"} and the response {"text",
"model_id", "tokens"} where tokens are text pieces whose plain
concatenation reproduces the completion. The request deliberately has
no sampling fields; decoding is whatever deterministic mode the
endpoint defaults to.

HTTPBackend uses only the standard library (http.client). It keeps
connections alive and reuses them, with at most one open per request in
flight; an idle connection the server closed is replaced without costing
an attempt. Timeouts, refused, reset or dropped connections and malformed
HTTP framing are retried, each on a fresh connection; a status outside 2xx
(any 3xx included, which is never followed), a body jsonl.decode refuses and
a malformed body are not. Proxies come from http_proxy/https_proxy/no_proxy
(CONNECT for https, Basic credentials from the proxy URL), and HTTPS is
verified against the system trust store. HTTPBackend checks its settings
and every response body by the value rules of docqa.errors; the records do
not.
"""

from __future__ import annotations

import json
import math
import random
import threading
import urllib.parse
from typing import Callable, Iterable, NamedTuple, Sequence

from .analysis import TokenLogProb, completion_tokens
from .errors import (
    DataError, EndpointError, check_choice, check_int, check_number, check_str, check_type
)
from .jsonl import decode, read_json
from .metrics import contains_words, word_haystack
from .serialize import SerializedContext, parse_prompt, prompt_parts

# predict_batch keeps this many requests submitted per worker, so the workers
# never wait on the caller, while the rest of the batch stays unbuilt.
QUEUED_PER_WORKER = 16

# Every mock token gets probability one half, so answer perplexity has
# the closed form 2.0 regardless of answer length.
MOCK_TOKEN_LOGPROB = -math.log(2)


class InferenceRequest(NamedTuple):
    prompt: str
    max_new_tokens: int
    want_logprobs: bool = True


class InferenceResponse(NamedTuple):
    text: str
    model_id: str
    tokens: tuple[TokenLogProb, ...] | None = None


def check_endpoint(url: str) -> str:
    """Return `url` if it is an ASCII http(s) URL with a host, else raise ValueError."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises on a non-numeric or out-of-range port
    except ValueError as exc:
        raise ValueError(f"endpoint {url!r} is not a valid URL: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint must be an http(s) URL with a host, got {url!r}")
    # http.client refuses these on every attempt, so retrying cannot help.
    if any(c <= " " or c == "\x7f" for c in url):
        raise ValueError(f"endpoint {url!r} contains whitespace or control characters")
    if not url.isascii():
        raise ValueError(
            f"endpoint {url!r} is not ASCII: percent-encode the path, use the xn-- form of the host"
        )
    return url


def _pieces(answer: str) -> list[str]:
    words = answer.split()
    if not words:
        return []
    return [words[0]] + [" " + w for w in words[1:]]


class MockBackend:
    """Deterministic stand-in backend, a pure function of the prompt.

    Built with no records, it answers with the final context word, which
    makes serialization order visible in the output. Built from records,
    each a (SerializedContext, question, golds) triple, it answers the
    (context, question) pair that serialize.parse_prompt recovers from the
    prompt with the first of the pair's golds that is a run of whole words
    of the context (metrics.contains_words), or "unknown" when none is or no
    record has the pair, imitating a reader that can only copy evidence it
    was actually given. Records pool their golds by serialize.prompt_parts,
    the pair parsed out of the record's own prompt: two documents that ask
    the same question keep theirs apart, and records whose prompts are equal
    pool theirs. Every answer is decided when the backend is built, each
    distinct context normalized once, into a table keyed by context text,
    then by question, so a request is one lookup.
    """

    def __init__(
        self, records: Iterable[tuple[SerializedContext, str, Sequence[str]]] | None = None
    ) -> None:
        self.answers: dict[str, dict[str, str]] | None = None
        if records is None:
            return
        pooled: dict[str, dict] = {}
        for ctx, question, golds in records:
            context_text, question = prompt_parts(ctx, question)
            pooled.setdefault(context_text, {}).setdefault(question, []).extend(golds)
        for context_text, questions in pooled.items():
            haystack = word_haystack(context_text)
            for question, golds in questions.items():
                questions[question] = next(
                    (g for g in golds if contains_words(haystack, g)), "unknown"
                )
        self.answers = pooled

    def _answer(self, prompt: str) -> str:
        context_text, question = parse_prompt(prompt)
        if self.answers is None:
            words = context_text.rsplit(None, 1)
            return words[-1] if words else ""
        questions = self.answers.get(context_text)
        return "unknown" if questions is None else questions.get(question, "unknown")

    def complete(self, request: InferenceRequest) -> InferenceResponse:
        pieces = _pieces(self._answer(request.prompt))
        pieces = pieces[: request.max_new_tokens]
        text = "".join(pieces)
        tokens = None
        if request.want_logprobs:
            tokens = tuple(TokenLogProb(token_text=p, logprob=MOCK_TOKEN_LOGPROB) for p in pieces)
        return InferenceResponse(text=text, model_id="mock", tokens=tokens)


# Every docqa command imports this module, but only predict --backend http
# talks to an endpoint, so the HTTP stack (http.client, ssl, email,
# urllib.request) and the thread pool are imported where they are used.


def _proxy_for(parts: urllib.parse.SplitResult) -> tuple[str, dict[str, str]] | None:
    """The proxy's host[:port] and its auth headers for the endpoint `parts`,
    from the *_proxy environment variables; None when there is none or
    no_proxy lists the host. Credentials in the proxy URL become Basic
    Proxy-Authorization, as urllib's ProxyHandler sends them."""
    import urllib.request

    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
        return None
    if "://" not in proxy:
        proxy = "http://" + proxy
    proxy_parts = urllib.parse.urlsplit(proxy)
    auth = {}
    if proxy_parts.username and proxy_parts.password:
        import base64

        user_pass = (
            f"{urllib.parse.unquote(proxy_parts.username)}:"
            f"{urllib.parse.unquote(proxy_parts.password)}"
        )
        creds = base64.b64encode(user_pass.encode()).decode("ascii")
        auth["Proxy-Authorization"] = "Basic " + creds
    return urllib.parse.unquote(proxy_parts.netloc.rpartition("@")[2]), auth


# The HTTPBackend keywords a --config file may carry; anything else is a typo.
CONFIG_KEYS = frozenset({"timeout", "max_attempts", "backoff_base"})

# Socket timeouts and lock waits overflow past this many seconds; it bounds
# timeout, backoff_base and every backoff.
TIMEOUT_MAX = threading.TIMEOUT_MAX
# The default sleeper waits on an event that is never set: it takes any delay
# up to TIMEOUT_MAX, where time.sleep can fail with EINVAL.
_sleep = threading.Event().wait


class HTTPBackend:
    """Talks to a live endpoint; retries only transport failures.

    Timeouts and connection errors back off exponentially with jitter
    drawn from an injectable RNG so retry behavior is testable. HTTP
    and payload errors never retry: the endpoint answered, it just
    answered badly.

    Connections are kept alive. An attempt pops an idle one off a
    lock-guarded stack or opens a new one, so no more are open than
    requests in flight. A connection goes back on the stack only after a
    complete reply that does not end it; a transport error closes it for
    good, so a late reply to a timed-out request never answers the next
    one. close() closes the idle connections.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        jitter_rng: random.Random | None = None,
        sleeper: Callable[[float], object] = _sleep,
    ) -> None:
        self.endpoint = check_endpoint(endpoint)
        self.max_attempts = check_int("max_attempts", max_attempts, 1)
        self.timeout = check_number("timeout", timeout, 0, TIMEOUT_MAX, above=True)
        self.backoff_base = check_number("backoff_base", backoff_base, 0, TIMEOUT_MAX)
        self.jitter_rng = jitter_rng if jitter_rng is not None else random.Random()
        self.sleeper = sleeper
        self._idle: list = []
        self._lock = threading.Lock()

        parts = urllib.parse.urlsplit(endpoint)
        self._target = parts.path or "/"
        if parts.query:
            self._target += "?" + parts.query
        self._headers = {"Content-Type": "application/json"}
        # An explicit port, so http.client never reads one out of an IPv6 host.
        port = parts.port or (443 if parts.scheme == "https" else 80)
        self._address = (parts.hostname, port)
        self._tunnel: tuple | None = None
        self._context = None
        if parts.scheme == "https":
            import ssl

            self._context = ssl.create_default_context()
        proxy = _proxy_for(parts)
        if proxy is not None:
            hostport, auth = proxy
            self._address = (hostport, None)
            if parts.scheme == "https":
                self._tunnel = (parts.hostname, port, auth)
            else:
                self._target = urllib.parse.urlunsplit(parts._replace(fragment=""))
                self._headers.update(auth)

    @classmethod
    def from_config(cls, endpoint: str, path: str | None, jitter_rng: random.Random) -> HTTPBackend:
        """A backend for `endpoint` with the CONFIG_KEYS settings of the JSON
        object in the file `path` (none when `path` is None); a file that
        cannot be read, holds anything else or gives a bad value is a
        DataError naming it."""
        config = {} if path is None else read_json(path)
        if not isinstance(config, dict):
            raise DataError(f"config file {path} must hold a JSON object")
        try:
            for key in config:
                check_choice("key", key, CONFIG_KEYS)
            return cls(endpoint, jitter_rng=jitter_rng, **config)
        except ValueError as exc:
            raise DataError(f"config file {path}: {exc}") from exc

    def _new_connection(self):
        import http.client

        if self._context is None:
            conn = http.client.HTTPConnection(*self._address, timeout=self.timeout)
        else:
            conn = http.client.HTTPSConnection(
                *self._address, timeout=self.timeout, context=self._context
            )
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _idle_connection(self):
        """An idle connection the server has not closed, or None."""
        import select

        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            # Nothing may arrive on an idle connection; any event means the
            # server closed it (or broke the protocol) while it waited. poll,
            # unlike select, takes descriptors at or above FD_SETSIZE.
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if not poller.poll(0):
                return conn
            conn.close()

    def _release(self, conn, response) -> None:
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, payload: dict) -> bytes:
        import http.client

        data = json.dumps(payload).encode("utf-8")
        last_error = ""
        for attempt in range(1, self.max_attempts + 1):
            conn = None
            try:
                conn = self._idle_connection() or self._new_connection()
                conn.request("POST", self._target, body=data, headers=self._headers)
                response = conn.getresponse()
                if 200 <= response.status < 300:
                    body = response.read()
                    self._release(conn, response)
                    return body
                try:
                    text = response.read().decode("utf-8", "replace")
                except (OSError, http.client.HTTPException):
                    text = ""
                    conn.close()
                else:
                    self._release(conn, response)
                raise EndpointError(f"endpoint returned {response.status}: {text[:200]}")
            except (OSError, http.client.HTTPException) as exc:
                if conn is not None:
                    conn.close()
                # The message only: the exception, its traceback and this
                # frame (with the request body) form a cycle, which would
                # outlive the attempt while cli.main has the collector paused.
                last_error = str(exc)
                if attempt < self.max_attempts:
                    self.sleeper(self.backoff(attempt))
        raise EndpointError(
            f"endpoint {self.endpoint} unreachable after {self.max_attempts} attempts: "
            f"{last_error}"
        )

    def backoff(self, attempt: int) -> float:
        """The wait after failed attempt `attempt` (1-based): backoff_base *
        2**(attempt - 1), scaled by a jitter in [0.5, 1) and capped at
        TIMEOUT_MAX. The exponent stops at 1023, as 2.0**1024 overflows; a
        product past the float range is inf, which the cap takes."""
        jitter = 0.5 + 0.5 * self.jitter_rng.random()
        return min(self.backoff_base * 2.0 ** min(attempt - 1, 1023) * jitter, TIMEOUT_MAX)

    def complete(self, request: InferenceRequest) -> InferenceResponse:
        payload = {
            "prompt": request.prompt,
            "max_new_tokens": request.max_new_tokens,
            "logprobs": request.want_logprobs,
        }
        try:
            body = decode(self._post(payload))
        except ValueError as exc:
            raise EndpointError(f"endpoint returned {exc}") from exc
        if not isinstance(body, dict):
            raise EndpointError(f"endpoint returned {type(body).__name__}, expected object")
        try:
            text = check_type("text", body.get("text"), str)
            model_id = check_str("model_id", body.get("model_id"))
            tokens = completion_tokens(text, body.get("tokens")) if request.want_logprobs else None
        except ValueError as exc:
            raise EndpointError(f"malformed endpoint response: {exc}") from exc
        return InferenceResponse(text=text, model_id=model_id, tokens=tokens)


def predict_batch(
    backend,
    requests: Iterable[InferenceRequest],
    max_in_flight: int = 1,
) -> list[InferenceResponse | EndpointError]:
    """Complete `requests` on `backend` with at most `max_in_flight`
    outstanding, responses aligned with requests.

    `requests` may be any iterable, and is pulled lazily: with one in flight
    the requests run in the calling thread, one pulled per result, with no
    pool; otherwise at most QUEUED_PER_WORKER * max_in_flight requests are
    pulled ahead of the results collected, so a generator that builds each
    request as it is pulled never has the whole batch in memory.

    An endpoint failure occupies its slot in the result list so one bad
    example cannot sink the rest of the batch; the slot holds a new
    EndpointError with the failure's message and no traceback or cause, so
    the failed call's frames can be freed at once. Any other exception,
    from the backend or from `requests`, propagates, and the requests still
    queued are cancelled rather than run.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be at least 1")

    def run(request: InferenceRequest) -> InferenceResponse | EndpointError:
        try:
            return backend.complete(request)
        except EndpointError as exc:
            return EndpointError(str(exc))

    if max_in_flight == 1:
        return [run(request) for request in requests]
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    window = QUEUED_PER_WORKER * max_in_flight
    results: list[InferenceResponse | EndpointError] = []
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        try:
            for request in requests:
                pending.append(pool.submit(run, request))
                if len(pending) == window:
                    results.append(pending.popleft().result())
            while pending:
                results.append(pending.popleft().result())
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    return results
