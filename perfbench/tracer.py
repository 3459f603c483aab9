"""Spans around docqa's public functions, recorded from outside the package.

`install()` rebinds module attributes (and the names other docqa modules
imported them under) to timing wrappers. Each call becomes a span
(id, parent id, name, start, end) kept in memory; counters record the work
done. `summarize()` turns one process's spans into per-name totals, call
counts and self times. Nothing here changes what the wrapped functions
return or raise.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        stack = self._stack()
        # Work a pool thread does on the main thread's behalf belongs to
        # whatever span the main thread has open.
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def end(self, token) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent, name, start = token
        self.spans.append((span_id, parent, name, start, end))

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value


def _wrap_call(recorder: Recorder, fn, name: str, after=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            recorder.end(token)
            if on_error is not None:
                on_error(recorder, exc)
            raise
        recorder.end(token)
        if after is not None:
            after(recorder, result, args)
        return result

    return wrapper


def _wrap_iter(recorder: Recorder, fn, name: str):
    """Time each step of a generator, so only its own work is counted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            token = recorder.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(token)
            yield item

    return wrapper


def _count_corpus(rec, docs, args):
    rec.add("geometry.load_ocr_corpus.words", sum(len(doc) for doc in docs))


def _count_raster(rec, order, args):
    rec.add("ordering.raster_scan_order.docs", 1)
    rec.add("ordering.raster_scan_order.words", len(args[0]))


def _count_truncation(rec, ctx, args):
    dropped = args[0].token_count - ctx.token_count
    if dropped > 0:
        rec.add("serialize.truncate_context.truncated", 1)
        rec.add("serialize.truncate_context.words_dropped", dropped)


def _count_prompt(rec, prompt, args):
    rec.add("serialize.build_prompt.chars", len(prompt.text))


def _count_records(rec, records, args):
    rec.add("datasets.load_qa.records", len(records))


def _count_http_failure(rec, exc):
    rec.add("llmclient.HTTPBackend.complete.failed", 1)


def _count_haystack(rec, found, args):
    rec.add("analysis.answer_in_text.chars", len(args[1]))


def _count_bytes(rec, result, args):
    rec.add("jsonl.write_stage_file.bytes", os.path.getsize(args[0]))


# (span name, module, attribute path candidates, after-hook, error-hook).
# A function is also rebound wherever another docqa module imported it by
# name. The first candidate path that exists is used, so a later refactor
# that turns a method into a function keeps its span.
TARGETS = [
    ("geometry.load_ocr_corpus", "docqa.geometry", ["load_ocr_corpus"], _count_corpus, None),
    ("ordering.raster_scan_order", "docqa.ordering", ["raster_scan_order"], _count_raster, None),
    ("ordering.shuffled_order", "docqa.ordering", ["shuffled_order"], None, None),
    ("ordering.load_orders", "docqa.ordering", ["load_orders"], None, None),
    ("serialize.build_context", "docqa.serialize", ["build_context"], None, None),
    ("serialize.truncate_context", "docqa.serialize", ["truncate_context"], _count_truncation, None),
    ("serialize.build_prompt", "docqa.serialize", ["build_prompt"], _count_prompt, None),
    ("serialize.load_contexts", "docqa.serialize", ["load_contexts"], None, None),
    ("datasets.load_qa", "docqa.datasets", ["load_qa"], _count_records, None),
    ("llmclient.predict_batch", "docqa.llmclient",
     ["predict_batch", "LLMClient.predict_batch"], None, None),
    ("llmclient.MockBackend.complete", "docqa.llmclient", ["MockBackend.complete"], None, None),
    ("llmclient.HTTPBackend.complete", "docqa.llmclient", ["HTTPBackend.complete"], None,
     _count_http_failure),
    ("metrics.score", "docqa.metrics", ["score"], None, None),
    ("metrics.levenshtein", "docqa.metrics", ["levenshtein"], None, None),
    ("analysis.evaluate_rows", "docqa.analysis", ["evaluate_rows"], None, None),
    ("analysis.answer_in_text", "docqa.analysis", ["answer_in_text"], _count_haystack, None),
    ("analysis.load_predictions", "docqa.analysis", ["load_predictions"], None, None),
    ("analysis.reports", "docqa.analysis", ["zero_shot_perplexity"], None, None),
    ("analysis.reports", "docqa.analysis", ["answer_presence_report"], None, None),
    ("analysis.reports", "docqa.analysis", ["context_length_report"], None, None),
    ("analysis.reports", "docqa.analysis", ["order_sensitivity_report"], None, None),
    ("jsonl.write_stage_file", "docqa.jsonl", ["write_stage_file"], _count_bytes, None),
]

# Corpus parsing is timed only where load_ocr_corpus reads records, so QA and
# stage-file reads elsewhere do not count as corpus parsing.
PARSE_SPAN = "geometry.load_ocr_corpus.parse"


def _docqa_modules():
    return [m for n, m in list(sys.modules.items()) if n == "docqa" or n.startswith("docqa.")]


def install(recorder: Recorder) -> list[str]:
    """Wrap every target; return the span names whose target was not found."""
    missing = []
    modules = _docqa_modules()
    for name, module_name, candidates, after, on_error in TARGETS:
        module = sys.modules[module_name]
        for path in candidates:
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            wrapper = _wrap_call(recorder, original, name, after, on_error)
            setattr(owner, attr, wrapper)
            if owner is module:
                for other in modules:
                    if getattr(other, attr, None) is original:
                        setattr(other, attr, wrapper)
            break
        else:
            missing.append(name)
    geometry = sys.modules["docqa.geometry"]
    if hasattr(geometry, "read_records"):
        geometry.read_records = _wrap_iter(recorder, geometry.read_records, PARSE_SPAN)
    else:
        missing.append(PARSE_SPAN)
    return missing


def _covered(parent: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of `parent` that the union of `children` covers."""
    lo, hi = parent
    total = 0.0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, call count, and self seconds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0, "self_s": 0.0})
    for span_id, _, name, start, end in spans:
        entry = out[name]
        entry["s"] += end - start
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered((start, end), children.get(span_id, []))
    return dict(out)
