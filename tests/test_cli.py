import argparse
import errno
import gc
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import toy_benchmark, write_dataset_config, write_records
from layouts import corpus_record
from docqa import cli
from docqa.cli import UsageError, build_parser, main
from docqa.errors import DataError, EndpointError
from docqa.geometry import load_ocr_corpus
from docqa.jsonl import config_digest, derive_seed, read_records
from docqa.llmclient import TIMEOUT_MAX
from docqa.ordering import load_orders, shuffled_order
from docqa.serialize import build_prompt, load_contexts


GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
# Four word boxes on one line, left to right.
LINE_BOXES = [(10.0 * i, 0.0, 10.0 * i + 8.0, 8.0) for i in range(4)]


def run(*argv):
    return main([str(a) for a in argv])


def stage_records(path):
    """The header and data records of a stage file, unparsed."""
    (_, header), *rows = read_records(path)
    return header, [record for _, record in rows]


def golden_copy(name, tmp_path, old, new):
    """A copy of golden/expected/`name` with `old` replaced by `new` on its
    first data row (line 2)."""
    lines = (GOLDEN / "expected" / name).read_text(encoding="utf-8").splitlines(True)
    assert old in lines[1]
    lines[1] = lines[1].replace(old, new)
    path = tmp_path / name
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.fixture
def bench(tmp_path):
    """Corpus + QA + dataset config for a small synthetic benchmark."""
    docs, qa = toy_benchmark("toy", n_docs=3, words_per_doc=8, qa_per_doc=2)
    corpus = tmp_path / "corpus.jsonl"
    write_records(corpus, docs)
    qa_path = tmp_path / "qa.jsonl"
    write_records(qa_path, qa)
    config = write_dataset_config(tmp_path / "benchmarks.json", ["toy"])
    return {
        "dir": tmp_path,
        "corpus": corpus,
        "qa": qa_path,
        "config": config,
        "docs": docs,
        "qa_records": qa,
    }


def budget_flags(bench, budget):
    """serialize flags that cut the toy dataset's contexts to `budget` tokens."""
    config = write_dataset_config(bench["dir"] / f"budget-{budget}.json", ["toy"],
                                  context_budget=budget)
    return ("--dataset", "toy", "--datasets-config", config)


def run_pipeline(bench, strategy="standard", seed=7, suffix=""):
    """order -> serialize -> predict(mock) -> eval; returns the file paths."""
    d = bench["dir"]
    orders = d / f"orders{suffix}.jsonl"
    contexts = d / f"contexts{suffix}.jsonl"
    predictions = d / f"predictions{suffix}.jsonl"
    evals = d / f"eval{suffix}.jsonl"
    assert run(
        "order", "--corpus", bench["corpus"], "--strategy", strategy,
        "--seed", seed, "--out", orders,
    ) == 0
    assert run(
        "serialize", "--corpus", bench["corpus"], "--orders", orders,
        "--dataset", "toy", "--datasets-config", bench["config"],
        "--seed", seed, "--out", contexts,
    ) == 0
    assert run(
        "predict", "--qa", bench["qa"], "--contexts", contexts,
        "--dataset", "toy", "--datasets-config", bench["config"],
        "--backend", "mock-answer-key", "--seed", seed, "--out", predictions,
    ) == 0
    assert run(
        "eval", "--qa", bench["qa"], "--predictions", predictions,
        "--contexts", contexts, "--dataset", "toy",
        "--datasets-config", bench["config"], "--seed", seed, "--out", evals,
    ) == 0
    return {"orders": orders, "contexts": contexts,
            "predictions": predictions, "evals": evals}


class TestSeedsAndDigests:
    def test_derived_seeds_differ_by_stage(self):
        assert derive_seed(7, "order") != derive_seed(7, "sample")
        assert derive_seed(7, "order") == derive_seed(7, "order")
        assert derive_seed(7, "order") != derive_seed(8, "order")

    def test_digest_is_twelve_hex_chars(self):
        digest = config_digest({"stage": "order", "seed": 0})
        assert len(digest) == 12
        int(digest, 16)

    def test_digest_ignores_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_digest_tracks_values(self):
        assert config_digest({"seed": 0}) != config_digest({"seed": 1})


class TestOrderCommand:
    def test_writes_stage_file_with_header(self, bench):
        out = bench["dir"] / "orders.jsonl"
        assert run("order", "--corpus", bench["corpus"], "--strategy",
                   "raster_scan", "--out", out) == 0
        header, orders = load_orders(out)
        assert header["stage"] == "order"
        assert len(header["config_digest"]) == 12
        assert header["strategy"] == "raster_scan"
        assert len(orders) == 3
        assert all(row.keys() == {"doc_id", "permutation"} for row in stage_records(out)[1])

    def test_shuffled_is_deterministic_per_seed(self, bench):
        a = bench["dir"] / "a.jsonl"
        b = bench["dir"] / "b.jsonl"
        c = bench["dir"] / "c.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "shuffled",
            "--seed", 5, "--out", a)
        run("order", "--corpus", bench["corpus"], "--strategy", "shuffled",
            "--seed", 5, "--out", b)
        run("order", "--corpus", bench["corpus"], "--strategy", "shuffled",
            "--seed", 6, "--out", c)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_docs_get_distinct_shuffles(self, bench):
        out = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "shuffled",
            "--seed", 5, "--out", out)
        perms = {o.permutation for o in load_orders(out)[1]}
        assert len(perms) == 3  # same length docs, still independent draws

    def test_shuffle_seeds_derive_from_the_header_seed(self, bench):
        # The orders file alone pins each document's shuffle.
        out = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "shuffled",
            "--seed", 5, "--out", out)
        header, orders = load_orders(out)
        assert header["seed"] == derive_seed(5, "order")
        docs = {doc.doc_id: doc for doc in load_ocr_corpus(bench["corpus"])}
        assert orders == [
            shuffled_order(docs[o.doc_id], derive_seed(header["seed"], o.doc_id)) for o in orders
        ]

    def test_missing_corpus_exits_2_and_names_path(self, bench, capsys):
        missing = bench["dir"] / "nope.jsonl"
        assert run("order", "--corpus", missing, "--strategy", "standard") == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_unknown_strategy_is_usage_error(self, bench, capsys):
        assert run("order", "--corpus", bench["corpus"],
                   "--strategy", "zigzag") == 1

    def test_threshold_factor_recorded(self, bench):
        out = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "raster_scan",
            "--threshold-factor", "0.75", "--out", out)
        header, _ = load_orders(out)
        assert (header["strategy"], header["threshold_factor"]) == ("raster_scan", 0.75)

    @pytest.mark.parametrize("strategy", ["standard", "shuffled"])
    def test_threshold_factor_needs_raster_scan(self, bench, capsys, strategy):
        out = bench["dir"] / "orders.jsonl"
        assert run("order", "--corpus", bench["corpus"], "--strategy", strategy,
                   "--threshold-factor", "4.0", "--seed", 7, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: --threshold-factor applies only to --strategy raster_scan, "
            f"not --strategy {strategy}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("factor, shown", [
        ("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("1e400", "inf"),
        ("x", "'x'"),
    ], ids=["0", "-1", "nan", "inf", "1e400", "x"])
    def test_bad_threshold_factor_is_usage_error(self, bench, capsys, factor, shown):
        out = bench["dir"] / "orders.jsonl"
        assert run("order", "--corpus", bench["corpus"], "--strategy", "raster_scan",
                   "--threshold-factor", factor, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "docqa order: error: argument --threshold-factor: "
            f"value must be a finite number > 0, got {shown}"
        )
        assert "Traceback" not in err
        assert not out.exists()


class TestSerializeCommand:
    def test_joins_corpus_and_orders(self, bench):
        orders = bench["dir"] / "orders.jsonl"
        contexts = bench["dir"] / "contexts.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--out", contexts) == 0
        header, loaded = load_contexts(contexts)
        assert len(loaded) == 3
        doc = bench["docs"][0]
        assert loaded[0].context == " ".join(w["text"] for w in doc["words"])
        assert header["strategy"] == "standard"
        assert header["dataset"] == "toy"

    def test_budget_truncates(self, bench):
        orders = bench["dir"] / "orders.jsonl"
        contexts = bench["dir"] / "contexts.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   *budget_flags(bench, 5), "--out", contexts) == 0
        header, loaded = load_contexts(contexts)
        assert all(c.token_count <= 5 for c in loaded)
        assert any(c.token_count < len(doc["words"]) for c, doc in zip(loaded, bench["docs"]))
        assert (header["dataset"], header["budget"]) == ("toy", 5)

    def test_dataset_is_required(self, bench, capsys):
        orders = bench["dir"] / "orders.jsonl"
        contexts = bench["dir"] / "contexts.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--datasets-config", bench["config"], "--out", contexts) == 1
        assert "the following arguments are required: --dataset" in capsys.readouterr().err
        assert not contexts.exists()

    def test_doc_mismatch_exits_2(self, bench, capsys):
        docs, _ = toy_benchmark("other", n_docs=1, words_per_doc=4)
        other_corpus = bench["dir"] / "other.jsonl"
        write_records(other_corpus, docs)
        orders = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", other_corpus, "--strategy", "standard",
            "--out", orders)
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   *budget_flags(bench, 5)) == 2
        assert "other-d0" in capsys.readouterr().err

    @pytest.mark.parametrize("kept, extra, message", [
        (1, [], "corpus docs have no order: ['invoice-b', 'memo-c']"),
        (3, [{"doc_id": "ghost", "permutation": [0]}],
         "orders reference docs missing from the corpus: ['ghost']"),
    ], ids=["docs without an order", "order of a doc outside the corpus"])
    def test_orders_that_do_not_match_the_corpus_exit_2(
        self, tmp_path, capsys, kept, extra, message
    ):
        # The golden orders, cut to their first `kept` rows, then `extra`.
        header, records = stage_records(GOLDEN / "expected" / "orders-standard.jsonl")
        orders, out = tmp_path / "orders.jsonl", tmp_path / "contexts.jsonl"
        write_records(orders, [header, *records[:kept], *extra])
        assert run("serialize", "--corpus", GOLDEN / "input" / "corpus.jsonl", "--orders", orders,
                   "--dataset", "golden", "--datasets-config", GOLDEN / "input" / "benchmarks.json",
                   "--out", out) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_non_integer_permutation_exits_2(self, bench, capsys):
        orders = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        header, records = stage_records(orders)
        # Each entry truncates to the identity, so only the type is wrong.
        records[1]["permutation"] = [i + 0.7 for i in records[1]["permutation"]]
        write_records(orders, [header, *records])
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   *budget_flags(bench, 5)) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "non-integer entry 0.7" in err

    @pytest.mark.parametrize(
        "datasets, named",
        [
            ({"toy": {"metric": "anls", "context_budget": 64, "target_budget": 8,
                      "anls_tau": "x"}}, "dataset 'toy'"),
            ({"toy": {"metric": "anls", "context_budget": 64, "target_budget": 8,
                      "anls_tau": True}}, "dataset 'toy'"),
            ([1], "'datasets' object"),
            ({"toy": 1}, "dataset 'toy'"),
        ],
        ids=["string tau", "bool tau", "datasets not an object", "entry not an object"],
    )
    def test_malformed_datasets_config_exits_2(self, bench, capsys, datasets, named):
        orders = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        config = bench["dir"] / "bad.json"
        config.write_text(json.dumps({"version": 1, "datasets": datasets}))
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--dataset", "toy", "--datasets-config", config) == 2
        err = capsys.readouterr().err
        assert str(config) in err and named in err


# Each --config that predict refuses, and what its error says after the
# file name. The id of a case is its config text, the long one aside.
BAD_RUN_CONFIGS = [
    ('{"max_attempts": 0}', ": max_attempts must be an integer >= 1, got 0"),
    ('{"max_attempts": "3"}', ": max_attempts must be an integer >= 1, got '3'"),
    ('{"max_attempts": true}', ": max_attempts must be an integer >= 1, got True"),
    ('{"timeout": "x"}', f": timeout must be a number in (0, {TIMEOUT_MAX}], got 'x'"),
    ('{"timeout": 0}', f": timeout must be a number in (0, {TIMEOUT_MAX}], got 0"),
    ('{"backoff_base": -1}', f": backoff_base must be a number in [0, {TIMEOUT_MAX}], got -1"),
    ('{"endpoint": "http://127.0.0.1:9/c"}',
     ": key must be one of backoff_base, max_attempts or timeout, got 'endpoint'"),
    # These passed, and then overflowed a socket timeout or time.sleep:
    # an OverflowError traceback, exit 1.
    ('{"timeout": 1e10}', f": timeout must be a number in (0, {TIMEOUT_MAX}], got 10000000000.0"),
    ('{"timeout": 1e300}', f": timeout must be a number in (0, {TIMEOUT_MAX}], got 1e+300"),
    ('{"timeout": 1' + "0" * 400 + "}",
     f": timeout must be a number in (0, {TIMEOUT_MAX}], got 1" + "0" * 400),
    ('{"backoff_base": 1e300, "max_attempts": 2}',
     f": backoff_base must be a number in [0, {TIMEOUT_MAX}], got 1e+300"),
    ("[1]", " must hold a JSON object"),
]


class TestPredictCommand:
    def test_mock_echo_answers_last_context_word(self, bench):
        paths = {}
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--out", d / "contexts.jsonl")
        assert run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-echo", "--out", d / "pred.jsonl") == 0
        from docqa.analysis import load_predictions

        _, preds = load_predictions(d / "pred.jsonl")
        assert len(preds) == len(bench["qa_records"])
        last_word = bench["docs"][0]["words"][-1]["text"]
        assert preds[0].text == last_word
        assert preds[0].tokens is not None

    def test_mock_answer_key_recovers_golds(self, bench):
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p for p in load_predictions(paths["predictions"])[1]}
        for record in bench["qa_records"]:
            assert preds[record["example_id"]].text == record["answers"][0]

    def test_mock_answer_key_keeps_shared_questions_apart(self, bench):
        # Docs 0 and 1 ask the same question; each gold sits only in its own doc.
        qa = bench["qa_records"]
        qa[0]["question"] = qa[2]["question"] = "what is the total?"
        write_records(bench["qa"], qa)
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p.text for p in load_predictions(paths["predictions"])[1]}
        assert preds[qa[0]["example_id"]] == qa[0]["answers"][0]
        assert preds[qa[2]["example_id"]] == qa[2]["answers"][0]

    def test_mock_answer_key_pools_golds_of_identical_prompts(self, bench):
        # Two questions on doc 0 become one prompt; both golds sit in the
        # context, so both examples get the first gold of the pooled key.
        qa = bench["qa_records"]
        qa[0]["question"] = qa[1]["question"] = "what is written first?"
        write_records(bench["qa"], qa)
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p.text for p in load_predictions(paths["predictions"])[1]}
        assert preds[qa[0]["example_id"]] == qa[0]["answers"][0]
        assert preds[qa[1]["example_id"]] == qa[0]["answers"][0]

    def test_mock_answer_key_answers_a_question_holding_the_marker(self, bench):
        # The prompt splits on the question's own marker, so the mock reads
        # part of the question as context; the key must follow that split.
        qa = bench["qa_records"]
        qa[0]["question"] = "which Question: comes first?"
        write_records(bench["qa"], qa)
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p.text for p in load_predictions(paths["predictions"])[1]}
        assert preds[qa[0]["example_id"]] == qa[0]["answers"][0]

    def test_mock_answer_key_pools_equal_prompts_from_different_questions(self, bench):
        # "alpha beta" asked "x Question: what?" and "alpha beta Question: x"
        # asked "what?" are one prompt, so their golds pool: the first
        # record's gold answers both.
        docs = [
            corpus_record("short", ["alpha", "beta"], LINE_BOXES[:2], reading_ordered=True),
            corpus_record("long", ["alpha", "beta", "Question:", "x"], LINE_BOXES,
                          reading_ordered=True),
        ]
        qa = [
            {"example_id": "e0", "doc_id": "short", "question": "x Question: what?",
             "answers": ["alpha"]},
            {"example_id": "e1", "doc_id": "long", "question": "what?", "answers": ["missing"]},
        ]
        write_records(bench["corpus"], docs)
        write_records(bench["qa"], qa)
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p.text for p in load_predictions(paths["predictions"])[1]}
        assert preds == {"e0": "alpha", "e1": "alpha"}

    def test_no_logprobs_flag(self, bench):
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--out", d / "contexts.jsonl")
        run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--backend", "mock-echo", "--no-logprobs", "--out", d / "pred.jsonl")
        from docqa.analysis import load_predictions

        assert all(p.tokens is None for p in load_predictions(d / "pred.jsonl")[1])

    def test_http_failures_recorded_and_exit_3(self, bench, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--out", d / "contexts.jsonl")
        (d / "run-config.json").write_text('{"max_attempts": 1}')
        code = run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--endpoint", f"http://127.0.0.1:{port}/c",
                   "--config", d / "run-config.json", "--out", d / "pred.jsonl")
        assert code == 3
        from docqa.analysis import load_predictions

        _, preds = load_predictions(d / "pred.jsonl")
        assert len(preds) == len(bench["qa_records"])
        assert all(p.error is not None for p in preds)

    def test_a_reply_with_a_lone_surrogate_fails_its_row_only(self, bench, capsys):
        # json took the escape, and writing the predictions file then ended in
        # a UnicodeEncodeError traceback after every request had finished.
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        bad = bench["qa_records"][0]
        prompts = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
                prompts.append(prompt)
                text = "\\ud800" if bad["question"] in prompt else "x"
                body = f'{{"text": "{text}", "model_id": "m", "tokens": null}}'.encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        paths = run_pipeline(bench)
        out = bench["dir"] / "pred.jsonl"
        server = HTTPServer(("127.0.0.1", 0), Handler)
        endpoint = f"http://127.0.0.1:{server.server_port}/c"
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            code = run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                       "--dataset", "toy", "--datasets-config", bench["config"],
                       "--backend", "http", "--endpoint", endpoint, "--out", out)
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
        assert code == 3
        assert len(prompts) == len(bench["qa_records"])  # nothing was retried
        from docqa.analysis import load_predictions

        _, preds = load_predictions(out)
        assert [p.example_id for p in preds] == [r["example_id"] for r in bench["qa_records"]]
        assert {p.example_id: p.error for p in preds if p.error is not None} == {
            bad["example_id"]: "endpoint returned invalid JSON: lone surrogate in a string"
        }
        assert all(p.text == "x" for p in preds if p.error is None)

    def test_http_without_endpoint_is_usage_error(self, bench, monkeypatch, capsys):
        monkeypatch.delenv("DOCQA_ENDPOINT", raising=False)
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--out", d / "contexts.jsonl")
        assert run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--out", d / "pred.jsonl") == 1
        assert "endpoint" in capsys.readouterr().err

    def test_endpoint_comes_from_the_flag_only(self, bench, monkeypatch, capsys):
        monkeypatch.setenv("DOCQA_ENDPOINT", "http://127.0.0.1:9/c")
        paths = run_pipeline(bench)
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--out", bench["dir"] / "p2.jsonl") == 1
        assert "--endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["notaurl", "ftp://x/y", "http://"])
    def test_malformed_endpoint_is_usage_error(self, bench, capsys, endpoint):
        paths = run_pipeline(bench)
        capsys.readouterr()
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--endpoint", endpoint,
                   "--out", bench["dir"] / "p2.jsonl") == 1
        err = capsys.readouterr().err
        assert "error: argument --endpoint: endpoint must be an http(s) URL" in err
        assert "Traceback" not in err

    def test_non_ascii_endpoint_is_usage_error(self, bench, capsys):
        paths = run_pipeline(bench)
        capsys.readouterr()
        out = bench["dir"] / "p2.jsonl"
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--endpoint", "http://127.0.0.1:9/café",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert "error: argument --endpoint: endpoint 'http://127.0.0.1:9/café' is not ASCII" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, fault", BAD_RUN_CONFIGS,
        ids=[config if len(config) < 50 else "timeout 10**400" for config, _ in BAD_RUN_CONFIGS],
    )
    def test_bad_run_config_exits_2_naming_the_file(self, bench, capsys, config, fault):
        paths = run_pipeline(bench)
        config_path = bench["dir"] / "run-config.json"
        config_path.write_text(config)
        capsys.readouterr()
        out = bench["dir"] / "p2.jsonl"
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--endpoint", "http://127.0.0.1:9/c",
                   "--config", config_path, "--out", out) == 2
        assert capsys.readouterr().err == f"error: config file {config_path}{fault}\n"
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["mock-echo", "mock-answer-key"])
    @pytest.mark.parametrize("flag", ["--endpoint", "--config"])
    def test_http_only_flags_with_a_mock_backend_are_usage_errors(
        self, bench, capsys, backend, flag
    ):
        paths = run_pipeline(bench)
        config_path = bench["dir"] / "run-config.json"
        config_path.write_text('{"max_attempts": 0}')
        value = {"--endpoint": "http://127.0.0.1:9/c", "--config": config_path}[flag]
        capsys.readouterr()
        out = bench["dir"] / "p2.jsonl"
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", backend, flag, value, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} applies only to --backend http, not --backend {backend}\n"
        )
        assert not out.exists()


class TestEvalCommand:
    def test_gold_predictions_score_100(self, bench, capsys):
        paths = run_pipeline(bench)
        header, _ = stage_records(paths["evals"])
        assert header["aggregate"] == 100.0
        assert header["dataset"] == "toy"
        assert header["metric"] == "exact_match"
        assert header["n"] == len(bench["qa_records"])
        assert "100.0" in capsys.readouterr().out

    def test_rows_carry_diagnostics(self, bench):
        paths = run_pipeline(bench)
        from docqa.analysis import eval_row_from_record

        _, rows = stage_records(paths["evals"])
        parsed = [eval_row_from_record(r) for r in rows]
        assert all(r.correct for r in parsed)
        assert all(r.answer_in_text for r in parsed)
        assert all(r.rop == pytest.approx(2.0) for r in parsed)
        assert all(r.context_token_len == 8 for r in parsed)

    def test_unknown_dataset_exits_2(self, bench, capsys):
        paths = run_pipeline(bench)
        assert run("eval", "--qa", bench["qa"], "--predictions", paths["predictions"],
                   "--contexts", paths["contexts"], "--dataset", "mystery",
                   "--datasets-config", bench["config"]) == 2
        assert capsys.readouterr().err == "error: dataset must be toy, got 'mystery'\n"

    @pytest.mark.parametrize("datasets, message", [
        (None, "dataset must be golden, got 'nope'"),
        ({}, "dataset must be one of no names, got 'nope'"),
    ], ids=["one dataset", "no datasets"])
    def test_a_dataset_the_config_lacks_exits_2(self, tmp_path, capsys, datasets, message):
        config = GOLDEN / "input" / "benchmarks.json"
        if datasets is not None:
            config = tmp_path / "empty.json"
            config.write_text(json.dumps({"version": 1, "datasets": datasets}))
        out = tmp_path / "predictions.jsonl"
        assert run("predict", "--qa", GOLDEN / "input" / "qa.jsonl",
                   "--contexts", GOLDEN / "expected" / "contexts-standard.jsonl",
                   "--dataset", "nope", "--datasets-config", config,
                   "--backend", "mock-echo", "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_stray_prediction_exits_2(self, bench, capsys):
        paths = run_pipeline(bench)
        with open(paths["predictions"], "a") as handle:
            handle.write(json.dumps({"example_id": "stray-1", "text": "x"}) + "\n")
        assert run("eval", "--qa", bench["qa"], "--predictions", paths["predictions"],
                   "--contexts", paths["contexts"], "--dataset", "toy",
                   "--datasets-config", bench["config"],
                   "--out", bench["dir"] / "e2.jsonl") == 2
        assert "'stray-1' has no QA record" in capsys.readouterr().err

    @pytest.mark.parametrize("logprob, message", [
        ("-1000.0", "example 'a-total': answer perplexity overflows a float"),
        ("-1" + "0" * 400,
         "{path} line 2: logprob must be a finite number <= 0, got -1" + "0" * 400),
    ], ids=["below exp range", "beyond float range"])
    def test_extreme_logprob_exits_2(self, tmp_path, capsys, logprob, message):
        predictions = golden_copy("predictions-standard-mock-echo.jsonl", tmp_path,
                                  '"logprob": -0.6931471805599453', f'"logprob": {logprob}')
        out = tmp_path / "eval.jsonl"
        assert run("eval", "--qa", GOLDEN / "input" / "qa.jsonl",
                   "--predictions", predictions,
                   "--contexts", GOLDEN / "expected" / "contexts-standard.jsonl",
                   "--dataset", "golden",
                   "--datasets-config", GOLDEN / "input" / "benchmarks.json",
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=predictions)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("tokens, message", [
        ("[5]", "token must be an object, got 5"),
        ('[{"text": "x"}]', "logprob must be a finite number <= 0, got None"),
        ('["a"]', "token must be an object, got 'a'"),
    ], ids=["number", "no logprob", "string"])
    def test_a_malformed_token_entry_exits_2(self, tmp_path, capsys, tokens, message):
        # These exited 2 in Python's own words: "'int' object is not
        # subscriptable", "'logprob'" and "string indices must be integers".
        predictions = golden_copy(
            "predictions-standard-mock-answer-key.jsonl", tmp_path,
            '"text": "$120", "tokens": [{"text": "$120", "logprob": -0.6931471805599453}]',
            f'"text": "x", "tokens": {tokens}')
        out = tmp_path / "eval.jsonl"
        assert run(*stage_input_argv("predictions to eval", predictions), "--out", out) == 2
        assert capsys.readouterr().err == f"error: {predictions} line 2: {message}\n"
        assert not out.exists()

    def test_tokens_that_do_not_spell_the_text_exit_2(self, tmp_path, capsys):
        # The golden chartqa predictions with r-month's one token changed from
        # "June" to "May": eval used to score "June" and write the perplexity
        # of "May" beside it, exit 0.
        text = (GOLDEN / "input" / "predictions-chartqa-handwritten.jsonl").read_text(
            encoding="utf-8")
        old = '"text": "June", "tokens": [{"text": "June"'
        assert text.count(old) == 1
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(
            text.replace(old, '"text": "June", "tokens": [{"text": "May"'), encoding="utf-8")
        out = tmp_path / "eval.jsonl"
        assert run("eval", "--qa", GOLDEN / "input" / "qa-chartqa.jsonl",
                   "--predictions", predictions,
                   "--contexts", GOLDEN / "expected" / "contexts-chartqa-standard.jsonl",
                   "--dataset", "chartqa",
                   "--datasets-config", GOLDEN / "input" / "metrics.json",
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {predictions} line 3: token pieces 'May' do not concatenate to text 'June'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n"], ids=["empty", "spaces", "tab"])
    def test_a_blank_gold_answer_exits_2(self, tmp_path, capsys, blank):
        # A blank gold normalizes to "", the text a failed request is scored
        # on: eval scored this error row 1.0, correct, and exited 0.
        qa = tmp_path / "qa.jsonl"
        text = (GOLDEN / "input" / "qa.jsonl").read_text(encoding="utf-8")
        assert text.count('"answers": ["$120"]') == 1
        qa.write_text(text.replace('["$120"]', json.dumps([blank])), encoding="utf-8")
        predictions = golden_copy(
            "predictions-standard-mock-echo.jsonl", tmp_path, '"example_id": "a-total"',
            '"example_id": "a-total", "error": "timed out"')
        out = tmp_path / "eval.jsonl"
        assert run("eval", "--qa", qa, "--predictions", predictions,
                   "--contexts", GOLDEN / "expected" / "contexts-standard.jsonl",
                   "--dataset", "golden",
                   "--datasets-config", GOLDEN / "input" / "benchmarks.json",
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {qa} line 1: answer must hold a non-whitespace character, got {blank!r}\n"
        )
        assert not out.exists()


def append_copy_of_last_row(path):
    """Repeat the last row of a stage file; returns the new row's line number."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + lines[-1])
    return len(lines) + 1


class TestRepeatedRows:
    def test_duplicate_context_row_exits_2_in_predict_and_eval(self, bench, capsys):
        paths = run_pipeline(bench)
        line = append_copy_of_last_row(paths["contexts"])
        capsys.readouterr()
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-answer-key",
                   "--out", bench["dir"] / "p2.jsonl") == 2
        err = capsys.readouterr().err
        assert f"{paths['contexts']} line {line}: duplicate doc_id 'toy-d2'" in err
        assert run("eval", "--qa", bench["qa"], "--predictions", paths["predictions"],
                   "--contexts", paths["contexts"], "--dataset", "toy",
                   "--datasets-config", bench["config"],
                   "--out", bench["dir"] / "e2.jsonl") == 2
        err = capsys.readouterr().err
        assert f"{paths['contexts']} line {line}: duplicate doc_id 'toy-d2'" in err

    def test_duplicate_eval_row_exits_2_in_analyze(self, bench, capsys):
        paths = run_pipeline(bench)
        line = append_copy_of_last_row(paths["evals"])
        assert run("analyze", "--qa", bench["qa"], "--eval", paths["evals"],
                   "--out", bench["dir"] / "analysis.json") == 2
        err = capsys.readouterr().err
        assert f"{paths['evals']} line {line}: duplicate example_id 'toy-e2-1'" in err


def unreadable_input_argv(flag, bad, bench, paths):
    """A command whose `flag` names the file `bad`; every other input is valid."""
    predict = ["predict", "--contexts", paths["contexts"], "--dataset", "toy"]
    return {
        "--corpus": ["order", "--corpus", bad, "--strategy", "standard"],
        "--orders": ["serialize", "--corpus", bench["corpus"], "--orders", bad,
                     *budget_flags(bench, 5)],
        "--qa": [*predict, "--qa", bad, "--datasets-config", bench["config"],
                 "--backend", "mock-echo"],
        "--datasets-config": [*predict, "--qa", bench["qa"], "--datasets-config", bad,
                              "--backend", "mock-echo"],
        "--config": [*predict, "--qa", bench["qa"], "--datasets-config", bench["config"],
                     "--backend", "http", "--endpoint", "http://127.0.0.1:9/c",
                     "--config", bad],
    }[flag]


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "kind", ["directory", "not utf-8", "missing", "not json", "nested too deeply",
                 "integer too long", "lone surrogate"]
    )
    @pytest.mark.parametrize(
        "flag", ["--corpus", "--orders", "--qa", "--datasets-config", "--config"]
    )
    def test_unreadable_file_exits_2_naming_it(self, bench, capsys, flag, kind):
        paths = run_pipeline(bench)
        bad = bench["dir"] / "bad-input"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not utf-8":
            bad.write_bytes(b'\xff{"doc_id": "x"}\n')
        elif kind == "not json":
            bad.write_text("timeout = 3\n")
        elif kind == "nested too deeply":
            # Past the recursion limit json raised RecursionError, a traceback.
            bad.write_text("[" * 100_000 + "\n")
        elif kind == "integer too long":
            # json raised a bare ValueError past sys.get_int_max_str_digits(),
            # a traceback.
            bad.write_text('{"doc_id": ' + "1" * 5000 + "}\n")
        elif kind == "lone surrogate":
            # json decoded the escape to a string no UTF-8 file can hold.
            bad.write_text('{"doc_id": "d\\ud800"}\n')
        out = bench["dir"] / "out.jsonl"
        capsys.readouterr()
        assert run(*unreadable_input_argv(flag, bad, bench, paths), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()
        # --config used to have its own reader, worded apart from the others.
        if kind == "missing":
            assert err == f"error: file not found: {bad}\n"
        if kind == "not json":
            assert ": invalid JSON: Expecting value" in err
        if kind == "nested too deeply":
            assert err.endswith(": invalid JSON: nested too deeply\n")
        if kind == "integer too long":
            assert err.endswith(": invalid JSON: integer has too many digits\n")
        if kind == "lone surrogate":
            assert err.endswith(": invalid JSON: lone surrogate in a string\n")

    def test_non_string_doc_id_in_orders_exits_2(self, bench, capsys):
        orders = bench["dir"] / "orders.jsonl"
        write_records(orders, [
            {"config_digest": "0", "stage": "order", "strategy": "standard"},
            {"doc_id": ["toy-d0"], "permutation": list(range(8))},
        ])
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   *budget_flags(bench, 5), "--out", bench["dir"] / "contexts.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: {orders} line 2: doc_id must be a non-empty string, got ['toy-d0']\n"
        )

    def test_non_string_doc_id_in_contexts_exits_2(self, bench, capsys):
        contexts = bench["dir"] / "contexts.jsonl"
        write_records(contexts, [
            {"config_digest": "0", "stage": "serialize", "dataset": "toy", "budget": 1024},
            {"doc_id": ["toy-d0"], "context": "a", "token_count": 1},
        ])
        assert run("predict", "--qa", bench["qa"], "--contexts", contexts,
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-echo", "--out", bench["dir"] / "p.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: {contexts} line 2: doc_id must be a non-empty string, got ['toy-d0']\n"
        )

    def test_empty_question_exits_2_in_predict_and_eval(self, bench, capsys):
        paths = run_pipeline(bench)
        records = [*bench["qa_records"][:1], {**bench["qa_records"][1], "question": ""}]
        qa = bench["dir"] / "qa-empty-question.jsonl"
        write_records(qa, records)
        capsys.readouterr()
        expected = f"error: {qa} line 2: question must be a non-empty string, got ''\n"
        assert run("predict", "--qa", qa, "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-echo", "--out", bench["dir"] / "p2.jsonl") == 2
        assert capsys.readouterr().err == expected
        assert run("eval", "--qa", qa, "--predictions", paths["predictions"],
                   "--contexts", paths["contexts"], "--dataset", "toy",
                   "--datasets-config", bench["config"],
                   "--out", bench["dir"] / "e2.jsonl") == 2
        assert capsys.readouterr().err == expected


def with_header(name, tmp_path, header):
    """A copy of golden/expected/`name` whose header line is `header`."""
    lines = (GOLDEN / "expected" / name).read_text(encoding="utf-8").splitlines(True)
    path = tmp_path / name
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    return path


def stage_input_argv(consumer, bad):
    """The command `consumer` reading `bad` as its stage input; every other
    input is a golden file."""
    if consumer == BUDGET_1:
        return budget_1_argv(bad)
    qa, expected = GOLDEN / "input" / "qa.jsonl", GOLDEN / "expected"
    dataset = ["--dataset", "golden", "--datasets-config", GOLDEN / "input" / "benchmarks.json"]
    return {
        "orders to serialize": ["serialize", "--corpus", GOLDEN / "input" / "corpus.jsonl",
                                "--orders", bad, *dataset],
        "contexts to predict": ["predict", "--qa", qa, "--contexts", bad, *dataset,
                                "--backend", "mock-echo"],
        "contexts to eval": ["eval", "--qa", qa, "--contexts", bad, *dataset,
                             "--predictions", expected / "predictions-standard-mock-echo.jsonl"],
        "predictions to eval": ["eval", "--qa", qa, "--predictions", bad, *dataset,
                                "--contexts", expected / "contexts-standard.jsonl"],
        "eval to analyze": ["analyze", "--qa", qa, "--eval", bad],
    }[consumer]


def budget_1_argv(bad):
    """predict reading `bad` as its contexts for the golden dataset at a
    context budget of 1, from a datasets config written beside `bad`."""
    config = write_dataset_config(Path(bad).parent / "budget-1.json", ["golden"],
                                  metric="anls", context_budget=1)
    return ["predict", "--qa", GOLDEN / "input" / "qa.jsonl", "--contexts", bad,
            "--dataset", "golden", "--datasets-config", config, "--backend", "mock-echo"]


STAGE_INPUTS = {
    "orders to serialize": "orders-standard.jsonl",
    "contexts to predict": "contexts-standard.jsonl",
    "contexts to eval": "contexts-standard.jsonl",
    "predictions to eval": "predictions-standard-mock-echo.jsonl",
    "eval to analyze": "eval-standard-mock-echo.jsonl",
}
CONTEXT_INPUTS = ("contexts to predict", "contexts to eval")
BUDGET_1 = "contexts to predict at budget 1"
EVAL = "eval-standard-mock-echo.jsonl"
ANSWER_KEY_REFERENCE = GOLDEN / "expected" / "eval-standard-mock-answer-key.jsonl"
# A header field set to DROP is deleted; a header of NO_HEADER drops the
# header line, and NO_FILE writes no file at all.
DROP, NO_HEADER, NO_FILE = object(), object(), object()
NO_STAGE_HEADER = "{path} line 1: expected a stage header carrying 'config_digest'"
NOT_A_STRATEGY = (
    "{path} line 1: header strategy must be one of standard, raster_scan or shuffled, got "
)
GOLDEN_CONTEXTS = "this run needs dataset 'golden', budget 19"
# What eval needs of predictions scored against the golden standard contexts.
GOLDEN_PREDICTIONS = "this run needs dataset 'golden', contexts {!r}".format(
    stage_records(GOLDEN / "expected" / "contexts-standard.jsonl")[0]["config_digest"])

# Every header fault of a stage input, as (consumer, fault): (the golden file
# it is made from, the header change, the data rows kept (None keeps all),
# the error after "error: "). The consumer runs as stage_input_argv gives
# it; the header-fault tests of this module each run some of these rows.
HEADER_FAULTS = {
    **{(consumer, "no header"): (name, NO_HEADER, None, NO_STAGE_HEADER)
       for consumer, name in STAGE_INPUTS.items()},
    **{(consumer, "empty"): (name, NO_HEADER, 0, NO_STAGE_HEADER)
       for consumer, name in STAGE_INPUTS.items()},
    **{(consumer, "missing"): (name, NO_FILE, None, "file not found: {path}")
       for consumer, name in STAGE_INPUTS.items()},
    **{(consumer, "shuffled, no header"):
       ("contexts-shuffled.jsonl", NO_HEADER, None, NO_STAGE_HEADER)
       for consumer in CONTEXT_INPUTS},
    # The strategy of a run is written once, in the orders header, and copied
    # from header to header; null is no strategy.
    **{(consumer, fault): (name, {"strategy": value}, None, message)
       for consumer, name in (("orders to serialize", "orders-shuffled.jsonl"),
                              ("contexts to predict", "contexts-standard.jsonl"),
                              ("contexts to eval", "contexts-shuffled.jsonl"))
       for fault, value, message in (
           ("strategy missing", DROP, "{path} line 1: header is missing 'strategy'"),
           ("strategy unknown", "bogus", NOT_A_STRATEGY + "'bogus'"),
           ("strategy number", 5, NOT_A_STRATEGY + "5"),
           ("strategy null", None, NOT_A_STRATEGY + "None"))},
    **{(consumer, "another dataset"): (
        "contexts-ocrvqa-standard.jsonl", {}, None,
        "{path} line 1: header has dataset 'ocrvqa', budget 19, " + GOLDEN_CONTEXTS)
       for consumer in CONTEXT_INPUTS},
    **{(consumer, "another budget"): (
        "contexts-standard.jsonl", {"budget": 128}, None,
        "{path} line 1: header has dataset 'golden', budget 128, " + GOLDEN_CONTEXTS)
       for consumer in CONTEXT_INPUTS},
    **{(consumer, "no dataset"): (
        "contexts-standard.jsonl", {"dataset": DROP, "budget": DROP}, None,
        "{path} line 1: header has dataset None, budget None, " + GOLDEN_CONTEXTS)
       for consumer in CONTEXT_INPUTS},
    # Each of these used to be taken, exit 0: needed values were compared by
    # ==, and no reader read the header's stage.
    **{(consumer, "budget float"): (
        "contexts-standard.jsonl", {"budget": 19.0}, None,
        "{path} line 1: header has dataset 'golden', budget 19.0, " + GOLDEN_CONTEXTS)
       for consumer in CONTEXT_INPUTS},
    (BUDGET_1, "budget true"): (
        "contexts-standard.jsonl", {"budget": True}, None,
        "{path} line 1: header has dataset 'golden', budget True, "
        "this run needs dataset 'golden', budget 1"),
    **{(consumer, "another stage"): (
        "contexts-standard.jsonl", {"stage": "predict", "seed": "x", "config_digest": ""},
        None, "{path} line 1: header stage must be serialize, got 'predict'")
       for consumer in CONTEXT_INPUTS},
    ("predictions to eval", "another stage"): (
        "predictions-standard-mock-echo.jsonl", {"stage": "eval"}, None,
        "{path} line 1: header stage must be predict, got 'eval'"),
    ("eval to analyze", "another stage"): (
        EVAL, {"stage": "predict"}, None,
        "{path} line 1: header stage must be eval, got 'predict'"),
    ("predictions to eval", "another dataset"): (
        "predictions-chartqa-standard.jsonl", {}, None,
        "{path} line 1: header has dataset 'chartqa', contexts 'c115237c1765', "
        + GOLDEN_PREDICTIONS),
    # eval used to score any predictions of the dataset over any contexts:
    # the shuffled arm's predictions over the standard contexts exited 0 and
    # wrote a reference run, "strategy": "standard", aggregate 55.6.
    ("predictions to eval", "contexts of another run"): (
        "predictions-shuffled-mock-answer-key.jsonl", {}, None,
        "{path} line 1: header has dataset 'golden', contexts '498556485956', "
        + GOLDEN_PREDICTIONS),
    # A predictions file written before predict recorded its contexts.
    ("predictions to eval", "no contexts"): (
        "predictions-standard-mock-echo.jsonl", {"contexts": DROP}, None,
        "{path} line 1: header has dataset 'golden', contexts None, " + GOLDEN_PREDICTIONS),
    ("predictions to eval", "backend missing"): (
        "predictions-standard-mock-echo.jsonl", {"backend": DROP}, None,
        "{path} line 1: header is missing 'backend'"),
    ("predictions to eval", "backend empty"): (
        "predictions-standard-mock-echo.jsonl", {"backend": ""}, None,
        "{path} line 1: header backend must be a non-empty string, got ''"),
    # eval copies the answer budget into its header, for analyze to pair by.
    ("predictions to eval", "max_new_tokens missing"): (
        "predictions-standard-mock-echo.jsonl", {"max_new_tokens": DROP}, None,
        "{path} line 1: header is missing 'max_new_tokens'"),
    ("predictions to eval", "max_new_tokens true"): (
        "predictions-standard-mock-echo.jsonl", {"max_new_tokens": True}, None,
        "{path} line 1: header max_new_tokens must be an integer >= 1, got True"),
    # The next stage records a header's digest as its lineage.
    ("orders to serialize", "digest number"): (
        "orders-standard.jsonl", {"config_digest": 5}, None,
        "{path} line 1: header config_digest must be a non-empty string, got 5"),
    ("contexts to predict", "digest empty"): (
        "contexts-standard.jsonl", {"config_digest": ""}, None,
        "{path} line 1: header config_digest must be a non-empty string, got ''"),
    # An eval file written before its header held the settings analyze pairs
    # runs by, or with one out of its rule.
    ("eval to analyze", "anls_tau missing"): (
        EVAL, {"anls_tau": DROP}, None, "{path} line 1: header is missing 'anls_tau'"),
    ("eval to analyze", "anls_tau above 1"): (
        EVAL, {"anls_tau": 1.5}, None,
        "{path} line 1: header anls_tau must be a number in [0, 1], got 1.5"),
    ("eval to analyze", "metric unknown"): (
        EVAL, {"metric": "bleu"}, None,
        "{path} line 1: header metric must be one of exact_match, anls, relaxed_accuracy "
        "or vqa_accuracy, got 'bleu'"),
    ("eval to analyze", "backend missing"): (
        EVAL, {"backend": DROP}, None, "{path} line 1: header is missing 'backend'"),
    ("eval to analyze", "budget float"): (
        EVAL, {"budget": 19.0}, None,
        "{path} line 1: header budget must be an integer >= 1, got 19.0"),
    ("eval to analyze", "max_new_tokens missing"): (
        EVAL, {"max_new_tokens": DROP}, None, "{path} line 1: header is missing 'max_new_tokens'"),
    ("eval to analyze", "max_new_tokens true"): (
        EVAL, {"max_new_tokens": True}, None,
        "{path} line 1: header max_new_tokens must be an integer >= 1, got True"),
    ("eval to analyze", "dataset list"): (
        EVAL, {"dataset": ["golden"]}, None,
        "{path} line 1: header dataset must be a non-empty string, got ['golden']"),
    ("eval to analyze", "strategy number"): (EVAL, {"strategy": 5}, None, NOT_A_STRATEGY + "5"),
    ("eval to analyze", "strategy null"): (EVAL, {"strategy": None}, None, NOT_A_STRATEGY + "None"),
    # Any strategy but "shuffled" used to be taken as the reference run.
    ("eval to analyze", "strategy unknown"): (
        EVAL, {"strategy": "bogus"}, None, NOT_A_STRATEGY + "'bogus'"),
    # A file cut at a line boundary used to be analyzed over its prefix: a
    # report over 4 examples, exit 0.
    ("eval to analyze", "cut at 4"): (
        EVAL, {}, 4, "{path} line 1: header n is 9, but the file holds 4 rows"),
    ("eval to analyze", "cut at 8"): (
        EVAL, {}, 8, "{path} line 1: header n is 9, but the file holds 8 rows"),
    ("eval to analyze", "n too high"): (
        EVAL, {"n": 10}, None, "{path} line 1: header n is 10, but the file holds 9 rows"),
    ("eval to analyze", "n bool"): (
        EVAL, {"n": True}, 1, "{path} line 1: header n must be an integer >= 1, got True"),
    ("eval to analyze", "n string"): (
        EVAL, {"n": "9"}, None, "{path} line 1: header n must be an integer >= 1, got '9'"),
    # It used to fail later, with "rows must be non-empty" and no path.
    ("eval to analyze", "no rows"): (
        EVAL, {}, 0, "{path} line 1: header n is 9, but the file holds 0 rows"),
    ("eval to analyze", "n missing"): (
        EVAL, {"n": DROP}, None, "{path} line 1: header is missing 'n'"),
}


def assert_header_fault(tmp_path, capsys, consumer, fault):
    """`consumer` over the HEADER_FAULTS row (consumer, fault) exits 2 with
    the row's error alone and writes no output."""
    name, header, kept, message = HEADER_FAULTS[consumer, fault]
    bad = tmp_path / name
    if header is not NO_FILE:
        lines = (GOLDEN / "expected" / name).read_text(encoding="utf-8").splitlines(True)
        rows = lines[1:] if kept is None else lines[1:1 + kept]
        if header is not NO_HEADER:
            fields = {**json.loads(lines[0]), **header}
            rows.insert(0, json.dumps({k: v for k, v in fields.items() if v is not DROP}) + "\n")
        bad.write_text("".join(rows), encoding="utf-8")
    out = tmp_path / "out"
    assert run(*stage_input_argv(consumer, bad), "--out", out) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=bad)}\n")
    assert not out.exists()


class TestStageHeaders:
    @pytest.mark.parametrize("kind", ["no header", "empty", "missing"])
    @pytest.mark.parametrize("consumer", STAGE_INPUTS)
    def test_stage_input_without_header_exits_2(self, tmp_path, capsys, consumer, kind):
        assert_header_fault(tmp_path, capsys, consumer, kind)

    def test_headerless_shuffled_contexts_cannot_pose_as_a_reference_run(
        self, tmp_path, capsys
    ):
        # Without its header, the shuffled run's eval file used to carry
        # "strategy": null, and analyze paired it with itself as the
        # reference run: delta 0.0, exit 0.
        for consumer in CONTEXT_INPUTS:
            assert_header_fault(tmp_path, capsys, consumer, "shuffled, no header")

    @pytest.mark.parametrize("fault", ["missing", "unknown", "number"])
    def test_contexts_header_without_a_strategy_exits_2_in_eval(self, tmp_path, capsys, fault):
        # eval used to copy whatever it found, writing "strategy": null for a
        # missing one, and analyze then paired the shuffled run with itself:
        # delta 0.0, exit 0.
        assert_header_fault(tmp_path, capsys, "contexts to eval", f"strategy {fault}")

    @pytest.mark.parametrize("fault", ["missing", "unknown", "number", "null"])
    def test_orders_header_without_a_strategy_exits_2_in_serialize(self, tmp_path, capsys, fault):
        assert_header_fault(tmp_path, capsys, "orders to serialize", f"strategy {fault}")

    @pytest.mark.parametrize("fault", ["missing", "unknown"])
    def test_contexts_header_without_a_strategy_exits_2_in_predict(self, tmp_path, capsys, fault):
        # predict used to take such contexts, exit 0, and spend a request on
        # every question for predictions that eval then refused with them.
        assert_header_fault(tmp_path, capsys, "contexts to predict", f"strategy {fault}")

    @pytest.mark.parametrize("consumer", [*CONTEXT_INPUTS, "predictions to eval",
                                          "eval to analyze"])
    def test_input_from_another_stage_exits_2(self, tmp_path, capsys, consumer):
        assert_header_fault(tmp_path, capsys, consumer, "another stage")

    def test_null_contexts_strategy_exits_2_in_eval(self, tmp_path, capsys):
        # eval used to copy a null strategy into its own header.
        assert_header_fault(tmp_path, capsys, "contexts to eval", "strategy null")


def labelled_orders(tmp_path, strategy, labels):
    """The golden shuffled orders under a header whose `strategy` is
    `strategy` (absent when None), their rows labelled as every orders row
    was before the strategy moved to the header: row i carries "strategy":
    labels[i] and the "params" of its strategy."""
    params = {"standard": {}, "raster_scan": {"line_threshold_factor": 0.5},
              "shuffled": {"seed": 0}}
    header, rows = stage_records(GOLDEN / "expected" / "orders-shuffled.jsonl")
    header = {k: v for k, v in header.items() if k != "strategy"}
    if strategy is not None:
        header["strategy"] = strategy
    assert len(rows) == len(labels)
    path = tmp_path / "orders.jsonl"
    write_records(path, [header, *({**row, "strategy": label, "params": params[label]}
                                   for row, label in zip(rows, labels))])
    return path


class TestStrategyLabel:
    # serialize used to rebuild the contexts' strategy from the orders rows:
    # rows relabelled "standard" made the shuffled run a reference run for
    # analyze, and rows that disagreed gave "strategy": null.
    @pytest.mark.parametrize("labels", [["standard"] * 3, ["standard", "raster_scan", "shuffled"]],
                             ids=["relabelled standard", "mixed"])
    def test_contexts_take_the_orders_header_strategy(self, tmp_path, labels):
        orders = labelled_orders(tmp_path, "shuffled", labels)
        contexts = tmp_path / "contexts.jsonl"
        argv = stage_input_argv("orders to serialize", orders)
        assert run(*argv, "--seed", 7, "--out", contexts) == 0
        assert stage_records(contexts)[0]["strategy"] == "shuffled"
        assert contexts.read_bytes() == (
            GOLDEN / "expected" / "contexts-shuffled.jsonl").read_bytes()

    def test_orders_file_of_the_old_format_exits_2(self, tmp_path, capsys):
        orders = labelled_orders(tmp_path, None, ["shuffled"] * 3)
        contexts = tmp_path / "contexts.jsonl"
        argv = stage_input_argv("orders to serialize", orders)
        assert run(*argv, "--seed", 7, "--out", contexts) == 2
        assert capsys.readouterr() == (
            "", f"error: {orders} line 1: header is missing 'strategy'\n")
        assert not contexts.exists()


class TestInputsMadeForTheDataset:
    # predict and eval used to take any contexts file: the metrics fixture's
    # ocrvqa, chartqa and textvqa runs were scored over the golden dataset's
    # contexts, and every command exited 0.
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("case", ["another dataset", "another budget", "no dataset"])
    def test_contexts_not_made_for_the_run_exit_2(self, tmp_path, capsys, command, case):
        assert_header_fault(tmp_path, capsys, f"contexts to {command}", case)

    def test_predictions_of_another_dataset_exit_2_in_eval(self, tmp_path, capsys):
        assert_header_fault(tmp_path, capsys, "predictions to eval", "another dataset")

    @pytest.mark.parametrize("fault", ["contexts of another run", "no contexts"])
    def test_predictions_made_from_other_contexts_exit_2_in_eval(self, tmp_path, capsys, fault):
        assert_header_fault(tmp_path, capsys, "predictions to eval", fault)

    @pytest.mark.parametrize("fault", ["backend missing", "backend empty"])
    def test_predictions_header_without_a_backend_exits_2_in_eval(self, tmp_path, capsys, fault):
        assert_header_fault(tmp_path, capsys, "predictions to eval", fault)

    @pytest.mark.parametrize("fault", ["max_new_tokens missing", "max_new_tokens true"])
    def test_predictions_header_without_an_answer_budget_exits_2_in_eval(
        self, tmp_path, capsys, fault
    ):
        assert_header_fault(tmp_path, capsys, "predictions to eval", fault)

    @pytest.mark.parametrize("consumer, fault", [("orders to serialize", "digest number"),
                                                 ("contexts to predict", "digest empty")])
    def test_a_digest_that_is_not_a_string_exits_2(self, tmp_path, capsys, consumer, fault):
        assert_header_fault(tmp_path, capsys, consumer, fault)

    @pytest.mark.parametrize("consumer, fault", [
        *((consumer, "budget float") for consumer in CONTEXT_INPUTS), (BUDGET_1, "budget true"),
    ])
    def test_needed_values_match_by_exact_type(self, tmp_path, capsys, consumer, fault):
        assert_header_fault(tmp_path, capsys, consumer, fault)


class TestFlagScope:
    def test_config_and_parallelism_are_predict_options(self, bench, capsys):
        paths = run_pipeline(bench)
        assert run("order", "--corpus", bench["corpus"], "--strategy", "standard",
                   "--parallelism", 2, "--out", bench["dir"] / "o2.jsonl") == 1
        assert run("eval", "--qa", bench["qa"], "--predictions", paths["predictions"],
                   "--contexts", paths["contexts"], "--dataset", "toy",
                   "--datasets-config", bench["config"], "--config", "x.json",
                   "--out", bench["dir"] / "e2.jsonl") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-answer-key", "--parallelism", 2, "--seed", 7,
                   "--out", bench["dir"] / "p2.jsonl") == 0
        assert (bench["dir"] / "p2.jsonl").read_bytes() == paths["predictions"].read_bytes()

    @pytest.mark.parametrize("argv", [
        ("order", "--corpus", "c.jsonl", "--strategy", "standard", "--output-dir", "d"),
        ("predict", "--qa", "q.jsonl", "--contexts", "c.jsonl", "--dataset", "toy",
         "--endpoint", "http://127.0.0.1:9/c", "--timeout", 5),
        ("predict", "--qa", "q.jsonl", "--contexts", "c.jsonl", "--dataset", "toy",
         "--endpoint", "http://127.0.0.1:9/c", "--max-attempts", 1),
        ("analyze", "--qa", "q.jsonl", "--eval", "e.jsonl", "--no-perplexity"),
        ("serialize", "--corpus", "c.jsonl", "--orders", "o.jsonl", "--dataset", "toy",
         "--budget", 5),
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_defaults_to_the_stage_file_name(self, bench, monkeypatch):
        monkeypatch.chdir(bench["dir"])
        assert run("order", "--corpus", bench["corpus"], "--strategy", "standard") == 0
        assert load_orders(bench["dir"] / "orders.jsonl")[1]

    def test_flag_inventory(self):
        # Every option each subcommand accepts; a new knob must change this table.
        common = ["-h", "--help", "--out", "--seed"]
        datasets = ["--dataset", "--datasets-config"]
        expected = {
            "order": ["--corpus", "--strategy", "--threshold-factor"],
            "serialize": ["--corpus", "--orders", *datasets],
            "predict": ["--backend", "--config", "--contexts", *datasets, "--endpoint",
                        "--no-logprobs", "--parallelism", "--qa"],
            "eval": ["--contexts", *datasets, "--predictions", "--qa"],
            "analyze": ["--eval", "--qa"],
            "sample": ["--datasets", "--draws", "--strategy"],
        }
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: sorted(s for action in sub._actions for s in action.option_strings)
            for name, sub in subparsers.choices.items()
        }
        assert found == {name: sorted(common + flags) for name, flags in expected.items()}


class TestAnalyzeCommand:
    def analyze(self, bench, *extra):
        standard = run_pipeline(bench, strategy="standard", suffix="-std")
        shuffled = run_pipeline(bench, strategy="shuffled", suffix="-shf")
        out = bench["dir"] / "analysis.json"
        code = run("analyze", "--qa", bench["qa"],
                   "--eval", standard["evals"], "--eval", shuffled["evals"],
                   "--out", out, *extra)
        return code, out

    # The golden fixture's reference and shuffled runs; analyze over them at
    # seed 7 writes golden/expected/analysis-standard-mock-answer-key.json.
    GOLDEN_RUNS = (
        "--qa", GOLDEN / "input" / "qa.jsonl",
        "--eval", GOLDEN / "expected" / "eval-standard-mock-answer-key.jsonl",
        "--eval", GOLDEN / "expected" / "eval-shuffled-mock-answer-key.jsonl",
    )

    @pytest.mark.parametrize("target", ["missing directory", "directory", "fifo"])
    def test_an_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, target):
        # analyze used to write its report in place, and the first two ended
        # in a traceback. The temporary file used to be renamed over a FIFO:
        # exit 0, and a regular file where the FIFO had been.
        out, reason = tmp_path / "missing" / "a.json", "No such file or directory"
        if target == "directory":
            out, reason = tmp_path / "taken", "Is a directory"
            out.mkdir()
        elif target == "fifo":
            out, reason = tmp_path / "pipe", "not a regular file"
            os.mkfifo(out)
        assert run("analyze", *self.GOLDEN_RUNS, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {out}: cannot write: {reason}\n"
        assert list(tmp_path.rglob("*.tmp")) == []
        assert out.is_fifo() == (target == "fifo")

    def test_a_failed_write_keeps_the_existing_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "analysis.json"
        assert run("analyze", *self.GOLDEN_RUNS, "--seed", 7, "--out", out) == 0
        before = out.read_bytes()
        golden = GOLDEN / "expected" / "analysis-standard-mock-answer-key.json"
        assert before == golden.read_bytes()
        reason = os.strerror(errno.EXDEV)

        def refuse(source, target):
            raise OSError(errno.EXDEV, reason)

        monkeypatch.setattr(os, "replace", refuse)
        capsys.readouterr()
        # Another seed, so the report that failed to land differs from it.
        assert run("analyze", *self.GOLDEN_RUNS, "--seed", 8, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {out}: cannot write: {reason}\n"
        assert out.read_bytes() == before
        assert os.listdir(tmp_path) == ["analysis.json"]

    def test_a_context_length_past_sys_maxsize_exits_2(self, tmp_path, capsys):
        # Two rows of 10**400 overflowed the median's float division, a
        # traceback.
        lines = (GOLDEN / "expected" / "eval-standard-mock-answer-key.jsonl").read_text(
            encoding="utf-8").splitlines()
        header = {**json.loads(lines[0]), "n": 2}
        rows = [{**json.loads(line), "context_token_len": 10**400} for line in lines[1:3]]
        evals = tmp_path / "eval.jsonl"
        write_records(evals, [header, *rows])
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", "--eval", evals,
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {evals} line 2: context_token_len must be an integer in "
            f"[0, {sys.maxsize}], got {10**400}\n"
        )
        assert not out.exists()

    def test_report_has_exactly_four_keys(self, bench):
        code, out = self.analyze(bench)
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "config_digest", "stage", "seed", "datasets", "strategies", "report"
        }
        assert set(payload["report"]) == {
            "perplexity", "answer_presence", "context_length", "order_sensitivity"
        }

    def test_report_values(self, bench):
        _, out = self.analyze(bench)
        report = json.loads(out.read_text())["report"]
        assert report["perplexity"]["toy"]["mean_rop_all"] == pytest.approx(2.0)
        assert report["answer_presence"]["toy"]["pct_correct"] == pytest.approx(100.0)
        assert report["context_length"]["toy"]["normalized_median_correct"] == pytest.approx(1.0)
        sensitivity = report["order_sensitivity"]
        assert len(sensitivity) == 1
        assert sensitivity[0]["dataset"] == "toy"
        assert sensitivity[0]["delta"] >= 0.0

    def test_raster_reference_populates_reports(self, bench):
        raster = run_pipeline(bench, strategy="raster_scan", suffix="-ras")
        shuffled = run_pipeline(bench, strategy="shuffled", suffix="-shf")
        out = bench["dir"] / "analysis.json"
        assert run("analyze", "--qa", bench["qa"],
                   "--eval", raster["evals"], "--eval", shuffled["evals"],
                   "--out", out) == 0
        report = json.loads(out.read_text())["report"]
        assert report["answer_presence"]["toy"]["pct_correct"] == pytest.approx(100.0)
        assert len(report["order_sensitivity"]) == 1
        assert report["order_sensitivity"][0]["delta"] >= 0.0

    def test_two_reference_runs_for_one_dataset_exit_2(self, bench, capsys):
        standard = run_pipeline(bench, strategy="standard", suffix="-std")
        raster = run_pipeline(bench, strategy="raster_scan", suffix="-ras")
        again = run_pipeline(bench, strategy="standard", seed=8, suffix="-std2")
        for second in (raster, again):
            assert run("analyze", "--qa", bench["qa"],
                       "--eval", standard["evals"], "--eval", second["evals"],
                       "--out", bench["dir"] / "analysis.json") == 2
            assert capsys.readouterr().err == (
                "error: dataset 'toy' has more than one non-shuffled eval file; "
                "pass a single reference run per dataset\n"
            )

    def test_example_repeated_across_qa_files_exits_2(self, bench, capsys):
        standard = run_pipeline(bench, strategy="standard", suffix="-std")
        assert run("analyze", "--qa", bench["qa"], "--qa", bench["qa"],
                   "--eval", standard["evals"],
                   "--out", bench["dir"] / "analysis.json") == 2
        assert "duplicate example 'toy-e0-0' across QA files" in capsys.readouterr().err

    def test_two_shuffled_runs_for_one_dataset_exit_2(self, bench, capsys):
        first = run_pipeline(bench, strategy="shuffled", seed=1, suffix="-s1")
        second = run_pipeline(bench, strategy="shuffled", seed=2, suffix="-s2")
        assert run("analyze", "--qa", bench["qa"],
                   "--eval", first["evals"], "--eval", second["evals"],
                   "--out", bench["dir"] / "analysis.json") == 2
        assert "two eval files cover dataset 'toy' strategy 'shuffled'" in (
            capsys.readouterr().err
        )

    def test_standard_only_gives_empty_sensitivity(self, bench):
        standard = run_pipeline(bench, strategy="standard", suffix="-std")
        out = bench["dir"] / "analysis.json"
        assert run("analyze", "--qa", bench["qa"], "--eval", standard["evals"],
                   "--out", out) == 0
        assert json.loads(out.read_text())["report"]["order_sensitivity"] == []

    @pytest.mark.parametrize("fault", ["dataset list", "strategy number", "strategy unknown",
                                       "strategy null"])
    def test_bad_header_value_exits_2(self, tmp_path, capsys, fault):
        assert_header_fault(tmp_path, capsys, "eval to analyze", fault)

    def test_eval_file_without_rows_exits_2(self, tmp_path, capsys):
        assert_header_fault(tmp_path, capsys, "eval to analyze", "no rows")

    @pytest.mark.parametrize(
        "standard, shuffled",
        [(1.7e308, -1.7e308), ("12", "12"), (True, True), (math.nan, math.nan),
         (None, None)],
        ids=["aggregate overflow", "aggregate string", "aggregate bool", "aggregate nan",
             "aggregate missing"],
    )
    def test_header_aggregate_is_not_read(self, tmp_path, standard, shuffled):
        # The report comes from the rows: the header aggregates (None drops
        # the key) change nothing. Their difference used to be the delta, and
        # this overflowing pair ended analyze with a traceback.
        evals = []
        for strategy, aggregate in (("standard", standard), ("shuffled", shuffled)):
            name = f"eval-{strategy}-mock-echo.jsonl"
            header = stage_records(GOLDEN / "expected" / name)[0]
            if aggregate is None:
                del header["aggregate"]
            else:
                header["aggregate"] = aggregate
            evals += ["--eval", with_header(name, tmp_path, header)]
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", *evals,
                   "--seed", 7, "--out", out) == 0
        expected = GOLDEN / "expected" / "analysis-standard-mock-echo.json"
        assert out.read_bytes() == expected.read_bytes()

    def test_shuffled_run_over_other_examples_exits_2(self, tmp_path, capsys):
        # With one row fewer the shuffled run used to be contrasted anyway:
        # a delta over different examples, exit 0. The header counts the
        # rows left, so the file is whole and only the examples differ.
        name = "eval-shuffled-mock-echo.jsonl"
        header, rows = stage_records(GOLDEN / "expected" / name)
        shuffled = tmp_path / "eval-shuffled.jsonl"
        write_records(shuffled, [{**header, "n": len(rows) - 1}, *rows[:-1]])
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl",
                   "--eval", GOLDEN / "expected" / "eval-standard-mock-echo.jsonl",
                   "--eval", shuffled, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: dataset 'golden': the shuffled run covers other examples "
            "than the reference run\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["cut at 4", "cut at 8", "n too high", "n bool",
                                       "n string"])
    def test_eval_file_whose_header_miscounts_its_rows_exits_2(self, tmp_path, capsys, fault):
        assert_header_fault(tmp_path, capsys, "eval to analyze", fault)

    def test_eval_header_without_a_row_count_exits_2(self, tmp_path, capsys):
        assert_header_fault(tmp_path, capsys, "eval to analyze", "n missing")

    @pytest.mark.parametrize("fault", ["anls_tau missing", "anls_tau above 1", "metric unknown",
                                       "backend missing", "budget float",
                                       "max_new_tokens missing", "max_new_tokens true"])
    def test_eval_header_without_a_paired_setting_exits_2(self, tmp_path, capsys, fault):
        assert_header_fault(tmp_path, capsys, "eval to analyze", fault)

    def shuffled_eval(self, tmp_path, **config):
        """The golden shuffled answer-key run predicted and scored under the
        golden dataset's config changed by `config`."""
        settings = {"metric": "anls", "context_budget": 19, "target_budget": 32,
                    "anls_tau": 0.5, **config}
        config = write_dataset_config(tmp_path / "config.json", ["golden"], **settings)
        contexts = GOLDEN / "expected" / "contexts-shuffled.jsonl"
        predictions, out = tmp_path / "predictions-shuffled.jsonl", tmp_path / "eval-shuffled.jsonl"
        common = ("--qa", GOLDEN / "input" / "qa.jsonl", "--contexts", contexts,
                  "--dataset", "golden", "--datasets-config", config, "--seed", 7)
        assert run("predict", *common, "--backend", "mock-answer-key", "--out", predictions) == 0
        assert run("eval", *common, "--predictions", predictions, "--out", out) == 0
        return out

    @pytest.mark.parametrize("shuffled, has", [
        # Runs from different backends used to be contrasted: a delta of
        # 66.7, where the matched answer-key pair gives 22.2.
        ("eval-shuffled-mock-echo.jsonl", "metric 'anls', anls_tau 0.5, backend 'mock-echo', "
         "budget 19, max_new_tokens 32"),
        # So was a shuffled run scored by exact match, or with an ANLS
        # threshold of 0.0 (a delta of 18.5).
        ({"metric": "exact_match"}, "metric 'exact_match', anls_tau 0.5, "
         "backend 'mock-answer-key', budget 19, max_new_tokens 32"),
        ({"anls_tau": 0.0}, "metric 'anls', anls_tau 0.0, backend 'mock-answer-key', "
         "budget 19, max_new_tokens 32"),
        # And a shuffled run predicted under an answer budget of 4 tokens,
        # where the reference run had 32: it scores 55.6.
        ({"target_budget": 4}, "metric 'anls', anls_tau 0.5, backend 'mock-answer-key', "
         "budget 19, max_new_tokens 4"),
    ], ids=["another backend", "another metric", "another anls_tau", "another answer budget"])
    def test_runs_made_or_scored_differently_are_not_contrasted(
        self, tmp_path, capsys, shuffled, has
    ):
        if isinstance(shuffled, str):
            shuffled = GOLDEN / "expected" / shuffled
        else:
            shuffled = self.shuffled_eval(tmp_path, **shuffled)
            capsys.readouterr()
        code, out = self.analyze_answer_key_pair(tmp_path, shuffled)
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: {shuffled} line 1: header has {has}, its reference run "
            f"{ANSWER_KEY_REFERENCE} has metric 'anls', anls_tau 0.5, "
            "backend 'mock-answer-key', budget 19, max_new_tokens 32\n"))
        assert not out.exists()

    def test_a_shuffled_run_under_the_same_settings_is_contrasted(self, tmp_path):
        # The golden config written anew gives the golden run's report.
        code, out = self.analyze_answer_key_pair(tmp_path, self.shuffled_eval(tmp_path))
        assert code == 0
        expected = GOLDEN / "expected" / "analysis-standard-mock-answer-key.json"
        assert out.read_bytes() == expected.read_bytes()

    def analyze_answer_key_pair(self, tmp_path, shuffled):
        """(exit code, --out) of analyze over the golden standard answer-key
        run and `shuffled`."""
        out = tmp_path / "analysis.json"
        code = run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl",
                   "--eval", ANSWER_KEY_REFERENCE, "--eval", shuffled, "--seed", 7, "--out", out)
        return code, out

    def test_shuffled_run_without_reference_exits_2(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl",
                   "--eval", GOLDEN / "expected" / "eval-shuffled-mock-echo.jsonl",
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: dataset 'golden' has a shuffled run but no reference run\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ('"rop": 2.0', '"rop": NaN', "rop must be a finite number >= 1, got nan"),
        ('"rop": 2.0', '"rop": 1e400', "rop must be a finite number >= 1, got inf"),
        ('"score": 0.0', '"score": -7', "score must be a number in [0, 1], got -7"),
        # eval has always written a boolean here; a null was read as unknown.
        ('"answer_in_text": true', '"answer_in_text": null',
         "answer_in_text must be a boolean, got None"),
    ], ids=["rop nan", "rop overflow", "negative score", "answer_in_text null"])
    def test_out_of_range_eval_value_exits_2(self, tmp_path, capsys, old, new, message):
        evals = golden_copy("eval-standard-mock-echo.jsonl", tmp_path, old, new)
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", "--eval", evals,
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {evals} line 2: {message}\n"
        assert not out.exists()

    def test_rows_without_rop_are_left_out_of_perplexity(self, tmp_path):
        # A failed request leaves its eval row without a perplexity.
        lines = (GOLDEN / "expected" / "predictions-standard-mock-echo.jsonl").read_text(
            encoding="utf-8").splitlines(True)
        lines[1] = json.dumps({"example_id": "a-total", "error": "timed out"}) + "\n"
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("".join(lines), encoding="utf-8")
        evals, out = tmp_path / "eval.jsonl", tmp_path / "analysis.json"
        qa = GOLDEN / "input" / "qa.jsonl"
        assert run("eval", "--qa", qa, "--predictions", predictions,
                   "--contexts", GOLDEN / "expected" / "contexts-standard.jsonl",
                   "--dataset", "golden",
                   "--datasets-config", GOLDEN / "input" / "benchmarks.json",
                   "--out", evals) == 0
        assert stage_records(evals)[1][0]["rop"] is None
        assert run("analyze", "--qa", qa, "--eval", evals, "--out", out) == 0
        assert json.loads(out.read_text())["report"]["perplexity"] == {"golden": {
            "mean_rop_all": 2.0, "mean_rop_correct": None, "mean_rop_incorrect": 2.0,
            "n_correct": 0, "n_incorrect": 8,
        }}

    def test_run_without_logprobs_reports_null_perplexity(self, bench):
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--out", d / "contexts.jsonl")
        run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--backend", "mock-echo", "--no-logprobs", "--out", d / "pred.jsonl")
        run("eval", "--qa", bench["qa"], "--predictions", d / "pred.jsonl",
            "--contexts", d / "contexts.jsonl", "--dataset", "toy",
            "--datasets-config", bench["config"], "--out", d / "eval.jsonl")
        out = d / "analysis.json"
        assert run("analyze", "--qa", bench["qa"], "--eval", d / "eval.jsonl",
                   "--out", out) == 0
        assert json.loads(out.read_text())["report"]["perplexity"] == {"toy": {
            "mean_rop_all": None, "mean_rop_correct": None, "mean_rop_incorrect": None,
            "n_correct": 0, "n_incorrect": 0,
        }}

    def test_overflowing_perplexity_mean_exits_2(self, tmp_path, capsys):
        text = (GOLDEN / "expected" / "eval-standard-mock-echo.jsonl").read_text(
            encoding="utf-8")
        assert text.count('"rop": 2.0') == 9
        evals = tmp_path / "eval.jsonl"
        evals.write_text(text.replace('"rop": 2.0', '"rop": 1e308'), encoding="utf-8")
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", "--eval", evals,
                   "--out", out) == 2
        assert capsys.readouterr().err == "error: mean answer perplexity overflows a float\n"
        assert not out.exists()


class TestSampleCommand:
    def test_schedule_is_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ("sample", "--datasets", "x=100", "--datasets", "y=300",
                "--strategy", "normalized", "--draws", 1000, "--seed", 3)
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_normalized_frequencies_track_sizes(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run("sample", "--datasets", "x=100", "--datasets", "y=300",
            "--strategy", "normalized", "--draws", 8000, "--seed", 3,
            "--out", out)
        _, rows = stage_records(out)
        draws = [r["dataset"] for r in rows]
        share = draws.count("y") / len(draws)
        # Binomial 5 sigma around p = 0.75.
        assert abs(share - 0.75) < 5 * math.sqrt(0.75 * 0.25 / len(draws))

    def test_rows_carry_indices_in_range(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run("sample", "--datasets", "x=10", "--strategy", "uniform",
            "--draws", 50, "--seed", 1, "--out", out)
        _, rows = stage_records(out)
        assert all(0 <= r["index"] < 10 for r in rows)

    SAMPLE = ("sample", "--datasets", "x=3", "--strategy", "uniform", "--draws", 2)

    def test_out_through_a_symlink_replaces_the_file_it_points_at(self, tmp_path):
        # The temporary file used to be renamed over the link itself: a
        # regular file where the link had been, and the old bytes left in
        # the file it pointed at.
        (tmp_path / "runs").mkdir()
        real = tmp_path / "runs" / "real.jsonl"
        real.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(Path("runs") / "real.jsonl")
        fresh = tmp_path / "fresh.jsonl"
        assert run(*self.SAMPLE, "--out", fresh) == 0
        assert run(*self.SAMPLE, "--out", link) == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("runs", "real.jsonl")
        assert real.read_bytes() == fresh.read_bytes()
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize(
        "before, after", [(0o600, 0o600), (0o444, 0o444), (0o4755, 0o755)],
        ids=["0600", "0444", "setuid 4755"],
    )
    def test_out_keeps_the_permission_bits_of_the_file_it_replaces(
        self, tmp_path, before, after
    ):
        # A file a user made private used to come back with the umask's
        # default bits, world-readable under umask 022.
        out = tmp_path / "priv.jsonl"
        out.write_text("old\n")
        out.chmod(before)
        assert run(*self.SAMPLE, "--out", out) == 0
        assert out.read_text() != "old\n"
        assert stat.S_IMODE(out.stat().st_mode) == after
        umask = os.umask(0)
        os.umask(umask)
        new = tmp_path / "new.jsonl"
        assert run(*self.SAMPLE, "--out", new) == 0
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask

    def test_bad_size_spec_is_usage_error(self, tmp_path):
        assert run("sample", "--datasets", "x:100", "--strategy", "uniform",
                   "--draws", 10, "--out", tmp_path / "s.jsonl") == 1

    def test_a_name_that_is_not_unicode_is_usage_error(self, tmp_path, capsys):
        # The undecodable argv byte 0xff arrives as "\udcff", which the
        # schedule file could not hold: a UnicodeEncodeError traceback.
        out = tmp_path / "s.jsonl"
        assert run("sample", "--datasets", "\udcff=3", "--strategy", "uniform",
                   "--draws", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "docqa sample: error: argument --datasets: name in '\\udcff=3' is not valid Unicode"
        )
        assert "Traceback" not in err and not out.exists()

    def test_size_that_is_not_an_integer_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert run("sample", "--datasets", "a=x", "--strategy", "uniform",
                   "--draws", 2, "--out", out) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "docqa sample: error: argument --datasets: size in 'a=x' is not an integer"
        )
        assert not out.exists()

    def test_repeated_dataset_name_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert run("sample", "--datasets", "a=1", "--datasets", "a=2", "--strategy", "uniform",
                   "--draws", 2, "--out", out) == 2
        assert capsys.readouterr() == ("", "error: dataset names must be unique\n")
        assert not out.exists()

    def test_zero_size_exits_2(self, tmp_path):
        assert run("sample", "--datasets", "x=0", "--strategy", "uniform",
                   "--draws", 10, "--out", tmp_path / "s.jsonl") == 2

    def test_unknown_strategy_is_usage_error(self, tmp_path):
        assert run("sample", "--datasets", "x=5", "--strategy", "weighted",
                   "--draws", 10, "--out", tmp_path / "s.jsonl") == 1


class TestReproducibility:
    def test_pipeline_outputs_byte_identical_across_runs(self, bench, tmp_path):
        first = run_pipeline(bench, strategy="shuffled", seed=11, suffix="-r1")
        second = run_pipeline(bench, strategy="shuffled", seed=11, suffix="-r2")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()

    def test_digest_identical_across_directories(self, tmp_path):
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            docs, qa = toy_benchmark("toy", n_docs=2, words_per_doc=6)
            write_records(d / "corpus.jsonl", docs)
            run("order", "--corpus", d / "corpus.jsonl", "--strategy", "shuffled",
                "--seed", 2, "--out", d / "orders.jsonl")
        headers = []
        for sub in ("one", "two"):
            header, _ = stage_records(tmp_path / sub / "orders.jsonl")
            headers.append(header)
        assert headers[0] == headers[1]


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_entrypoint_callable_exists(self):
        from docqa.cli import entrypoint

        assert callable(entrypoint)

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "docqa.cli",
             "order", "--corpus", "missing.jsonl", "--strategy", "standard"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: file not found: missing.jsonl\n"

    @staticmethod
    def loaded_by_import(modules):
        """Those of `modules` that `import docqa.cli` loads in a fresh
        interpreter; -S keeps site's own imports out of the picture."""
        code = f"import sys, docqa.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_import_loads_no_dataclasses_or_importlib_resources(self):
        assert self.loaded_by_import({"dataclasses", "importlib.resources"}) == "[]\n"

    def test_import_loads_no_statistics_or_its_number_tower(self):
        # A median of context lengths is all docqa needs of statistics.
        modules = {"statistics", "fractions", "decimal", "numbers"}
        assert self.loaded_by_import(modules) == "[]\n"


def _raise(exc):
    raise exc


class TestCollectorPause:
    """main runs a command with the cyclic collector paused and leaves the
    collector as it found it."""

    @pytest.fixture(params=[True, False], ids=["gc enabled", "gc disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize(
        "command, code",
        [
            (lambda args: 0, 0),
            (lambda args: 3, 3),
            (lambda args: _raise(UsageError("u")), 1),
            (lambda args: _raise(DataError("d")), 2),
            (lambda args: _raise(EndpointError("e")), 3),
            (lambda args: _raise(RuntimeError("boom")), None),
        ],
        ids=["exit 0", "exit 3 returned", "exit 1", "exit 2", "exit 3 raised", "raises"],
    )
    def test_command_runs_paused_and_state_is_restored(
        self, collector, monkeypatch, capsys, command, code
    ):
        seen = []

        def fake_order(args):
            seen.append(gc.isenabled())
            return command(args)

        monkeypatch.setattr(cli, "cmd_order", fake_order)
        argv = ["order", "--corpus", "c.jsonl", "--strategy", "standard"]
        if code is None:
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
        else:
            assert main(argv) == code
        assert seen == [False]
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("argv, code", [([], 1), (["--help"], 0)],
                             ids=["usage error", "help"])
    def test_state_is_restored_after_argument_errors(self, collector, capsys, argv, code):
        assert main(argv) == code
        assert gc.isenabled() is collector


def scaled_golden_inputs(out, copies):
    """The golden corpus and QA file repeated `copies` times under fresh ids."""
    docs = [record for _, record in read_records(GOLDEN / "input" / "corpus.jsonl")]
    qa = [record for _, record in read_records(GOLDEN / "input" / "qa.jsonl")]
    corpus_rows, qa_rows = [], []
    for k in range(copies):
        for doc in docs:
            corpus_rows.append({**doc, "doc_id": f"{doc['doc_id']}-{k}"})
        for record in qa:
            qa_rows.append({**record, "example_id": f"{record['example_id']}-{k}",
                            "doc_id": f"{record['doc_id']}-{k}"})
    write_records(out / "corpus.jsonl", corpus_rows)
    write_records(out / "qa.jsonl", qa_rows)
    return out / "corpus.jsonl", out / "qa.jsonl"


def cyclic_garbage_per_command(corpus, qa, d):
    """For each pipeline command run on `corpus` and `qa`, writing into `d`,
    the number of unreachable objects a full collection finds right after it.
    The collector stays off throughout, so no automatic collection takes
    part of a command's garbage before it is counted."""
    config = GOLDEN / "input" / "benchmarks.json"
    dataset = ["--dataset", "golden", "--datasets-config", config]
    commands = [
        ["order", "--corpus", corpus, "--strategy", "raster_scan",
         "--out", d / "orders.jsonl"],
        ["serialize", "--corpus", corpus, "--orders", d / "orders.jsonl",
         *dataset, "--out", d / "contexts.jsonl"],
        ["predict", "--qa", qa, "--contexts", d / "contexts.jsonl",
         "--backend", "mock-answer-key", *dataset, "--out", d / "predictions.jsonl"],
        ["eval", "--qa", qa, "--predictions", d / "predictions.jsonl",
         "--contexts", d / "contexts.jsonl", *dataset, "--out", d / "eval.jsonl"],
        ["analyze", "--qa", qa, "--eval", d / "eval.jsonl",
         "--out", d / "analysis.json"],
    ]
    garbage = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in commands:
            gc.collect()
            assert run(*argv) == 0
            garbage.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    return garbage


def test_paused_collector_leaves_no_garbage_that_grows_with_the_input(tmp_path, capsys):
    # With the collector paused, a cycle per record would pile up until the
    # command ends; the pipeline's records hold none, so what is left is the
    # command's fixed overhead (its argument parser) whatever the input size.
    golden = (GOLDEN / "input" / "corpus.jsonl", GOLDEN / "input" / "qa.jsonl", tmp_path)
    large = (*scaled_golden_inputs(tmp_path, 12), tmp_path)
    cyclic_garbage_per_command(*golden)  # one-time set-up garbage, if any
    assert cyclic_garbage_per_command(*large) == cyclic_garbage_per_command(*golden)


def test_predict_holds_no_more_than_the_prompts_in_flight(tmp_path, capsys):
    # Every prompt carries its page's whole context, so 20 questions on a
    # page are 20 copies of it; predict must build each as its request goes
    # out instead of holding the batch. The bound is relative to the
    # prompts' size, so it holds whatever a Python version's objects cost.
    bench = {"dir": tmp_path}
    docs, qa = toy_benchmark("mem", n_docs=20, words_per_doc=1000, qa_per_doc=20)
    bench["corpus"], bench["qa"] = tmp_path / "corpus.jsonl", tmp_path / "qa.jsonl"
    write_records(bench["corpus"], docs)
    write_records(bench["qa"], qa)
    bench["config"] = write_dataset_config(tmp_path / "benchmarks.json", ["toy"])
    paths = run_pipeline(bench)
    _, contexts = load_contexts(paths["contexts"])
    by_doc = {c.doc_id: c for c in contexts}
    prompt_chars = sum(len(build_prompt(by_doc[r["doc_id"]], r["question"]).text) for r in qa)

    tracemalloc.start()
    try:
        assert run(
            "predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--backend", "mock-answer-key", "--seed", 7, "--out", tmp_path / "again.jsonl",
        ) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(qa) == 400
    assert (tmp_path / "again.jsonl").read_bytes() == paths["predictions"].read_bytes()
    assert peak < prompt_chars / 2, (peak, prompt_chars)
