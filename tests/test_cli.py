import argparse
import errno
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import toy_benchmark, write_dataset_config, write_records
from layouts import corpus_record
from docqa import cli
from docqa.cli import UsageError, build_parser, config_digest, derive_seed, main
from docqa.errors import DataError, EndpointError
from docqa.jsonl import read_records
from docqa.ordering import load_orders
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
        assert len(orders) == 3
        assert all(o.strategy == "raster_scan" for o in orders)

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
        _, orders = load_orders(out)
        assert orders[0].params == {"line_threshold_factor": 0.75}

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

    @pytest.mark.parametrize("factor", ["0", "-1", "nan", "inf"])
    def test_bad_threshold_factor_is_usage_error(self, bench, capsys, factor):
        out = bench["dir"] / "orders.jsonl"
        assert run("order", "--corpus", bench["corpus"], "--strategy", "raster_scan",
                   "--threshold-factor", factor, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"argument --threshold-factor: expected a finite number > 0, got {factor!r}"
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
        assert loaded[0].text == " ".join(w["text"] for w in doc["words"])
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

    @pytest.mark.parametrize("config", [
        '{"max_attempts": 0}',
        '{"max_attempts": "3"}',
        '{"max_attempts": true}',
        '{"timeout": "x"}',
        '{"timeout": 0}',
        '{"backoff_base": -1}',
        '{"endpoint": "http://127.0.0.1:9/c"}',
    ])
    def test_bad_run_config_exits_2_naming_the_file(self, bench, capsys, config):
        paths = run_pipeline(bench)
        config_path = bench["dir"] / "run-config.json"
        config_path.write_text(config)
        capsys.readouterr()
        assert run("predict", "--qa", bench["qa"], "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--endpoint", "http://127.0.0.1:9/c",
                   "--config", config_path, "--out", bench["dir"] / "p2.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config_path}")
        assert len(err.splitlines()) == 1 and err.count("config file") == 1

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
        assert "mystery" in capsys.readouterr().err

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
        ("-1" + "0" * 400, "line 2: logprob must be finite, got -1000"),
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
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
                 "integer too long"]
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

    def test_non_string_doc_id_in_orders_exits_2(self, bench, capsys):
        orders = bench["dir"] / "orders.jsonl"
        write_records(orders, [
            {"config_digest": "0"},
            {"doc_id": ["toy-d0"], "strategy": "standard", "permutation": list(range(8))},
        ])
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   *budget_flags(bench, 5), "--out", bench["dir"] / "contexts.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: {orders} line 2: doc_id must be a non-empty string, got ['toy-d0']\n"
        )

    def test_non_string_doc_id_in_contexts_exits_2(self, bench, capsys):
        contexts = bench["dir"] / "contexts.jsonl"
        write_records(contexts, [
            {"config_digest": "0"},
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
        expected = f"error: {qa} line 2: question must be a non-empty string\n"
        assert run("predict", "--qa", qa, "--contexts", paths["contexts"],
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-echo", "--out", bench["dir"] / "p2.jsonl") == 2
        assert capsys.readouterr().err == expected
        assert run("eval", "--qa", qa, "--predictions", paths["predictions"],
                   "--contexts", paths["contexts"], "--dataset", "toy",
                   "--datasets-config", bench["config"],
                   "--out", bench["dir"] / "e2.jsonl") == 2
        assert capsys.readouterr().err == expected


def without_header(name, tmp_path):
    """A copy of golden/expected/`name` with its header line dropped."""
    lines = (GOLDEN / "expected" / name).read_text(encoding="utf-8").splitlines(True)
    path = tmp_path / name
    path.write_text("".join(lines[1:]), encoding="utf-8")
    return path


def with_header(name, tmp_path, header):
    """A copy of golden/expected/`name` whose header line is `header`."""
    lines = (GOLDEN / "expected" / name).read_text(encoding="utf-8").splitlines(True)
    path = tmp_path / name
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    return path


def stage_input_argv(consumer, bad):
    """The command `consumer` reading `bad` as its stage input; every other
    input is a golden file."""
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


STAGE_INPUTS = {
    "orders to serialize": "orders-standard.jsonl",
    "contexts to predict": "contexts-standard.jsonl",
    "contexts to eval": "contexts-standard.jsonl",
    "predictions to eval": "predictions-standard-mock-echo.jsonl",
    "eval to analyze": "eval-standard-mock-echo.jsonl",
}


class TestStageHeaders:
    @pytest.mark.parametrize("kind", ["no header", "empty", "missing"])
    @pytest.mark.parametrize("consumer", STAGE_INPUTS)
    def test_stage_input_without_header_exits_2(self, tmp_path, capsys, consumer, kind):
        name = STAGE_INPUTS[consumer]
        if kind == "no header":
            bad = without_header(name, tmp_path)
            message = f"{bad} line 1: expected a stage header carrying 'config_digest'"
        elif kind == "empty":
            bad = tmp_path / name
            bad.write_text("")
            message = f"{bad} line 1: expected a stage header carrying 'config_digest'"
        else:
            bad = tmp_path / name
            message = f"file not found: {bad}"
        out = tmp_path / "out"
        assert run(*stage_input_argv(consumer, bad), "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_headerless_shuffled_contexts_cannot_pose_as_a_reference_run(
        self, tmp_path, capsys
    ):
        # Without its header, the shuffled run's eval file used to carry
        # "strategy": null, and analyze paired it with itself as the
        # reference run: delta 0.0, exit 0.
        contexts = without_header("contexts-shuffled.jsonl", tmp_path)
        message = f"error: {contexts} line 1: expected a stage header carrying 'config_digest'\n"
        qa = GOLDEN / "input" / "qa.jsonl"
        dataset = ["--dataset", "golden",
                   "--datasets-config", GOLDEN / "input" / "benchmarks.json"]
        predictions, evals = tmp_path / "predictions.jsonl", tmp_path / "eval.jsonl"
        assert run("predict", "--qa", qa, "--contexts", contexts, *dataset,
                   "--backend", "mock-echo", "--seed", 7, "--out", predictions) == 2
        assert capsys.readouterr().err == message
        assert run("eval", "--qa", qa, "--contexts", contexts, *dataset, "--predictions",
                   GOLDEN / "expected" / "predictions-shuffled-mock-echo.jsonl",
                   "--seed", 7, "--out", evals) == 2
        assert capsys.readouterr().err == message
        assert not predictions.exists() and not evals.exists()


    @pytest.mark.parametrize("header, message", [
        ({"config_digest": "0"}, "header is missing 'strategy'"),
        ({"config_digest": "0", "strategy": "bogus"}, "got 'bogus'"),
        ({"config_digest": "0", "strategy": 5}, "got 5"),
    ], ids=["missing", "unknown", "number"])
    def test_contexts_header_without_a_strategy_exits_2_in_eval(
        self, tmp_path, capsys, header, message
    ):
        # eval used to copy whatever it found, writing "strategy": null for a
        # missing one, and analyze then paired the shuffled run with itself:
        # delta 0.0, exit 0.
        contexts = with_header("contexts-shuffled.jsonl", tmp_path, header)
        evals = tmp_path / "eval.jsonl"
        assert run(*stage_input_argv("contexts to eval", contexts), "--out", evals) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {contexts} line 1: header ")
        assert err.endswith(f"{message}\n")
        assert not evals.exists()

    def test_null_contexts_strategy_is_kept_by_eval(self, tmp_path):
        name = "contexts-standard.jsonl"
        header = {**stage_records(GOLDEN / "expected" / name)[0], "strategy": None}
        contexts = with_header(name, tmp_path, header)
        evals = tmp_path / "eval.jsonl"
        assert run(*stage_input_argv("contexts to eval", contexts), "--out", evals) == 0
        assert stage_records(evals)[0]["strategy"] is None


def metric_argv(command, dataset, contexts, predictions=None, config=None):
    """`command` over the metrics fixture's `dataset`, reading `contexts`
    (and, for eval, `predictions`) from golden/expected."""
    expected = GOLDEN / "expected"
    argv = [command, "--qa", GOLDEN / "input" / f"qa-{dataset}.jsonl",
            "--contexts", expected / contexts, "--dataset", dataset,
            "--datasets-config", config or GOLDEN / "input" / "metrics.json"]
    if command == "predict":
        return [*argv, "--backend", "mock-answer-key"]
    return [*argv, "--predictions", expected / predictions]


class TestInputsMadeForTheDataset:
    # predict and eval used to take any contexts file: the metrics fixture's
    # ocrvqa, chartqa and textvqa runs were scored over the golden dataset's
    # contexts, and every command exited 0.
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("case", ["another dataset", "another budget", "no dataset"])
    def test_contexts_not_made_for_the_run_exit_2(self, tmp_path, capsys, command, case):
        contexts = GOLDEN / "expected" / "contexts-ocrvqa-standard.jsonl"
        config, has, needs = None, "dataset 'ocrvqa', budget 19", 19
        if case == "another dataset":
            contexts = GOLDEN / "expected" / "contexts-standard.jsonl"
            has = "dataset 'golden', budget 19"
        elif case == "another budget":
            config = write_dataset_config(tmp_path / "metrics.json", ["ocrvqa"],
                                          context_budget=128)
            needs = 128
        else:
            header = stage_records(contexts)[0]
            del header["dataset"], header["budget"]
            contexts = with_header(contexts.name, tmp_path, header)
            has = "dataset None, budget None"
        out = tmp_path / "out.jsonl"
        argv = metric_argv(command, "ocrvqa", contexts, "predictions-ocrvqa-standard.jsonl",
                           config)
        assert run(*argv, "--out", out) == 2
        assert capsys.readouterr() == ("", (
            f"error: {contexts} line 1: header has {has}, "
            f"this run needs dataset 'ocrvqa', budget {needs}\n"
        ))
        assert not out.exists()

    def test_predictions_of_another_dataset_exit_2_in_eval(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        argv = metric_argv("eval", "ocrvqa", "contexts-ocrvqa-standard.jsonl",
                           "predictions-chartqa-standard.jsonl")
        assert run(*argv, "--out", out) == 2
        predictions = GOLDEN / "expected" / "predictions-chartqa-standard.jsonl"
        assert capsys.readouterr().err == (
            f"error: {predictions} line 1: header has dataset 'chartqa', "
            "this run needs dataset 'ocrvqa'\n"
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_an_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, target):
        # analyze used to write its report in place, and both of these ended
        # in a traceback.
        out, reason = tmp_path / "missing" / "a.json", "No such file or directory"
        if target == "directory":
            out, reason = tmp_path / "taken", "Is a directory"
            out.mkdir()
        assert run("analyze", *self.GOLDEN_RUNS, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {out}: cannot write: {reason}\n"
        assert list(tmp_path.rglob("*.tmp")) == []

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

    def test_report_has_exactly_four_keys(self, bench):
        code, out = self.analyze(bench)
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config_digest", "stage", "report"}
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dataset", ["golden"], "dataset must be a non-empty string, got ['golden']"),
            ("strategy", 5,
             "strategy must be one of standard, raster_scan, shuffled or null, got 5"),
            # Any strategy but "shuffled" used to be taken as the reference run.
            ("strategy", "bogus",
             "strategy must be one of standard, raster_scan, shuffled or null, got 'bogus'"),
        ],
        ids=["dataset list", "strategy number", "strategy unknown"],
    )
    def test_bad_header_value_exits_2(self, bench, capsys, key, value, message):
        paths = run_pipeline(bench)
        header, rows = stage_records(paths["evals"])
        write_records(paths["evals"], [{**header, key: value}, *rows])
        capsys.readouterr()
        assert run("analyze", "--qa", bench["qa"], "--eval", paths["evals"],
                   "--out", bench["dir"] / "analysis.json") == 2
        assert capsys.readouterr().err == (
            f"error: eval file {paths['evals']} header: {message}\n"
        )

    def test_eval_file_without_rows_exits_2(self, tmp_path, capsys):
        # It used to fail later, with "rows must be non-empty" and no path.
        name = "eval-standard-mock-echo.jsonl"
        empty = tmp_path / name
        empty.write_text(
            (GOLDEN / "expected" / name).read_text(encoding="utf-8").splitlines(True)[0],
            encoding="utf-8",
        )
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", "--eval", empty,
                   "--out", tmp_path / "analysis.json") == 2
        assert capsys.readouterr().err == f"error: eval file {empty} has no rows\n"

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

    @pytest.mark.parametrize("n, kept", [(9, 4), (9, 8), (10, 9), (True, 1), ("9", 9)],
                             ids=["cut at 4", "cut at 8", "n too high", "n bool", "n string"])
    def test_eval_file_whose_header_miscounts_its_rows_exits_2(
        self, tmp_path, capsys, n, kept
    ):
        # A file cut at a line boundary used to be analyzed over its prefix:
        # a report over 4 examples, exit 0.
        name = "eval-standard-mock-echo.jsonl"
        header, rows = stage_records(GOLDEN / "expected" / name)
        assert header["n"] == len(rows) == 9
        torn = tmp_path / name
        write_records(torn, [{**header, "n": n}, *rows[:kept]])
        out = tmp_path / "analysis.json"
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", "--eval", torn,
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: eval file {torn} header: n is {n!r}, but the file holds {kept} rows\n"
        )
        assert not out.exists()

    def test_eval_header_without_a_row_count_exits_2(self, tmp_path, capsys):
        name = "eval-standard-mock-echo.jsonl"
        header, rows = stage_records(GOLDEN / "expected" / name)
        del header["n"]
        uncounted = tmp_path / name
        write_records(uncounted, [header, *rows])
        assert run("analyze", "--qa", GOLDEN / "input" / "qa.jsonl", "--eval", uncounted,
                   "--out", tmp_path / "analysis.json") == 2
        assert capsys.readouterr().err == f"error: eval file {uncounted} header is missing 'n'\n"

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
        ('"score": 0.0', '"score": -7', "score must lie in [0, 1], got -7"),
    ], ids=["rop nan", "rop overflow", "negative score"])
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

    def test_bad_size_spec_is_usage_error(self, tmp_path):
        assert run("sample", "--datasets", "x:100", "--strategy", "uniform",
                   "--draws", 10, "--out", tmp_path / "s.jsonl") == 1

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
