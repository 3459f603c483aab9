import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import toy_benchmark, write_dataset_config
from docqa.cli import build_parser, config_digest, derive_seed, main
from docqa.jsonl import read_stage_records, write_records
from docqa.ordering import load_orders
from docqa.serialize import load_contexts


GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    return main([str(a) for a in argv])


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
        header, rows = read_stage_records(out)
        assert header["stage"] == "order"
        assert len(header["config_digest"]) == 12
        orders = load_orders(out)
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
        perms = {o.permutation for o in load_orders(out)}
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
        orders = load_orders(out)
        assert orders[0].params == {"line_threshold_factor": 0.75}

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
        loaded = load_contexts(contexts)
        assert len(loaded) == 3
        doc = bench["docs"][0]
        assert loaded[0].text == " ".join(w["text"] for w in doc["words"])
        header, _ = read_stage_records(contexts)
        assert header["strategy"] == "standard"
        assert header["dataset"] == "toy"

    def test_budget_truncates(self, bench):
        orders = bench["dir"] / "orders.jsonl"
        contexts = bench["dir"] / "contexts.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--budget", 5, "--out", contexts) == 0
        assert all(c.token_count <= 5 for c in load_contexts(contexts))

    def test_doc_mismatch_exits_2(self, bench, capsys):
        docs, _ = toy_benchmark("other", n_docs=1, words_per_doc=4)
        other_corpus = bench["dir"] / "other.jsonl"
        write_records(other_corpus, docs)
        orders = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", other_corpus, "--strategy", "standard",
            "--out", orders)
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--budget", 5) == 2
        assert "other-d0" in capsys.readouterr().err

    def test_non_integer_permutation_exits_2(self, bench, capsys):
        orders = bench["dir"] / "orders.jsonl"
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", orders)
        header, rows = read_stage_records(orders)
        records = [record for _, record in rows]
        # Each entry truncates to the identity, so only the type is wrong.
        records[1]["permutation"] = [i + 0.7 for i in records[1]["permutation"]]
        write_records(orders, [header, *records])
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--budget", 5) == 2
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
            "--budget", 1024, "--out", d / "contexts.jsonl")
        assert run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-echo", "--out", d / "pred.jsonl") == 0
        from docqa.analysis import load_predictions

        preds = load_predictions(d / "pred.jsonl")
        assert len(preds) == len(bench["qa_records"])
        last_word = bench["docs"][0]["words"][-1]["text"]
        assert preds[0].text == last_word
        assert preds[0].tokens is not None

    def test_mock_answer_key_recovers_golds(self, bench):
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p for p in load_predictions(paths["predictions"])}
        for record in bench["qa_records"]:
            assert preds[record["example_id"]].text == record["answers"][0]

    def test_mock_answer_key_keeps_shared_questions_apart(self, bench):
        # Docs 0 and 1 ask the same question; each gold sits only in its own doc.
        qa = bench["qa_records"]
        qa[0]["question"] = qa[2]["question"] = "what is the total?"
        write_records(bench["qa"], qa)
        paths = run_pipeline(bench)
        from docqa.analysis import load_predictions

        preds = {p.example_id: p.text for p in load_predictions(paths["predictions"])}
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

        preds = {p.example_id: p.text for p in load_predictions(paths["predictions"])}
        assert preds[qa[0]["example_id"]] == qa[0]["answers"][0]
        assert preds[qa[1]["example_id"]] == qa[0]["answers"][0]

    def test_no_logprobs_flag(self, bench):
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--budget", 1024, "--out", d / "contexts.jsonl")
        run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--backend", "mock-echo", "--no-logprobs", "--out", d / "pred.jsonl")
        from docqa.analysis import load_predictions

        assert all(p.tokens is None for p in load_predictions(d / "pred.jsonl"))

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
            "--budget", 1024, "--out", d / "contexts.jsonl")
        (d / "run-config.json").write_text('{"max_attempts": 1}')
        code = run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "http", "--endpoint", f"http://127.0.0.1:{port}/c",
                   "--config", d / "run-config.json", "--out", d / "pred.jsonl")
        assert code == 3
        from docqa.analysis import load_predictions

        preds = load_predictions(d / "pred.jsonl")
        assert len(preds) == len(bench["qa_records"])
        assert all(p.error is not None for p in preds)

    def test_http_without_endpoint_is_usage_error(self, bench, monkeypatch, capsys):
        monkeypatch.delenv("DOCQA_ENDPOINT", raising=False)
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--budget", 1024, "--out", d / "contexts.jsonl")
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
        header, rows = read_stage_records(paths["evals"])
        assert header["aggregate"] == 100.0
        assert header["dataset"] == "toy"
        assert header["metric"] == "exact_match"
        assert header["n"] == len(bench["qa_records"])
        assert "100.0" in capsys.readouterr().out

    def test_rows_carry_diagnostics(self, bench):
        paths = run_pipeline(bench)
        from docqa.analysis import eval_row_from_record

        _, rows = read_stage_records(paths["evals"])
        parsed = [eval_row_from_record(r) for _, r in rows]
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
        "--orders": ["serialize", "--corpus", bench["corpus"], "--orders", bad, "--budget", 5],
        "--qa": [*predict, "--qa", bad, "--datasets-config", bench["config"],
                 "--backend", "mock-echo"],
        "--datasets-config": [*predict, "--qa", bench["qa"], "--datasets-config", bad,
                              "--backend", "mock-echo"],
        "--config": [*predict, "--qa", bench["qa"], "--datasets-config", bench["config"],
                     "--backend", "http", "--endpoint", "http://127.0.0.1:9/c",
                     "--config", bad],
    }[flag]


class TestBadInputFiles:
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    @pytest.mark.parametrize(
        "flag", ["--corpus", "--orders", "--qa", "--datasets-config", "--config"]
    )
    def test_unreadable_file_exits_2_naming_it(self, bench, capsys, flag, kind):
        paths = run_pipeline(bench)
        bad = bench["dir"] / "bad-input"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'\xff{"doc_id": "x"}\n')
        out = bench["dir"] / "out.jsonl"
        capsys.readouterr()
        assert run(*unreadable_input_argv(flag, bad, bench, paths), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    def test_non_string_doc_id_in_orders_exits_2(self, bench, capsys):
        orders = bench["dir"] / "orders.jsonl"
        write_records(orders, [
            {"doc_id": ["toy-d0"], "strategy": "standard", "permutation": list(range(8))}
        ])
        assert run("serialize", "--corpus", bench["corpus"], "--orders", orders,
                   "--budget", 5, "--out", bench["dir"] / "contexts.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: {orders} line 1: doc_id must be a non-empty string, got ['toy-d0']\n"
        )

    def test_non_string_doc_id_in_contexts_exits_2(self, bench, capsys):
        contexts = bench["dir"] / "contexts.jsonl"
        write_records(contexts, [{"doc_id": ["toy-d0"], "context": "a", "token_count": 1}])
        assert run("predict", "--qa", bench["qa"], "--contexts", contexts,
                   "--dataset", "toy", "--datasets-config", bench["config"],
                   "--backend", "mock-echo", "--out", bench["dir"] / "p.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: {contexts} line 1: doc_id must be a non-empty string, got ['toy-d0']\n"
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
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_defaults_to_the_stage_file_name(self, bench, monkeypatch):
        monkeypatch.chdir(bench["dir"])
        assert run("order", "--corpus", bench["corpus"], "--strategy", "standard") == 0
        assert load_orders(bench["dir"] / "orders.jsonl")

    def test_flag_inventory(self):
        # Every option each subcommand accepts; a new knob must change this table.
        common = ["-h", "--help", "--out", "--seed"]
        datasets = ["--dataset", "--datasets-config"]
        expected = {
            "order": ["--corpus", "--strategy", "--threshold-factor"],
            "serialize": ["--budget", "--corpus", "--orders", *datasets],
            "predict": ["--backend", "--config", "--contexts", *datasets, "--endpoint",
                        "--max-new-tokens", "--no-logprobs", "--parallelism", "--qa"],
            "eval": ["--contexts", *datasets, "--predictions", "--qa"],
            "analyze": ["--eval", "--no-perplexity", "--qa"],
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
        assert run("analyze", "--qa", bench["qa"],
                   "--eval", standard["evals"], "--eval", raster["evals"],
                   "--out", bench["dir"] / "analysis.json") == 2
        assert "non-shuffled" in capsys.readouterr().err

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
            ("strategy", 5, "strategy must be a string or null, got 5"),
            ("aggregate", "12", "aggregate must be a finite number, got '12'"),
            ("aggregate", True, "aggregate must be a finite number, got True"),
            ("aggregate", math.nan, "aggregate must be a finite number, got nan"),
        ],
        ids=["dataset list", "strategy number", "aggregate string", "aggregate bool",
             "aggregate nan"],
    )
    def test_bad_header_value_exits_2(self, bench, capsys, key, value, message):
        paths = run_pipeline(bench)
        header, rows = read_stage_records(paths["evals"])
        write_records(paths["evals"], [{**header, key: value}, *(r for _, r in rows)])
        capsys.readouterr()
        assert run("analyze", "--qa", bench["qa"], "--eval", paths["evals"],
                   "--out", bench["dir"] / "analysis.json") == 2
        assert capsys.readouterr().err == (
            f"error: eval file {paths['evals']} header: {message}\n"
        )

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

    def test_missing_rop_exits_2_unless_skipped(self, bench, capsys):
        d = bench["dir"]
        run("order", "--corpus", bench["corpus"], "--strategy", "standard",
            "--out", d / "orders.jsonl")
        run("serialize", "--corpus", bench["corpus"], "--orders", d / "orders.jsonl",
            "--budget", 1024, "--out", d / "contexts.jsonl")
        run("predict", "--qa", bench["qa"], "--contexts", d / "contexts.jsonl",
            "--dataset", "toy", "--datasets-config", bench["config"],
            "--backend", "mock-echo", "--no-logprobs", "--out", d / "pred.jsonl")
        run("eval", "--qa", bench["qa"], "--predictions", d / "pred.jsonl",
            "--contexts", d / "contexts.jsonl", "--dataset", "toy",
            "--datasets-config", bench["config"], "--out", d / "eval.jsonl")
        out = d / "analysis.json"
        assert run("analyze", "--qa", bench["qa"], "--eval", d / "eval.jsonl",
                   "--out", out) == 2
        assert run("analyze", "--qa", bench["qa"], "--eval", d / "eval.jsonl",
                   "--no-perplexity", "--out", out) == 0
        assert json.loads(out.read_text())["report"]["perplexity"] is None


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
        _, rows = read_stage_records(out)
        draws = [r["dataset"] for _, r in rows]
        share = draws.count("y") / len(draws)
        # Binomial 5 sigma around p = 0.75.
        assert abs(share - 0.75) < 5 * math.sqrt(0.75 * 0.25 / len(draws))

    def test_rows_carry_indices_in_range(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run("sample", "--datasets", "x=10", "--strategy", "uniform",
            "--draws", 50, "--seed", 1, "--out", out)
        _, rows = read_stage_records(out)
        assert all(0 <= r["index"] < 10 for _, r in rows)

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
            header, _ = read_stage_records(tmp_path / sub / "orders.jsonl")
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

    def test_import_loads_no_dataclasses_or_importlib_resources(self):
        # -S keeps site's own imports out of the picture.
        code = ("import sys, docqa.cli; "
                "print(sorted({'dataclasses', 'importlib.resources'} & set(sys.modules)))")
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
