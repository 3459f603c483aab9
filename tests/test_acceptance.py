"""Acceptance gate: one test per release criterion.

Each test enforces its own wall-clock budget; the conftest summary hook
prints one PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import random
import time

import pytest

from conftest import toy_benchmark, write_dataset_config, write_records
from docqa.analysis import (
    EvalRow,
    TokenLogProb,
    answer_presence_report,
    context_length_report,
    reading_order_perplexity,
)
from docqa.cli import main
from docqa.datasets import load_dataset_configs, sample_mixture
from docqa.jsonl import read_records
from docqa.metrics import anls_single, levenshtein, relaxed_accuracy
from docqa.ordering import raster_scan_order
from docqa.datasets import QARecord
from layouts import layout_suite, permuted_copy, raster_oracle, scaled_copy, text_sequence
from oracles import oracle_anls, oracle_levenshtein, random_unicode_string


class Budget:
    """Asserts the criterion ran within its stated wall-clock bound."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        if exc_info[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )


def test_criterion_1_metric_oracle_equivalence():
    with Budget(10):
        rng = random.Random(20240818)
        for _ in range(1000):
            a = random_unicode_string(rng)
            b = random_unicode_string(rng)
            assert levenshtein(a, b) == oracle_levenshtein(a, b)
        for _ in range(500):
            pred = random_unicode_string(rng)
            golds = [random_unicode_string(rng) for _ in range(rng.randint(1, 4))]
            tau = rng.choice([0.0, 0.25, 0.5, 0.875, 1.0])
            assert anls_single(pred, golds, tau=tau) == pytest.approx(
                oracle_anls(pred, golds, tau), abs=1e-12
            )


def test_criterion_2_relaxed_accuracy_boundary():
    with Budget(1):
        assert relaxed_accuracy("105", ["100"]) == 1.0
        assert relaxed_accuracy("106", ["100"]) == 0.0
        table = [
            ("5%", "5", 1.0),
            ("5 %", "5", 1.0),
            ("1,000", "1000", 1.0),
            ("1,050", "1000", 1.0),
            ("-42", "-40", 1.0),
            ("-43", "-40", 0.0),
            (" 3.14 ", "3.14", 1.0),
            ("0", "0", 1.0),
            ("0.001", "0", 0.0),
            ("10%", "0.1", 0.0),  # percent strips the sign, never rescales
            ("blue", "blue", 1.0),
            ("Blue ", "blue", 1.0),
            ("blue", "red", 0.0),
        ]
        for pred, gold, expected in table:
            assert relaxed_accuracy(pred, [gold]) == expected, (pred, gold)


def test_criterion_3_rop_closed_forms():
    with Budget(5):
        def tokens(values):
            return [TokenLogProb(token_text="t", logprob=v) for v in values]

        assert reading_order_perplexity(tokens([0.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert reading_order_perplexity(
            tokens([-math.log(2), -math.log(2)])
        ) == pytest.approx(2.0)
        assert reading_order_perplexity(tokens([-1.0, -1.0, -1.0])) == pytest.approx(
            math.e, abs=1e-9
        )

        rng = random.Random(20240819)
        for _ in range(1000):
            values = [-rng.random() * 8 for _ in range(rng.randint(1, 12))]
            base = reading_order_perplexity(tokens(values))
            shuffled = values[:]
            rng.shuffle(shuffled)
            assert reading_order_perplexity(tokens(shuffled)) == pytest.approx(
                base, rel=1e-9
            )
            other = [-rng.random() * 8 for _ in range(len(values))]
            combined = reading_order_perplexity(tokens(values + other))
            geometric = math.sqrt(base * reading_order_perplexity(tokens(other)))
            assert combined == pytest.approx(geometric, rel=1e-9)


def test_criterion_4_raster_scan_oracle_suite():
    with Budget(10):
        suite = layout_suite(200, seed=20240820)
        assert len(suite) == 200
        for i, doc in enumerate(suite):
            order = raster_scan_order(doc)
            assert list(order.permutation) == raster_oracle(doc), f"layout {i}"
            reference = text_sequence(doc, order.permutation)

            permuted = permuted_copy(doc, seed=i)
            assert text_sequence(
                permuted, raster_scan_order(permuted).permutation
            ) == reference, f"layout {i} input order"

            scaled = scaled_copy(doc, 2.0)
            assert list(raster_scan_order(scaled).permutation) == list(
                order.permutation
            ), f"layout {i} scaling"


def run_stage(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, f"stage failed: {argv}"


def run_toy_pipeline(workdir, corpus, qa, config, dataset, strategy, seed):
    tag = f"{dataset}-{strategy}"
    orders = workdir / f"orders-{tag}.jsonl"
    contexts = workdir / f"contexts-{tag}.jsonl"
    predictions = workdir / f"predictions-{tag}.jsonl"
    evals = workdir / f"eval-{tag}.jsonl"
    run_stage("order", "--corpus", corpus, "--strategy", strategy,
              "--seed", seed, "--out", orders)
    run_stage("serialize", "--corpus", corpus, "--orders", orders,
              "--dataset", dataset, "--datasets-config", config,
              "--seed", seed, "--out", contexts)
    run_stage("predict", "--qa", qa, "--contexts", contexts,
              "--dataset", dataset, "--datasets-config", config,
              "--backend", "mock-answer-key", "--seed", seed, "--out", predictions)
    run_stage("eval", "--qa", qa, "--predictions", predictions,
              "--contexts", contexts, "--dataset", dataset,
              "--datasets-config", config, "--seed", seed, "--out", evals)
    return evals


def build_toy_benchmark_files(workdir, name, n_docs, words_per_doc):
    docs, qa = toy_benchmark(name, n_docs=n_docs, words_per_doc=words_per_doc)
    corpus = workdir / f"corpus-{name}.jsonl"
    qa_path = workdir / f"qa-{name}.jsonl"
    write_records(corpus, docs)
    write_records(qa_path, qa)
    return corpus, qa_path


def test_criterion_5_shuffle_ablation_end_to_end(tmp_path):
    with Budget(30):
        config = write_dataset_config(
            tmp_path / "benchmarks.json", ["toyshort", "toylong"]
        )
        # 20 docs and 40 QA records total, split into a short-context and
        # a long-context half.
        subsets = {"toyshort": 6, "toylong": 40}
        seed = 13
        evals = {}
        for name, words_per_doc in subsets.items():
            corpus, qa = build_toy_benchmark_files(tmp_path, name, 10, words_per_doc)
            for strategy in ("standard", "shuffled"):
                evals[(name, strategy)] = run_toy_pipeline(
                    tmp_path, corpus, qa, config, name, strategy, seed
                )

        aggregates = {}
        for key, path in evals.items():
            _, header = next(read_records(path))
            aggregates[key] = header["aggregate"]
        for name in subsets:
            assert aggregates[(name, "standard")] > aggregates[(name, "shuffled")], name

        out = tmp_path / "analysis.json"
        run_stage("analyze",
                  "--qa", tmp_path / "qa-toyshort.jsonl",
                  "--qa", tmp_path / "qa-toylong.jsonl",
                  "--eval", evals[("toyshort", "standard")],
                  "--eval", evals[("toyshort", "shuffled")],
                  "--eval", evals[("toylong", "standard")],
                  "--eval", evals[("toylong", "shuffled")],
                  "--seed", seed, "--out", out)
        sensitivity = json.loads(out.read_text())["report"]["order_sensitivity"]
        assert [row["dataset"] for row in sensitivity] == ["toyshort", "toylong"]
        deltas = [row["delta"] for row in sensitivity]
        assert all(delta > 0 for delta in deltas)
        assert deltas[1] >= deltas[0]  # longer contexts hurt more when shuffled


def test_criterion_6_analysis_reports_on_fixture():
    with Budget(1):
        def row(example_id, correct, length, in_text):
            return EvalRow(example_id=example_id, score=1.0 if correct else 0.0,
                           correct=correct, context_token_len=length,
                           answer_in_text=in_text)

        rows = [
            row("e1", True, 10, True),
            row("e2", True, 10, False),
            row("e3", True, 20, True),
            row("e4", True, 20, True),
            row("e5", False, 30, True),
            row("e6", False, 30, True),
            row("e7", False, 40, False),
            row("e8", False, 40, False),
        ]
        flags = {"e3": {"yes_no"}, "e4": {"genre"}, "e7": {"yes_no"}, "e8": {"genre"}}
        records = [
            QARecord(example_id=r.example_id, doc_id="d", question="q",
                     answers=("a",), flags=flags.get(r.example_id, set()))
            for r in rows
        ]

        # Lengths [10,20] vs [30,40] around the dataset median of 25.
        assert context_length_report(rows) == (
            pytest.approx(0.6), pytest.approx(1.4)
        )
        # With both filters active: correct half keeps e1/e2, incorrect e5/e6.
        assert answer_presence_report(rows, records, dataset="ocrvqa") == (
            pytest.approx(50.0), pytest.approx(100.0)
        )
        # Outside the genre-filtered set, e4 and e8 come back in.
        assert answer_presence_report(rows, records, dataset="docvqa") == (
            pytest.approx(200 / 3), pytest.approx(200 / 3)
        )


def test_criterion_7_mixture_sampler_frequencies():
    with Budget(5):
        sizes = [("a", 100), ("b", 300)]
        draws = 100_000

        def shares(kind, seed):
            schedule = sample_mixture(sizes, kind, seed, draws)
            count_b = sum(1 for name, _ in schedule if name == "b")
            return count_b / draws

        sigma = math.sqrt(0.25 * 0.75 / draws)
        assert abs(shares("normalized", seed=101) - 0.75) < 5 * sigma
        sigma = math.sqrt(0.5 * 0.5 / draws)
        assert abs(shares("uniform", seed=102) - 0.5) < 5 * sigma


def test_criterion_8_bundled_configuration_snapshot():
    with Budget(1):
        configs = load_dataset_configs()
        assert set(configs) == {
            "docvqa", "infovqa", "textvqa", "chartqa", "ai2d", "ocrvqa"
        }
        metrics = {name: cfg.metric for name, cfg in configs.items()}
        assert metrics == {
            "docvqa": "anls",
            "infovqa": "anls",
            "textvqa": "vqa_accuracy",
            "chartqa": "relaxed_accuracy",
            "ai2d": "exact_match",
            "ocrvqa": "exact_match",
        }
        for name, cfg in configs.items():
            assert cfg.context_budget == (128 if name == "ocrvqa" else 1024), name
            assert cfg.target_budget == 32, name
            assert cfg.anls_tau == 0.5, name


def test_criterion_9_full_pipeline_determinism(tmp_path):
    with Budget(30):
        replicas = []
        for replica in ("one", "two"):
            workdir = tmp_path / replica
            workdir.mkdir()
            config = write_dataset_config(workdir / "benchmarks.json", ["toy"])
            corpus, qa = build_toy_benchmark_files(workdir, "toy", 6, 12)
            outputs = {}
            for strategy in ("standard", "shuffled"):
                evals = run_toy_pipeline(workdir, corpus, qa, config, "toy",
                                         strategy, seed=23)
                tag = f"toy-{strategy}"
                for stem in ("orders", "contexts", "predictions", "eval"):
                    outputs[f"{stem}-{tag}"] = workdir / f"{stem}-{tag}.jsonl"
            analysis = workdir / "analysis.json"
            run_stage("analyze", "--qa", qa,
                      "--eval", workdir / "eval-toy-standard.jsonl",
                      "--eval", workdir / "eval-toy-shuffled.jsonl",
                      "--seed", 23, "--out", analysis)
            outputs["analysis"] = analysis
            replicas.append(outputs)

        first, second = replicas
        assert first.keys() == second.keys()
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes(), key
