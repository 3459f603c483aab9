import json
import math

import pytest

from docqa.datasets import (
    MixtureKind,
    load_dataset_configs,
    load_qa,
    qa_record_from_dict,
    sample_mixture,
)
from docqa.errors import DataError


def write_qa(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


QA_OK = [
    {
        "example_id": "e0",
        "doc_id": "d0",
        "question": "what is the total?",
        "answers": ["42"],
        "flags": [],
    },
    {
        "example_id": "e1",
        "doc_id": "d0",
        "question": "is it due?",
        "answers": ["yes"],
        "flags": ["yes_no"],
    },
]


class TestLoadQA:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(path, QA_OK)
        records = load_qa(path)
        assert len(records) == 2
        assert records[0].answers == ("42",)
        assert records[1].flags == frozenset({"yes_no"})

    def test_flags_default_to_empty(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(path, [{"example_id": "e", "doc_id": "d", "question": "q?", "answers": ["a"]}])
        assert load_qa(path)[0].flags == frozenset()

    def test_records_without_flags_share_one_flags_set(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        rows = [
            {"example_id": "e0", "doc_id": "d", "question": "q?", "answers": ["a"]},
            {"example_id": "e1", "doc_id": "d", "question": "q?", "answers": ["a"], "flags": []},
            QA_OK[0] | {"example_id": "e2"},
            QA_OK[1] | {"example_id": "e3"},
        ]
        write_qa(path, rows)
        records = load_qa(path)
        assert records[0].flags is records[1].flags is records[2].flags
        assert [r.flags for r in records] == [frozenset()] * 3 + [frozenset({"yes_no"})]
        assert isinstance(records[0].flags, frozenset)

    def test_empty_answers_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(path, [{"example_id": "e", "doc_id": "d", "question": "q?", "answers": []}])
        with pytest.raises(DataError, match="answers"):
            load_qa(path)

    def test_unknown_flag_named_in_error(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(
            path,
            [
                {
                    "example_id": "e",
                    "doc_id": "d",
                    "question": "q?",
                    "answers": ["a"],
                    "flags": ["sarcasm"],
                }
            ],
        )
        with pytest.raises(DataError, match="sarcasm"):
            load_qa(path)

    @pytest.mark.parametrize(
        "field, value",
        [("answers", "$120"), ("answers", {"a": 1}), ("flags", "yes_no")],
        ids=["string answers", "object answers", "string flags"],
    )
    def test_answers_and_flags_must_be_lists(self, tmp_path, field, value):
        path = tmp_path / "qa.jsonl"
        write_qa(path, [QA_OK[0], {**QA_OK[1], field: value}])
        with pytest.raises(DataError) as info:
            load_qa(path)
        assert str(info.value) == f"{path} line 2: {field} must be a list, got {value!r}"

    def test_duplicate_example_id_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(path, [QA_OK[0], QA_OK[0]])
        with pytest.raises(DataError, match="e0"):
            load_qa(path)

    def test_empty_question_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(path, [QA_OK[0], {**QA_OK[1], "question": ""}])
        with pytest.raises(DataError) as info:
            load_qa(path)
        assert str(info.value) == f"{path} line 2: question must be a non-empty string"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_qa(path, [{"example_id": "e", "doc_id": "d", "answers": ["a"]}])
        with pytest.raises(DataError, match="question"):
            load_qa(path)


TOY_CONFIG = {"metric": "anls", "context_budget": 64, "target_budget": 8, "anls_tau": 0.5}


class TestDatasetConfigs:
    def test_bundled_defaults(self):
        configs = load_dataset_configs()
        assert set(configs) == {"docvqa", "infovqa", "textvqa", "chartqa", "ai2d", "ocrvqa"}
        assert configs["docvqa"].metric == "anls"
        assert configs["infovqa"].metric == "anls"
        assert configs["textvqa"].metric == "vqa_accuracy"
        assert configs["chartqa"].metric == "relaxed_accuracy"
        assert configs["ai2d"].metric == "exact_match"
        assert configs["ocrvqa"].metric == "exact_match"
        for name, config in configs.items():
            assert config.context_budget == (128 if name == "ocrvqa" else 1024)
            assert config.target_budget == 32
            assert config.anls_tau == 0.5

    def test_custom_config_file(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "datasets": {
                        "toy": {
                            "metric": "exact_match",
                            "context_budget": 64,
                            "target_budget": 8,
                            "anls_tau": 0.5,
                        }
                    },
                }
            )
        )
        configs = load_dataset_configs(path)
        assert configs["toy"].context_budget == 64

    def test_unknown_metric_rejected(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "datasets": {
                        "toy": {
                            "metric": "bleu",
                            "context_budget": 64,
                            "target_budget": 8,
                            "anls_tau": 0.5,
                        }
                    },
                }
            )
        )
        with pytest.raises(DataError, match="bleu"):
            load_dataset_configs(path)

    @pytest.mark.parametrize(
        "datasets, message",
        [
            ({"toy": {**TOY_CONFIG, "anls_tau": "x"}},
             "dataset 'toy': anls_tau must be a number in [0, 1], got 'x'"),
            ({"toy": {**TOY_CONFIG, "anls_tau": True}},
             "dataset 'toy': anls_tau must be a number in [0, 1], got True"),
            ([1], "expected an object with a 'datasets' object"),
            ({"toy": 1}, "dataset 'toy' must be an object, got 1"),
        ],
        ids=["string tau", "bool tau", "datasets not an object", "entry not an object"],
    )
    def test_malformed_config_names_file_and_dataset(self, tmp_path, datasets, message):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"version": 1, "datasets": datasets}))
        with pytest.raises(DataError) as info:
            load_dataset_configs(path)
        assert str(info.value) == f"{path}: {message}"

    def test_invalid_budget_rejected(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"datasets": {"x": {**TOY_CONFIG, "context_budget": 0}}}))
        with pytest.raises(DataError, match="context_budget must be a positive integer, got 0"):
            load_dataset_configs(path)

    def test_invalid_tau_rejected(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"datasets": {"x": {**TOY_CONFIG, "anls_tau": 1.5}}}))
        with pytest.raises(DataError, match=r"anls_tau must be a number in \[0, 1\], got 1.5"):
            load_dataset_configs(path)


def frequencies(samples):
    counts: dict[str, int] = {}
    for name, _ in samples:
        counts[name] = counts.get(name, 0) + 1
    return counts


class TestSampleMixture:
    def test_empty_dataset_list_rejected(self):
        with pytest.raises(DataError):
            sample_mixture([], "uniform", 0, 10)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(DataError):
            sample_mixture([("a", 0)], "uniform", 0, 10)

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_seed_must_be_unsigned_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an unsigned integer"):
            sample_mixture([("a", 1)], "uniform", seed, 10)

    def test_kind_may_be_given_by_value(self):
        datasets = [("a", 3), ("b", 17)]
        assert sample_mixture(datasets, "uniform", 5, 50) == sample_mixture(
            datasets, "uniform", 5, 50
        )
        with pytest.raises(ValueError, match="zigzag"):
            sample_mixture(datasets, "zigzag", 5, 50)

    def test_deterministic_for_seed(self):
        datasets = [("a", 10), ("b", 20)]
        assert sample_mixture(datasets, "normalized", 99, 50) == sample_mixture(
            datasets, "normalized", 99, 50
        )

    def test_indices_always_in_range(self):
        datasets = [("a", 3), ("b", 17)]
        sizes = dict(datasets)
        for kind in MixtureKind:
            samples = sample_mixture(datasets, kind, 5, 500)
            for name, index in samples:
                assert 0 <= index < sizes[name]

    def test_sampling_is_with_replacement(self):
        samples = sample_mixture([("a", 2)], "uniform", 1, 10)
        assert len(samples) == 10

    def test_uniform_halves_between_unequal_datasets(self):
        draws = 20_000
        samples = sample_mixture(
            [("small", 10), ("large", 1000)], "uniform", 7, draws
        )
        counts = frequencies(samples)
        sigma = math.sqrt(draws * 0.5 * 0.5)
        assert abs(counts["small"] - draws * 0.5) <= 5 * sigma

    def test_normalized_follows_size_share(self):
        draws = 20_000
        samples = sample_mixture(
            [("a", 100), ("b", 300)], "normalized", 7, draws
        )
        counts = frequencies(samples)
        sigma = math.sqrt(draws * 0.25 * 0.75)
        assert abs(counts["a"] - draws * 0.25) <= 5 * sigma
        assert abs(counts["b"] - draws * 0.75) <= 5 * sigma

    def test_single_dataset_both_kinds_uniform_over_records(self):
        draws = 12_000
        size = 6
        p = 1.0 / size
        sigma = math.sqrt(draws * p * (1 - p))
        for kind in MixtureKind:
            samples = sample_mixture([("only", size)], kind, 3, draws)
            index_counts = [0] * size
            for _, index in samples:
                index_counts[index] += 1
            for count in index_counts:
                assert abs(count - draws * p) <= 5 * sigma


def test_qa_record_requires_nonempty_answers():
    with pytest.raises(ValueError, match="answers must be a non-empty list of strings"):
        qa_record_from_dict({"example_id": "e", "doc_id": "d", "question": "q", "answers": []})
