import math
import random

import pytest

from docqa.analysis import (
    EvalRow,
    Prediction,
    TokenLogProb,
    answer_in_text,
    answer_presence_report,
    context_length_report,
    evaluate_rows,
    is_correct,
    load_predictions,
    order_sensitivity_report,
    prediction_to_record,
    reading_order_perplexity,
    split_by_correctness,
    token_from_record,
    zero_shot_perplexity,
)
from docqa.datasets import DatasetConfig, QARecord
from docqa.errors import DataError
from docqa.jsonl import write_stage_file
from docqa.metrics import word_haystack
from docqa.serialize import SerializedContext


def lp(*values):
    return [TokenLogProb(token_text=f"t{i}", logprob=v) for i, v in enumerate(values)]


def row(example_id, score=1.0, correct=True, length=10, in_text=True, rop=None):
    return EvalRow(
        example_id=example_id,
        score=score,
        correct=correct,
        context_token_len=length,
        answer_in_text=in_text,
        rop=rop,
    )


class TestTokenLogProb:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match="logprob must be <= 0"):
            token_from_record({"text": "t", "logprob": 0.01})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="logprob must be finite"):
            token_from_record({"text": "t", "logprob": float("-inf")})
        with pytest.raises(ValueError, match="logprob must be finite"):
            token_from_record({"text": "t", "logprob": -(10**400)})

    def test_zero_is_legal(self):
        assert token_from_record({"text": "t", "logprob": 0}) == TokenLogProb("t", 0.0)


class TestReadingOrderPerplexity:
    def test_certain_tokens_give_one(self):
        assert reading_order_perplexity(lp(0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_half_probability_tokens_give_two(self):
        assert reading_order_perplexity(lp(-math.log(2), -math.log(2))) == pytest.approx(2.0)

    def test_unit_nll_gives_e(self):
        assert reading_order_perplexity(lp(-1.0, -1.0, -1.0)) == pytest.approx(
            math.e, abs=1e-9
        )

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            reading_order_perplexity([])

    def test_always_at_least_one(self):
        rng = random.Random(0)
        for _ in range(50):
            tokens = lp(*(-rng.random() * 5 for _ in range(rng.randint(1, 6))))
            assert reading_order_perplexity(tokens) >= 1.0

    def test_permutation_invariant(self):
        rng = random.Random(1)
        values = [-rng.random() for _ in range(7)]
        tokens = lp(*values)
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        assert reading_order_perplexity(shuffled) == pytest.approx(
            reading_order_perplexity(tokens), abs=1e-9
        )

    def test_concatenation_is_geometric_mean(self):
        rng = random.Random(2)
        a = lp(*(-rng.random() for _ in range(5)))
        b = lp(*(-rng.random() for _ in range(5)))
        combined = reading_order_perplexity(a + b)
        expected = math.sqrt(reading_order_perplexity(a) * reading_order_perplexity(b))
        assert combined == pytest.approx(expected, abs=1e-9)


class TestCorrectnessRule:
    @pytest.mark.parametrize(
        "kind, value, expected",
        [
            ("exact_match", 1.0, True),
            ("exact_match", 0.0, False),
            ("relaxed_accuracy", 1.0, True),
            ("relaxed_accuracy", 0.0, False),
            ("vqa_accuracy", 1 / 3, True),
            ("vqa_accuracy", 0.0, False),
            ("anls", 0.5, True),
            ("anls", 0.49, False),
        ],
    )
    def test_rule_table(self, kind, value, expected):
        assert is_correct(kind, value, anls_tau=0.5) is expected

    def test_anls_threshold_follows_tau(self):
        assert is_correct("anls", 0.3, anls_tau=0.25)
        assert not is_correct("anls", 0.3, anls_tau=0.35)

    def test_graded_metrics_named_by_plain_strings(self):
        assert is_correct("anls", 0.6)
        assert is_correct("vqa_accuracy", 1 / 3)


class TestSplitByCorrectness:
    def test_all_correct(self):
        rows = [row("a"), row("b")]
        correct, incorrect = split_by_correctness(rows)
        assert len(correct) == 2
        assert incorrect == []

    def test_anls_rows_split_by_tau(self):
        scores = [0.8, 0.4]
        rows = [
            row(f"e{i}", score=s, correct=is_correct("anls", s, anls_tau=0.5))
            for i, s in enumerate(scores)
        ]
        correct, incorrect = split_by_correctness(rows)
        assert [r.example_id for r in correct] == ["e0"]
        assert [r.example_id for r in incorrect] == ["e1"]

    def test_empty_input(self):
        assert split_by_correctness([]) == ([], [])

    def test_partitions(self):
        rng = random.Random(3)
        rows = [row(f"e{i}", correct=rng.random() < 0.5) for i in range(20)]
        correct, incorrect = split_by_correctness(rows)
        assert len(correct) + len(incorrect) == len(rows)
        assert {r.example_id for r in correct}.isdisjoint(r.example_id for r in incorrect)


class TestZeroShotPerplexity:
    def test_all_correct_leaves_incorrect_absent(self):
        rows = [row("a", rop=1.0), row("b", rop=3.0)]
        stats = zero_shot_perplexity(rows)
        assert stats.mean_rop_correct == pytest.approx(2.0)
        assert stats.mean_rop_incorrect is None
        assert stats.mean_rop_all == pytest.approx(2.0)
        assert (stats.n_correct, stats.n_incorrect) == (2, 0)

    def test_means_by_set(self):
        rows = [row("a", rop=2.0), row("b", correct=False, rop=4.0)]
        stats = zero_shot_perplexity(rows)
        assert stats.mean_rop_correct == pytest.approx(2.0)
        assert stats.mean_rop_incorrect == pytest.approx(4.0)
        assert stats.mean_rop_all == pytest.approx(3.0)

    def test_permutation_invariant(self):
        rows = [row(f"e{i}", correct=i % 2 == 0, rop=float(i + 1)) for i in range(6)]
        stats_forward = zero_shot_perplexity(rows)
        stats_reversed = zero_shot_perplexity(list(reversed(rows)))
        assert stats_forward == stats_reversed

    def test_rows_without_rop_are_left_out(self):
        rows = [row("a", rop=2.0), row("b", rop=None),
                row("c", correct=False, rop=4.0), row("d", correct=False, rop=None)]
        stats = zero_shot_perplexity(rows)
        assert stats.mean_rop_correct == pytest.approx(2.0)
        assert stats.mean_rop_incorrect == pytest.approx(4.0)
        assert stats.mean_rop_all == pytest.approx(3.0)
        assert (stats.n_correct, stats.n_incorrect) == (1, 1)

    def test_no_rop_anywhere_gives_null_means_and_zero_counts(self):
        stats = zero_shot_perplexity([row("a", rop=None), row("b", correct=False)])
        assert stats == (None, None, None, 0, 0)


class TestAnswerInText:
    def test_substring_found(self):
        assert answer_in_text(["42"], word_haystack("the total is 42 dollars")) is True

    def test_absent(self):
        assert answer_in_text(["43"], word_haystack("the total is 42 dollars")) is False

    def test_case_folds_through_normalization(self):
        assert answer_in_text(["Total"], word_haystack("total due")) is True

    def test_whitespace_collapses(self):
        assert answer_in_text(["new york"], word_haystack("flights to new\nyork today")) is True

    def test_any_gold_counts(self):
        assert answer_in_text(["zzz", "due"], word_haystack("total due")) is True

    def test_part_of_a_word_is_not_found(self):
        assert answer_in_text(["2024"], word_haystack("ref 2024-1")) is False
        assert answer_in_text(["1"], word_haystack("$120")) is False

    def test_empty_gold_is_not_found(self):
        assert answer_in_text([""], word_haystack("x")) is False

    def test_multi_word_gold_across_collapsed_whitespace(self):
        assert answer_in_text(["New York"], word_haystack("in new  york city")) is True

    def test_empty_answers_rejected(self):
        with pytest.raises(DataError):
            answer_in_text([], word_haystack("context"))


def presence_fixture():
    """Eight rows: four correct (lengths 10,10,20,20), four incorrect
    (30,30,40,40); one yes/no and one genre flag in each half."""
    rows = [
        row("e1", length=10, in_text=True),
        row("e2", length=10, in_text=False),
        row("e3", length=20, in_text=True),   # yes_no, filtered
        row("e4", length=20, in_text=True),   # genre, filtered for ocrvqa
        row("e5", correct=False, score=0.0, length=30, in_text=True),
        row("e6", correct=False, score=0.0, length=30, in_text=True),
        row("e7", correct=False, score=0.0, length=40, in_text=False),  # yes_no
        row("e8", correct=False, score=0.0, length=40, in_text=False),  # genre
    ]
    records = [
        QARecord(example_id="e1", doc_id="d1", question="q1", answers=("a",)),
        QARecord(example_id="e2", doc_id="d2", question="q2", answers=("a",)),
        QARecord(example_id="e3", doc_id="d3", question="q3", answers=("a",), flags={"yes_no"}),
        QARecord(example_id="e4", doc_id="d4", question="q4", answers=("a",), flags={"genre"}),
        QARecord(example_id="e5", doc_id="d5", question="q5", answers=("a",)),
        QARecord(example_id="e6", doc_id="d6", question="q6", answers=("a",)),
        QARecord(example_id="e7", doc_id="d7", question="q7", answers=("a",), flags={"yes_no"}),
        QARecord(example_id="e8", doc_id="d8", question="q8", answers=("a",), flags={"genre"}),
    ]
    return rows, records


class TestAnswerPresenceReport:
    def test_hand_computed_percentages_with_ocrvqa_filters(self):
        rows, records = presence_fixture()
        # ocrvqa drops yes_no and genre: correct set keeps e1 (in) and e2
        # (out) for 50%, incorrect keeps e5 and e6 (both in) for 100%.
        pct_correct, pct_incorrect = answer_presence_report(rows, records, dataset="ocrvqa")
        assert pct_correct == pytest.approx(50.0)
        assert pct_incorrect == pytest.approx(100.0)

    def test_genre_kept_outside_ocrvqa(self):
        rows, records = presence_fixture()
        # Only yes_no drops: correct keeps e1, e2, e4 (2 of 3 in text);
        # incorrect keeps e5, e6, e8 (2 of 3 in text).
        pct_correct, pct_incorrect = answer_presence_report(rows, records, dataset="docvqa")
        assert pct_correct == pytest.approx(200 / 3)
        assert pct_incorrect == pytest.approx(200 / 3)

    def test_all_yes_no_gives_absent_percentages(self):
        rows = [row("e1"), row("e2", correct=False, score=0.0)]
        records = [
            QARecord(example_id="e1", doc_id="d", question="q", answers=("a",), flags={"yes_no"}),
            QARecord(example_id="e2", doc_id="d", question="q", answers=("a",), flags={"yes_no"}),
        ]
        assert answer_presence_report(rows, records, dataset="docvqa") == (None, None)

    def test_join_failure_names_example(self):
        rows = [row("ghost")]
        with pytest.raises(DataError, match="ghost"):
            answer_presence_report(rows, [], dataset="docvqa")

    def test_not_applicable_rows_are_skipped(self):
        rows = [row("e1", in_text=None), row("e2", in_text=True)]
        records = [
            QARecord(example_id="e1", doc_id="d", question="q", answers=("a",)),
            QARecord(example_id="e2", doc_id="d", question="q", answers=("a",)),
        ]
        pct_correct, pct_incorrect = answer_presence_report(rows, records, dataset="docvqa")
        assert pct_correct == pytest.approx(100.0)
        assert pct_incorrect is None


class TestContextLengthReport:
    def test_hand_computed_normalized_medians(self):
        rows = [
            row("e1", length=10),
            row("e2", length=20),
            row("e3", correct=False, score=0.0, length=30),
            row("e4", correct=False, score=0.0, length=40),
        ]
        # Dataset median of [10,20,30,40] is 25; set medians 15 and 35.
        norm_correct, norm_incorrect = context_length_report(rows)
        assert norm_correct == pytest.approx(0.6)
        assert norm_incorrect == pytest.approx(1.4)

    def test_constant_lengths(self):
        rows = [row("e1", length=7), row("e2", correct=False, score=0.0, length=7)]
        assert context_length_report(rows) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_single_correct_row_at_dataset_median(self):
        rows = [row("e1", length=25)]
        norm_correct, norm_incorrect = context_length_report(rows)
        assert norm_correct == pytest.approx(1.0)
        assert norm_incorrect is None

    def test_zero_dataset_median_rejected(self):
        rows = [row("e1", length=0), row("e2", length=0)]
        with pytest.raises(DataError, match="median"):
            context_length_report(rows)

    def test_empty_rows_rejected(self):
        with pytest.raises(DataError):
            context_length_report([])


class TestOrderSensitivityReport:
    def test_delta_and_sort(self):
        reference = {
            "big": [row("b0", score=1.0, length=800), row("b1", score=0.5, length=1000)],
            "small": [row("s0", score=0.5, length=40)],
            "unshuffled": [row("u0")],
        }
        shuffled = {
            "big": [row("b1", score=0.5, length=5), row("b0", score=0.5, length=5)],
            "small": [row("s0", score=0.5, length=5)],
        }
        rows = order_sensitivity_report(reference, shuffled)
        # Medians come from the reference run; a dataset without a shuffled
        # run gets no row.
        assert [(r.dataset, r.median_len) for r in rows] == [("small", 40), ("big", 900)]
        assert rows[0].delta == 0.0
        assert rows[1].delta == pytest.approx(25.0)

    def test_missing_strategy_rejected(self):
        with pytest.raises(DataError, match="'d' has a shuffled run but no reference run"):
            order_sensitivity_report({"other": [row("e0")]}, {"d": [row("e0")]})

    def test_runs_over_different_examples_rejected(self):
        reference = {"d": [row("e0"), row("e1")]}
        for shuffled_rows in ([row("e0")], [row("e0"), row("e2")]):
            with pytest.raises(DataError, match="dataset 'd': the shuffled run covers other"):
                order_sensitivity_report(reference, {"d": shuffled_rows})


class TestEvaluateRows:
    def make_inputs(self):
        records = [
            QARecord(example_id="e0", doc_id="d0", question="total?", answers=("42",)),
            QARecord(example_id="e1", doc_id="d0", question="city?", answers=("paris",)),
        ]
        predictions = [
            Prediction(example_id="e0", text="42", tokens=tuple(lp(-math.log(2), -math.log(2)))),
            Prediction(example_id="e1", text="london", tokens=None),
        ]
        contexts = [
            SerializedContext(
                doc_id="d0",
                text="total 42 due in paris",
                token_count=5,
                pieces=("total", "42", "due", "in", "paris"),
            )
        ]
        config = DatasetConfig(
            name="toy",
            metric="exact_match",
            context_budget=1024,
            target_budget=32,
            anls_tau=0.5,
        )
        return records, predictions, contexts, config

    def test_rows_carry_scores_flags_and_diagnostics(self):
        records, predictions, contexts, config = self.make_inputs()
        rows = evaluate_rows(records, predictions, contexts, config)
        assert [r.example_id for r in rows] == ["e0", "e1"]
        assert rows[0].score == 1.0 and rows[0].correct
        assert rows[1].score == 0.0 and not rows[1].correct
        assert rows[0].context_token_len == 5
        assert rows[0].answer_in_text is True
        assert rows[1].answer_in_text is True  # gold "paris" sits in the context
        assert rows[0].rop == pytest.approx(2.0)
        assert rows[1].rop is None

    def test_missing_prediction_names_example(self):
        records, predictions, contexts, config = self.make_inputs()
        with pytest.raises(DataError, match="e1"):
            evaluate_rows(records, predictions[:1], contexts, config)

    def test_stray_prediction_names_example(self):
        records, predictions, contexts, config = self.make_inputs()
        with pytest.raises(DataError, match="e1"):
            evaluate_rows(records[:1], predictions, contexts, config)

    def test_missing_context_names_doc(self):
        records, predictions, contexts, config = self.make_inputs()
        with pytest.raises(DataError, match="d0"):
            evaluate_rows(records, predictions, [], config)

    def test_errored_prediction_scores_as_empty_text(self):
        records, predictions, contexts, config = self.make_inputs()
        predictions[0] = Prediction(example_id="e0", text="", tokens=None, error="boom")
        rows = evaluate_rows(records, predictions, contexts, config)
        assert rows[0].score == 0.0


class TestEvalRowRecords:
    def test_round_trip(self):
        from docqa.analysis import eval_row_from_record, eval_row_to_record

        rows = [
            row("e0", score=0.5, correct=False, length=12, in_text=True, rop=2.5),
            row("e1", in_text=None, rop=None),
        ]
        for r in rows:
            assert eval_row_from_record(eval_row_to_record(r)) == r

    def test_bad_fields_rejected(self):
        from docqa.analysis import eval_row_from_record

        good = {
            "example_id": "e",
            "score": 1.0,
            "correct": True,
            "context_token_len": 3,
            "answer_in_text": None,
            "rop": None,
        }
        for key, bad in [
            ("example_id", ""),
            ("score", "1"),
            ("correct", 1),
            ("context_token_len", -1),
            ("answer_in_text", "yes"),
            ("rop", "2"),
            ("score", -7),
            ("score", 1.5),
            ("score", math.nan),
            ("rop", 0.5),
            ("rop", math.nan),
            ("rop", math.inf),
            ("rop", 10**400),
        ]:
            with pytest.raises(ValueError):
                eval_row_from_record({**good, key: bad})


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        predictions = [
            Prediction(example_id="e0", text="a b", tokens=tuple(lp(-0.5, -0.25))),
            Prediction(example_id="e1", text="c", tokens=None),
            Prediction(example_id="e2", text="", tokens=None, error="timed out"),
        ]
        write_stage_file(
            path, {"config_digest": "0"}, (prediction_to_record(p) for p in predictions)
        )
        assert load_predictions(path) == ({"config_digest": "0"}, predictions)

    def test_duplicate_example_id_rejected(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        rows = [{"example_id": "e", "text": "a", "tokens": None},
                {"example_id": "e", "text": "b", "tokens": None}]
        write_stage_file(path, {"config_digest": "0"}, rows)
        with pytest.raises(DataError, match=r" line 3: duplicate example_id 'e'$"):
            load_predictions(path)
