"""Evaluation rows and diagnostic reports.

Scores predictions against gold answers, splits examples by correctness,
and derives the three diagnostics we lean on when a benchmark number
looks off: perplexity of the generated answer, whether any gold answer
appears verbatim in the serialized context, and how context length
relates to correctness. Records are checked by the *_from_record
parsers, not by the records themselves, which are plain named tuples.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Mapping, NamedTuple, Sequence

from .datasets import DatasetConfig, QARecord
from .errors import DataError
from .jsonl import read_stage_file
from .metrics import DEFAULT_ANLS_TAU, contains_words, dataset_score, score, word_haystack
from .ordering import check_strategy
from .serialize import SerializedContext

# Genre questions are multiple-choice over a closed label set, so
# "answer in context" is meaningless only for the book-cover set.
GENRE_FILTERED_DATASETS = frozenset({"ocrvqa"})

_FLOAT_MAX = sys.float_info.max


class TokenLogProb(NamedTuple):
    """One generated token with its log probability (natural log, <= 0)."""

    token_text: str
    logprob: float


class Prediction(NamedTuple):
    """Model output for one example, with tokens when the backend returned them."""

    example_id: str
    text: str
    tokens: tuple[TokenLogProb, ...] | None = None
    error: str | None = None


def token_from_record(record: Mapping) -> TokenLogProb:
    """A token from a predictions-file or endpoint {"text", "logprob"} object."""
    text = record["text"]
    value = record["logprob"]
    if not isinstance(text, str):
        raise ValueError("token_text must be a string")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("logprob must be a number")
    # Bounds before float(), which raises OverflowError on a huge integer;
    # they also reject nan.
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"logprob must be finite, got {value!r}")
    if value > 0:
        raise ValueError(f"logprob must be <= 0, got {value!r}")
    return TokenLogProb(token_text=text, logprob=float(value))


class EvalRow(NamedTuple):
    """Per-example evaluation result plus the diagnostic inputs."""

    example_id: str
    score: float
    correct: bool
    context_token_len: int
    answer_in_text: bool | None = None
    rop: float | None = None


class PerplexityStats(NamedTuple):
    mean_rop_correct: float | None
    mean_rop_incorrect: float | None
    mean_rop_all: float | None
    n_correct: int
    n_incorrect: int


class OrderSensitivityRow(NamedTuple):
    dataset: str
    median_len: float
    delta: float


def reading_order_perplexity(tokens: Sequence[TokenLogProb]) -> float:
    """exp of the mean negative log probability over the given tokens.

    Concatenating two token sequences of equal length yields the
    geometric mean of their individual values, so per-answer numbers
    can be compared across answers of different lengths.
    """
    if len(tokens) == 0:
        raise DataError("perplexity needs at least one token")
    mean_logprob = math.fsum(t.logprob for t in tokens) / len(tokens)
    return math.exp(-mean_logprob)


def is_correct(kind: str, value: float, anls_tau: float = DEFAULT_ANLS_TAU) -> bool:
    """Collapse a per-example score under metric `kind` to a correctness bit.

    Binary metrics require a full score; the graded ones accept partial
    credit (any overlap for VQA, the usual threshold for ANLS).
    """
    if kind == "vqa_accuracy":
        return value > 0.0
    if kind == "anls":
        return value >= anls_tau
    return value >= 1.0


def split_by_correctness(rows: Iterable[EvalRow]) -> tuple[list[EvalRow], list[EvalRow]]:
    correct: list[EvalRow] = []
    incorrect: list[EvalRow] = []
    for r in rows:
        (correct if r.correct else incorrect).append(r)
    return correct, incorrect


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise DataError("mean answer perplexity overflows a float") from None


def zero_shot_perplexity(rows: Sequence[EvalRow]) -> PerplexityStats:
    """Mean answer perplexity over all rows and per correctness set.

    Only rows that have a perplexity count, in the means and in the counts:
    a failed request, an empty completion or a run without logprobs leaves
    none. Means over empty sets are reported as absent rather than zero, so
    a dataset the model aces does not fake a low incorrect-set number.
    """
    correct, incorrect = split_by_correctness(r for r in rows if r.rop is not None)
    return PerplexityStats(
        mean_rop_correct=_mean([r.rop for r in correct]),
        mean_rop_incorrect=_mean([r.rop for r in incorrect]),
        mean_rop_all=_mean([r.rop for r in correct + incorrect]),
        n_correct=len(correct),
        n_incorrect=len(incorrect),
    )


def answer_in_text(answers: Sequence[str], haystack: str) -> bool:
    """True when any gold answer is a span a reader could copy from the
    context whose metrics.word_haystack is `haystack`: a run of whole words,
    both sides normalized (see metrics.contains_words)."""
    if not answers:
        raise DataError("answers must be non-empty")
    return any(contains_words(haystack, a) for a in answers)


def answer_presence_report(
    rows: Sequence[EvalRow],
    records: Iterable[QARecord],
    dataset: str,
) -> tuple[float | None, float | None]:
    """Percentage of examples whose gold answer appears in the context,
    split by correctness.

    Yes/no questions are always excluded (the literal words "yes" and
    "no" say nothing about whether the evidence was serialized); genre
    questions are excluded for the datasets in GENRE_FILTERED_DATASETS.
    Rows whose answer_in_text is unset are skipped.
    """
    by_id = {r.example_id: r for r in records}
    drop_genre = dataset in GENRE_FILTERED_DATASETS
    kept: list[EvalRow] = []
    for r in rows:
        record = by_id.get(r.example_id)
        if record is None:
            raise DataError(f"no QA record for example {r.example_id!r}")
        if "yes_no" in record.flags:
            continue
        if drop_genre and "genre" in record.flags:
            continue
        if r.answer_in_text is None:
            continue
        kept.append(r)

    def pct(subset: list[EvalRow]) -> float | None:
        if not subset:
            return None
        return 100.0 * sum(1 for r in subset if r.answer_in_text) / len(subset)

    correct, incorrect = split_by_correctness(kept)
    return pct(correct), pct(incorrect)


def _median(values: Iterable[int]) -> int | float:
    """The middle value, or the mean of the two middle values for an even
    count. Like statistics.median, an odd count returns the element itself,
    so a median of ints stays an int and is written as one."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def context_length_report(rows: Sequence[EvalRow]) -> tuple[float | None, float | None]:
    """Median context length of each correctness set, normalized by the
    median over all rows."""
    if not rows:
        raise DataError("rows must be non-empty")
    dataset_median = _median(r.context_token_len for r in rows)
    if dataset_median == 0:
        raise DataError("dataset median context length is zero")

    def normalized(subset: list[EvalRow]) -> float | None:
        if not subset:
            return None
        return _median(r.context_token_len for r in subset) / dataset_median

    correct, incorrect = split_by_correctness(rows)
    return normalized(correct), normalized(incorrect)


def order_sensitivity_report(
    reference: Mapping[str, Sequence[EvalRow]],
    shuffled: Mapping[str, Sequence[EvalRow]],
) -> list[OrderSensitivityRow]:
    """Score drop from shuffling word order, one row per dataset with a
    shuffled run: the reference run's dataset_score minus the shuffled
    run's, next to the reference run's median context length. Rows are
    sorted by that median so the length trend reads off directly. Both runs
    must cover the same examples."""
    out: list[OrderSensitivityRow] = []
    for dataset, shuffled_rows in shuffled.items():
        reference_rows = reference.get(dataset)
        if reference_rows is None:
            raise DataError(f"dataset {dataset!r} has a shuffled run but no reference run")
        if {r.example_id for r in reference_rows} != {r.example_id for r in shuffled_rows}:
            raise DataError(
                f"dataset {dataset!r}: the shuffled run covers other examples "
                "than the reference run"
            )
        delta = dataset_score([r.score for r in reference_rows]) - dataset_score(
            [r.score for r in shuffled_rows]
        )
        median_len = _median(r.context_token_len for r in reference_rows)
        out.append(OrderSensitivityRow(dataset=dataset, median_len=median_len, delta=delta))
    out.sort(key=lambda r: (r.median_len, r.dataset))
    return out


def evaluate_rows(
    records: Sequence[QARecord],
    predictions: Sequence[Prediction],
    contexts: Sequence[SerializedContext],
    config: DatasetConfig,
) -> list[EvalRow]:
    """Join records one to one with predictions, and with contexts; score
    each example and attach the diagnostics.

    Predictions that carry an error are scored on their (empty) text so
    one failed request degrades the aggregate instead of aborting the
    run. Perplexity is attached only when tokens came back.
    """
    preds_by_id = {p.example_id: p for p in predictions}
    stray = preds_by_id.keys() - {r.example_id for r in records}
    if stray:
        raise DataError(f"prediction for example {min(stray)!r} has no QA record")
    contexts_by_doc = {c.doc_id: c for c in contexts}
    # Each context is normalized once, however many questions it carries.
    haystacks: dict[str, str] = {}

    rows: list[EvalRow] = []
    for record in records:
        pred = preds_by_id.get(record.example_id)
        if pred is None:
            raise DataError(f"no prediction for example {record.example_id!r}")
        ctx = contexts_by_doc.get(record.doc_id)
        if ctx is None:
            raise DataError(
                f"no context for doc {record.doc_id!r} (example {record.example_id!r})"
            )
        haystack = haystacks.get(ctx.doc_id)
        if haystack is None:
            haystack = haystacks[ctx.doc_id] = word_haystack(ctx.text)
        value = score(config.metric, pred.text, record.answers, anls_tau=config.anls_tau)
        rop = None
        if pred.tokens:
            try:
                rop = reading_order_perplexity(pred.tokens)
            except OverflowError:
                raise DataError(
                    f"example {record.example_id!r}: answer perplexity overflows a float"
                ) from None
        rows.append(
            EvalRow(
                example_id=record.example_id,
                score=value,
                correct=is_correct(config.metric, value, anls_tau=config.anls_tau),
                context_token_len=ctx.token_count,
                answer_in_text=answer_in_text(record.answers, haystack),
                rop=rop,
            )
        )
    return rows


def eval_row_to_record(row: EvalRow) -> dict:
    """The eval-file row: EvalRow's fields, in their order."""
    return row._asdict()


def eval_row_from_record(record: Mapping) -> EvalRow:
    example_id = record.get("example_id")
    if not isinstance(example_id, str) or not example_id:
        raise ValueError("example_id must be a non-empty string")
    score_value = record.get("score")
    if isinstance(score_value, bool) or not isinstance(score_value, (int, float)):
        raise ValueError("score must be a number")
    # The chained bounds also reject nan.
    if not 0.0 <= score_value <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {score_value!r}")
    correct = record.get("correct")
    if not isinstance(correct, bool):
        raise ValueError("correct must be a boolean")
    length = record.get("context_token_len")
    if isinstance(length, bool) or not isinstance(length, int) or length < 0:
        raise ValueError("context_token_len must be a non-negative integer")
    in_text = record.get("answer_in_text")
    if in_text is not None and not isinstance(in_text, bool):
        raise ValueError("answer_in_text must be a boolean or null")
    rop = record.get("rop")
    if rop is not None:
        if isinstance(rop, bool) or not isinstance(rop, (int, float)):
            raise ValueError("rop must be a number or null")
        # exp of a non-negative mean, so at least 1; the bounds also reject
        # nan and an integer too large for a float.
        if not 1.0 <= rop <= _FLOAT_MAX:
            raise ValueError(f"rop must be a finite number >= 1, got {rop!r}")
        rop = float(rop)
    return EvalRow(
        example_id=example_id,
        score=float(score_value),
        correct=correct,
        context_token_len=length,
        answer_in_text=in_text,
        rop=rop,
    )


def prediction_to_record(pred: Prediction) -> dict:
    if pred.error is not None:
        return {"example_id": pred.example_id, "error": pred.error}
    tokens = None
    if pred.tokens is not None:
        tokens = [{"text": t.token_text, "logprob": t.logprob} for t in pred.tokens]
    return {"example_id": pred.example_id, "text": pred.text, "tokens": tokens}


def prediction_from_record(record: Mapping) -> Prediction:
    example_id = record.get("example_id")
    if not isinstance(example_id, str) or not example_id:
        raise ValueError("example_id must be a non-empty string")
    if "error" in record:
        error = record["error"]
        if not isinstance(error, str) or not error:
            raise ValueError("error must be a non-empty string")
        return Prediction(example_id=example_id, text="", tokens=None, error=error)
    text = record.get("text")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    raw_tokens = record.get("tokens")
    tokens = None
    if raw_tokens is not None:
        if not isinstance(raw_tokens, list):
            raise ValueError("tokens must be a list or null")
        tokens = tuple(token_from_record(t) for t in raw_tokens)
    return Prediction(example_id=example_id, text=text, tokens=tokens)


def load_predictions(path) -> tuple[dict, list[Prediction]]:
    """Read a predictions file's header and predictions."""
    return read_stage_file(path, prediction_from_record, "example_id")


def load_eval(path) -> tuple[dict, list[EvalRow]]:
    """Read an eval file's header and rows. The file must hold at least one
    row, and its header must name its `dataset` and `strategy` and count its
    rows in `n`, so a file cut short is refused; its `aggregate` is for
    display only, and every number analyze reports comes from the rows."""
    header, rows = read_stage_file(path, eval_row_from_record, "example_id")
    if not rows:
        raise DataError(f"eval file {path} has no rows")
    for key in ("dataset", "strategy", "n"):
        if key not in header:
            raise DataError(f"eval file {path} header is missing {key!r}")
    dataset, strategy = header["dataset"], header["strategy"]
    where = f"eval file {path} header"
    if not isinstance(dataset, str) or not dataset:
        raise DataError(f"{where}: dataset must be a non-empty string, got {dataset!r}")
    # analyze takes any strategy but "shuffled" as the dataset's reference run.
    check_strategy(strategy, f"{where}:")
    n = header["n"]
    if type(n) is not int or n != len(rows):
        raise DataError(f"{where}: n is {n!r}, but the file holds {len(rows)} rows")
    return header, rows
