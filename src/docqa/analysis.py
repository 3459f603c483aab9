"""Evaluation rows and diagnostic reports.

Scores predictions against gold answers, splits examples by correctness,
and derives the three diagnostics we lean on when a benchmark number
looks off: perplexity of the generated answer, whether any gold answer
appears verbatim in the serialized context, and how context length
relates to correctness. Records are checked by the *_from_record
parsers, not by the records themselves, which are plain named tuples.

Each eval row is checked field by field by the value rules of
docqa.errors. Prediction tokens are checked in one inline pass per token by
the same rules; only a token that fails goes to token_from_record, which
words the fault. Both loaders' headers, an eval header's `strategy` and
PAIRED_SETTINGS included, are checked through docqa.jsonl, as every stage
header is.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Mapping, NamedTuple, Sequence

from .datasets import DatasetConfig, QARecord
from .errors import (
    FLOAT_MAX, DataError, check_choice, check_int, check_number, check_str, check_type
)
from .jsonl import header_value, read_stage_file
from .metrics import (
    DEFAULT_ANLS_TAU, MetricKind, contains_words, dataset_score, score, word_haystack
)
from .ordering import OrderStrategy
from .serialize import SerializedContext, record_contexts

# Genre questions are multiple-choice over a closed label set, so
# "answer in context" is meaningless only for the book-cover set.
GENRE_FILTERED_DATASETS = frozenset({"ocrvqa"})

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


def token_from_record(record) -> TokenLogProb:
    """A token from a predictions-file or endpoint {"text", "logprob"} object."""
    record = check_type("token", record, dict)
    return TokenLogProb(
        token_text=check_type("token_text", record.get("text"), str),
        logprob=float(check_number("logprob", record.get("logprob"), high=0)),
    )


def completion_tokens(text: str, raw_tokens) -> tuple[TokenLogProb, ...] | None:
    """The tokens of a completion whose text is `text`, from a list of
    {"text", "logprob"} objects or null; the token texts must concatenate
    to `text`. Predictions files and endpoint replies are both read so.

    Each token is checked inline by token_from_record's rules; only a token
    that fails them goes to token_from_record, which words the fault."""
    if check_type("tokens", raw_tokens, list, null=True) is None:
        return None
    tokens: list[TokenLogProb] = []
    pieces: list[str] = []
    for raw in raw_tokens:
        if (
            type(raw) is dict
            and type(piece := raw.get("text")) is str
            and type(logprob := raw.get("logprob")) in (int, float)
            and -FLOAT_MAX <= logprob <= 0
        ):
            token = TokenLogProb(piece, float(logprob))
        else:
            token = token_from_record(raw)
        tokens.append(token)
        pieces.append(token.token_text)
    joined = "".join(pieces)
    if joined != text:
        raise ValueError(f"token pieces {joined!r} do not concatenate to text {text!r}")
    return tuple(tokens)


class EvalRow(NamedTuple):
    """Per-example evaluation result plus the diagnostic inputs: exactly an
    eval-file row."""

    example_id: str
    score: float
    correct: bool
    context_token_len: int
    answer_in_text: bool
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
    # Each context is normalized once, however many questions it carries.
    haystacks: dict[str, str] = {}

    rows: list[EvalRow] = []
    for record, ctx in zip(records, record_contexts(records, contexts)):
        pred = preds_by_id.get(record.example_id)
        if pred is None:
            raise DataError(f"no prediction for example {record.example_id!r}")
        haystack = haystacks.get(ctx.doc_id)
        if haystack is None:
            haystack = haystacks[ctx.doc_id] = word_haystack(ctx.context)
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


def eval_row_from_record(record: Mapping) -> EvalRow:
    """An eval-file row, each field checked by its rule in field order, so
    the first faulty field words the fault."""
    rop = record.get("rop")
    return EvalRow(
        check_str("example_id", record.get("example_id")),
        float(check_number("score", record.get("score"), 0, 1)),
        check_type("correct", record.get("correct"), bool),
        # No context holds more tokens than a str holds characters; past this
        # bound the median's division would overflow a float.
        check_int("context_token_len", record.get("context_token_len"), 0, sys.maxsize),
        check_type("answer_in_text", record.get("answer_in_text"), bool),
        # exp of a non-negative mean, so at least 1.
        None if rop is None else float(check_number("rop", rop, 1)),
    )


def prediction_to_record(pred: Prediction) -> dict:
    if pred.error is not None:
        return {"example_id": pred.example_id, "error": pred.error}
    tokens = None
    if pred.tokens is not None:
        tokens = [{"text": t.token_text, "logprob": t.logprob} for t in pred.tokens]
    return {"example_id": pred.example_id, "text": pred.text, "tokens": tokens}


def prediction_from_record(record: Mapping) -> Prediction:
    example_id = check_str("example_id", record.get("example_id"))
    if "error" in record:
        return Prediction(example_id, "", None, check_str("error", record["error"]))
    text = check_type("text", record.get("text"), str)
    return Prediction(example_id, text, completion_tokens(text, record.get("tokens")))


def load_predictions(path, **needs) -> tuple[dict, list[Prediction]]:
    """Read a predictions file's header, which must hold `needs` and name its
    `backend` and `max_new_tokens`, and predictions."""
    header, rows = read_stage_file(path, "predict", prediction_from_record, "example_id", **needs)
    header_value(path, header, "backend", check_str)
    header_value(path, header, "max_new_tokens", check_int, 1)
    return header, rows


def _row_count(name: str, value, rows: int) -> int:
    """`value` if it is the number of rows, `rows`, of a file that holds any."""
    if check_int(name, value, 1) != rows:
        raise ValueError(f"{name} is {value!r}, but the file holds {rows} rows")
    return value


# The eval settings a shuffled run must share with its reference run, so
# that the score drop between them measures the ordering alone. `logprobs`
# is not one: it changes no answer text, and perplexity is reported for the
# reference run only.
PAIRED_SETTINGS = ("metric", "anls_tau", "backend", "budget", "max_new_tokens")


def load_eval(path) -> tuple[dict, list[EvalRow]]:
    """Read an eval file's header and rows. The header names the `dataset`,
    `strategy` and PAIRED_SETTINGS and counts the rows, at least one, in
    `n`, so a file cut short is refused; every number analyze reports comes
    from the rows."""
    header, rows = read_stage_file(path, "eval", eval_row_from_record, "example_id")
    header_value(path, header, "dataset", check_str)
    # analyze takes any strategy but "shuffled" as the dataset's reference run.
    header_value(path, header, "strategy", check_choice, OrderStrategy)
    header_value(path, header, "metric", check_choice, MetricKind)
    header_value(path, header, "anls_tau", check_number, 0, 1)
    header_value(path, header, "backend", check_str)
    header_value(path, header, "budget", check_int, 1)
    header_value(path, header, "max_new_tokens", check_int, 1)
    header_value(path, header, "n", _row_count, len(rows))
    return header, rows
