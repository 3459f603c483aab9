"""Context strings, the prompt template, and token budgets.

A context is the document's word texts joined by single spaces in reading
order. The prompt wraps it in the fixed template

    Context: <context> Question: <question> Answer:

and stays byte-identical for identical inputs. A token budget counts
whitespace-separated tokens, so an OCR word with an internal space such as
"new york" counts as two. Budgets are enforced by keeping the longest prefix
of whole words that fits; a word is never split. A context is cut while it
is built, so a context loaded from a contexts file equals the one built.
Contexts files are checked row by row in `context_from_record`, by the value
rules of docqa.errors, and their header's `strategy` in load_contexts, as
load_orders checks it; the records themselves check nothing.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .errors import DataError, check_choice, check_int, check_str, check_type
from .geometry import Document
from .jsonl import header_value, read_stage_file
from .ordering import OrderStrategy, ReadingOrder


class SerializedContext(NamedTuple):
    """The context string C for one document: exactly a contexts-file row."""

    doc_id: str
    context: str
    token_count: int


def build_context(doc: Document, order: ReadingOrder, budget: int) -> SerializedContext:
    """Join word texts in permutation order with single spaces, cut to the
    budget by truncate_context."""
    if order.doc_id != doc.doc_id:
        raise DataError(f"order doc_id {order.doc_id!r} does not match doc {doc.doc_id!r}")
    if len(order.permutation) != len(doc):
        raise DataError(
            f"doc {doc.doc_id!r}: order covers {len(order.permutation)} words, "
            f"document has {len(doc)}"
        )
    pieces = tuple(map(doc.texts.__getitem__, order.permutation))
    text = " ".join(pieces)
    return truncate_context(SerializedContext(doc.doc_id, text, len(text.split())), budget, pieces)


def truncate_context(
    ctx: SerializedContext, budget: int, pieces: tuple[str, ...]
) -> SerializedContext:
    """The longest prefix of whole words of `ctx`, whose word texts `pieces`
    join into its context, that fits the budget.

    A context that already fits is returned unchanged. When even the first
    word exceeds the budget the context collapses to empty.
    """
    check_int("budget", budget, 1)
    if ctx.token_count <= budget:
        return ctx
    # Whitespace counts are additive over pieces, so accumulate directly.
    kept = tokens = 0
    for piece in pieces:
        count = len(piece.split())
        if tokens + count > budget:
            break
        tokens += count
        kept += 1
    return ctx._replace(context=" ".join(pieces[:kept]), token_count=tokens)


_CONTEXT_PREFIX = "Context: "
_QUESTION_SEP = " Question: "
_ANSWER_SUFFIX = " Answer:"


class Prompt(NamedTuple):
    """The exact string sent to the model."""

    text: str


def build_prompt(ctx: SerializedContext, question: str) -> Prompt:
    """Apply the template; an empty context leaves a double space, by design.
    Questions are checked non-empty where they enter, in load_qa."""
    return Prompt(f"{_CONTEXT_PREFIX}{ctx.context}{_QUESTION_SEP}{question}{_ANSWER_SUFFIX}")


def parse_prompt(text: str) -> tuple[str, str]:
    """Recover (context, question) from a templated prompt.

    Splits on the last occurrence of the question marker, so a question that
    itself contains the marker cannot be recovered.
    """
    if not text.startswith(_CONTEXT_PREFIX) or not text.endswith(_ANSWER_SUFFIX):
        raise DataError("text does not follow the prompt template")
    inner = text[len(_CONTEXT_PREFIX) : -len(_ANSWER_SUFFIX)]
    marker = inner.rfind(_QUESTION_SEP)
    if marker < 0:
        raise DataError("text does not follow the prompt template")
    return inner[:marker], inner[marker + len(_QUESTION_SEP) :]


def prompt_parts(ctx: SerializedContext, question: str) -> tuple[str, str]:
    """parse_prompt(build_prompt(ctx, question).text), without building the
    prompt when the question cannot move the split: with no "Question: " in
    it, the last question marker is the template's own, so the parts are
    (ctx.context, question) themselves."""
    if _QUESTION_SEP[1:] not in question:
        return ctx.context, question
    return parse_prompt(build_prompt(ctx, question).text)


def context_from_record(record: dict[str, Any]) -> SerializedContext:
    doc_id = check_str("doc_id", record.get("doc_id"))
    context = check_type("context", record.get("context"), str)
    token_count = check_int("token_count", record.get("token_count"))
    words = len(context.split())
    if token_count != words:
        raise ValueError(f"token_count {token_count!r} does not match the context's {words} words")
    return SerializedContext(doc_id, context, token_count)


def load_contexts(path, **needs) -> tuple[dict[str, Any], list[SerializedContext]]:
    """Read a contexts file's header, which must hold `needs` and name its
    `strategy`, and contexts."""
    header, contexts = read_stage_file(path, "serialize", context_from_record, "doc_id", **needs)
    header_value(path, header, "strategy", check_choice, OrderStrategy)
    return header, contexts


def record_contexts(records, contexts: list[SerializedContext]) -> list[SerializedContext]:
    """The context of each QA record's document, in the records' order."""
    by_doc = {ctx.doc_id: ctx for ctx in contexts}
    for r in records:
        if r.doc_id not in by_doc:
            raise DataError(f"no context for doc {r.doc_id!r} (example {r.example_id!r})")
    return [by_doc[r.doc_id] for r in records]
