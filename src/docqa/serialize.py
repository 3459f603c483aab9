"""Context strings, the prompt template, and token budgets.

A context is the document's word texts joined by single spaces in reading
order. The prompt wraps it in the fixed template

    Context: <context> Question: <question> Answer:

and stays byte-identical for identical inputs. A token budget counts
whitespace-separated tokens, so an OCR word with an internal space such as
"new york" counts as two. Budgets are enforced by keeping the longest prefix
of whole words that fits; a word is never split. Contexts files are checked
row by row in `context_from_record`; the records themselves check nothing.
A loaded context carries no word pieces (`pieces` is None), since no stage
that reads a contexts file truncates it; `truncate_context` then splits the
text on single spaces.
"""

from __future__ import annotations

import os
from typing import Any, NamedTuple

from .errors import DataError
from .geometry import Document
from .jsonl import read_stage_file
from .ordering import ReadingOrder


class SerializedContext(NamedTuple):
    """The context string C for one document.

    pieces holds the word texts in serialization order, joined by single
    spaces into text, so truncation can respect word boundaries even when a
    word carries an internal space; it is None for contexts loaded back from
    disk.
    """

    doc_id: str
    text: str
    token_count: int
    pieces: tuple[str, ...] | None


def build_context(doc: Document, order: ReadingOrder) -> SerializedContext:
    """Join word texts in permutation order with single spaces."""
    if order.doc_id != doc.doc_id:
        raise DataError(f"order doc_id {order.doc_id!r} does not match doc {doc.doc_id!r}")
    if len(order.permutation) != len(doc):
        raise DataError(
            f"doc {doc.doc_id!r}: order covers {len(order.permutation)} words, "
            f"document has {len(doc)}"
        )
    pieces = tuple(map(doc.texts.__getitem__, order.permutation))
    text = " ".join(pieces)
    return SerializedContext(
        doc_id=doc.doc_id,
        text=text,
        token_count=len(text.split()),
        pieces=pieces,
    )


def truncate_context(ctx: SerializedContext, budget: int) -> SerializedContext:
    """Longest prefix of whole words whose token count fits the budget.

    Idempotent; an already-fitting context is returned unchanged. When even
    the first word exceeds the budget the context collapses to empty.
    """
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    if ctx.token_count <= budget:
        return ctx
    pieces = ctx.pieces
    if pieces is None:
        pieces = tuple(ctx.text.split(" "))
    # Whitespace counts are additive over pieces, so accumulate directly.
    kept = tokens = 0
    for piece in pieces:
        count = len(piece.split())
        if tokens + count > budget:
            break
        tokens += count
        kept += 1
    pieces = pieces[:kept]
    return ctx._replace(text=" ".join(pieces), token_count=tokens, pieces=pieces)


_CONTEXT_PREFIX = "Context: "
_QUESTION_SEP = " Question: "
_ANSWER_SUFFIX = " Answer:"


class Prompt(NamedTuple):
    """The exact string sent to the model."""

    text: str


def build_prompt(ctx: SerializedContext, question: str) -> Prompt:
    """Apply the template; an empty context leaves a double space, by design.
    Questions are checked non-empty where they enter, in load_qa."""
    return Prompt(f"{_CONTEXT_PREFIX}{ctx.text}{_QUESTION_SEP}{question}{_ANSWER_SUFFIX}")


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
    (ctx.text, question) themselves."""
    if _QUESTION_SEP[1:] not in question:
        return ctx.text, question
    return parse_prompt(build_prompt(ctx, question).text)


def context_to_record(ctx: SerializedContext) -> dict[str, Any]:
    return {"doc_id": ctx.doc_id, "context": ctx.text, "token_count": ctx.token_count}


def context_from_record(record: dict[str, Any]) -> SerializedContext:
    try:
        doc_id = record["doc_id"]
        text = record["context"]
        token_count = record["token_count"]
    except KeyError as exc:
        raise ValueError(f"context record is missing {exc.args[0]!r}") from exc
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError(f"doc_id must be a non-empty string, got {doc_id!r}")
    if not isinstance(text, str):
        raise ValueError(f"context must be a string, got {text!r}")
    if type(token_count) is not int:
        raise ValueError(f"token_count must be an integer, got {token_count!r}")
    words = len(text.split())
    if token_count != words:
        raise ValueError(f"token_count {token_count!r} does not match the context's {words} words")
    return SerializedContext(doc_id=doc_id, text=text, token_count=token_count, pieces=None)


def load_contexts(
    path: str | os.PathLike[str],
) -> tuple[dict[str, Any], list[SerializedContext]]:
    """Read a contexts file's header and contexts."""
    return read_stage_file(path, context_from_record, "doc_id")
