"""OCR data model: columnar documents and corpus files.

A Document holds one page's words as two parallel columns in file order:
`texts[k]` is word k's text and `boxes[k]` its box as the tuple
(x_min, y_min, x_max, y_max). Coordinates live in image pixel space with the
origin at the top-left corner and y growing downward. OCR engines emit
fractional pixels, so coordinates are stored as floats; integer inputs are
widened on load. Zero-area boxes are legal (a glyph can collapse at tiny
resolutions); inverted boxes are not.

Every word check lives in `document_from_record`, which validates a corpus
record in a single pass over its `words` array; `_word_fault` only composes
the message for the word that failed. Nothing changes a Document after
construction (its columns are tuples), so it is safe to share across threads.
"""

from __future__ import annotations

import os
import sys
from typing import Any

from .jsonl import parse_rows, read_records

_NUMBER = frozenset({int, float})
# A coordinate is finite iff it lies within +-_LIMIT; NaN fails every bound.
_LIMIT = sys.float_info.max
_COORDINATES = ("x_min", "y_min", "x_max", "y_max")


class Document:
    """All OCR words of one page image, in the order the file provided them.

    provided_order_is_reading_order records whether that order is already a
    human reading order (upstream tools may emit one); the ordering module
    refuses to pass through documents where it is False. len(doc) is the
    word count, which is why this is not a named tuple.
    """

    __slots__ = ("doc_id", "texts", "boxes", "provided_order_is_reading_order")

    def __init__(
        self,
        doc_id: str,
        texts: tuple[str, ...],
        boxes: tuple[tuple[float, float, float, float], ...],
        provided_order_is_reading_order: bool,
    ) -> None:
        self.doc_id = doc_id
        self.texts = texts
        self.boxes = boxes
        self.provided_order_is_reading_order = provided_order_is_reading_order

    def __len__(self) -> int:
        return len(self.texts)


def _word_fault(payload: Any) -> str:
    """The first rule of document_from_record that this word entry breaks."""
    if type(payload) is not dict:
        return "word entry must be an object"
    box = payload.get("box")
    if type(box) is not list or len(box) != 4:
        return f"box must be [x_min, y_min, x_max, y_max], got {box!r}"
    for name, value in zip(_COORDINATES, box):
        if type(value) not in _NUMBER:
            return f"{name} must be a number, got {value!r}"
        if not -_LIMIT <= value <= _LIMIT:
            return f"{name} must be finite, got {value!r}"
    x_min, y_min, x_max, y_max = box
    if x_min > x_max:
        return f"inverted box: x_min {float(x_min)} > x_max {float(x_max)}"
    if y_min > y_max:
        return f"inverted box: y_min {float(y_min)} > y_max {float(y_max)}"
    text = payload.get("text")
    if type(text) is not str or not text:
        return "word text must be a non-empty string"
    return f"word text carries surrounding whitespace: {text!r}"


def document_from_record(record: dict[str, Any]) -> Document:
    """Build a Document from one corpus-file record, validating as it goes.

    Each word must be an object whose `box` is a list of four numbers
    (bools excluded), finite and not inverted, and whose `text` is a
    non-empty string without surrounding whitespace.
    """
    doc_id = record.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("record is missing a doc_id string")
    flag = record.get("reading_ordered")
    if not isinstance(flag, bool):
        raise ValueError("record is missing the reading_ordered boolean")
    raw_words = record.get("words")
    if not isinstance(raw_words, list):
        raise ValueError("record is missing the words array")
    texts: list[str] = []
    boxes: list[tuple[float, float, float, float]] = []
    for payload in raw_words:
        if type(payload) is not dict:
            break
        text = payload.get("text")
        box = payload.get("box")
        if type(box) is not list or len(box) != 4:
            break
        x_min, y_min, x_max, y_max = box
        if not (
            type(x_min) in _NUMBER
            and type(y_min) in _NUMBER
            and type(x_max) in _NUMBER
            and type(y_max) in _NUMBER
            and -_LIMIT <= x_min <= x_max <= _LIMIT
            and -_LIMIT <= y_min <= y_max <= _LIMIT
            and type(text) is str
            and text
            and text.strip() == text
        ):
            break
        texts.append(text)
        boxes.append((float(x_min), float(y_min), float(x_max), float(y_max)))
    else:
        return Document(doc_id, tuple(texts), tuple(boxes), flag)
    position = len(texts)
    raise ValueError(f"doc {doc_id} word {position}: {_word_fault(raw_words[position])}")


def load_ocr_corpus(path: str | os.PathLike[str]) -> list[Document]:
    """Read a corpus file (one document per line) into validated Documents.

    Word order from the file is preserved exactly. Raises DataError naming
    the offending line, document, and word on any schema or invariant
    violation.
    """
    return parse_rows(path, read_records(path), document_from_record, "doc_id")
