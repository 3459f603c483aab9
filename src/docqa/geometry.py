"""OCR data model: bounding boxes, words, documents, and corpus files.

Coordinates live in image pixel space with the origin at the top-left corner
and y growing downward. OCR engines emit fractional pixels, so coordinates are
stored as floats; integer inputs are widened on construction. Zero-area boxes
are legal (a glyph can collapse at tiny resolutions); inverted boxes are not.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .jsonl import parse_rows, read_records, write_records


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in pixel space."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.x_min > self.x_max:
            raise ValueError(f"inverted box: x_min {self.x_min} > x_max {self.x_max}")
        if self.y_min > self.y_max:
            raise ValueError(f"inverted box: y_min {self.y_min} > y_max {self.y_max}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def centroid_x(self) -> float:
        return (self.x_min + self.x_max) / 2.0

    @property
    def centroid_y(self) -> float:
        return (self.y_min + self.y_max) / 2.0

    def centroid(self) -> tuple[float, float]:
        """Midpoint of the box; always lies inside it."""
        return (self.centroid_x, self.centroid_y)


@dataclass(frozen=True)
class Word:
    """One OCR token: its ordinal within the document, text, and box."""

    index: int
    text: str
    box: BoundingBox

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
            raise ValueError(f"word index must be a non-negative integer, got {self.index!r}")
        if not isinstance(self.text, str) or not self.text:
            raise ValueError("word text must be a non-empty string")
        if self.text != self.text.strip():
            raise ValueError(f"word text carries surrounding whitespace: {self.text!r}")


@dataclass(frozen=True)
class Document:
    """All OCR words of one page image, in the order the file provided them.

    provided_order_is_reading_order records whether that order is already a
    human reading order (upstream tools may emit one); the ordering module
    refuses to pass through documents where it is False.
    """

    doc_id: str
    words: tuple[Word, ...] = field(default_factory=tuple)
    provided_order_is_reading_order: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise ValueError("doc_id must be a non-empty string")
        object.__setattr__(self, "words", tuple(self.words))
        indices = [w.index for w in self.words]
        if indices != list(range(len(indices))):
            raise ValueError(f"word indices must be 0..N-1 in order, got {indices}")

    def __len__(self) -> int:
        return len(self.words)


def _word_from_record(position: int, payload: Any) -> Word:
    if not isinstance(payload, dict):
        raise ValueError("word entry must be an object")
    text = payload.get("text")
    box = payload.get("box")
    if not isinstance(box, (list, tuple)) or len(box) != 4:
        raise ValueError(f"box must be [x_min, y_min, x_max, y_max], got {box!r}")
    return Word(index=position, text=text, box=BoundingBox(*box))


def document_from_record(record: dict[str, Any]) -> Document:
    """Build a Document from one corpus-file record, validating as it goes."""
    doc_id = record.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("record is missing a doc_id string")
    flag = record.get("reading_ordered")
    if not isinstance(flag, bool):
        raise ValueError("record is missing the reading_ordered boolean")
    raw_words = record.get("words")
    if not isinstance(raw_words, list):
        raise ValueError("record is missing the words array")
    words = []
    for position, payload in enumerate(raw_words):
        try:
            words.append(_word_from_record(position, payload))
        except ValueError as exc:
            raise ValueError(f"doc {doc_id} word {position}: {exc}") from exc
    return Document(doc_id=doc_id, words=words, provided_order_is_reading_order=flag)


def document_to_record(doc: Document) -> dict[str, Any]:
    return {
        "doc_id": doc.doc_id,
        "reading_ordered": doc.provided_order_is_reading_order,
        "words": [
            {"text": w.text, "box": [w.box.x_min, w.box.y_min, w.box.x_max, w.box.y_max]}
            for w in doc.words
        ],
    }


def load_ocr_corpus(path: str | os.PathLike[str]) -> list[Document]:
    """Read a corpus file (one document per line) into validated Documents.

    Word order from the file is preserved exactly; word indices are assigned
    by position. Raises DataError naming the offending line, document, and
    word on any schema or invariant violation.
    """
    return parse_rows(path, read_records(path), document_from_record, "doc_id")


def save_ocr_corpus(path: str | os.PathLike[str], docs: Iterable[Document]) -> None:
    write_records(path, (document_to_record(d) for d in docs))


def corpus_by_id(docs: Sequence[Document]) -> dict[str, Document]:
    return {doc.doc_id: doc for doc in docs}
