"""OCR data model: columnar documents and corpus files.

A Document holds one page's words in file order as two columns: `texts[k]`
is word k's text, and `coords` is one float64 array holding every box,
four entries per word, so word k's box (x_min, y_min, x_max, y_max) is
`coords[4*k : 4*k + 4]`. A page's boxes thus cost 32 bytes a word, with no
tuple or float object per coordinate; `coords[1::4]` reads every y_min by
stride. Coordinates live in image pixel space with the origin at the
top-left corner and y growing downward. OCR engines emit fractional pixels,
so coordinates are stored as floats; integer inputs are widened on load,
exactly as float() widens them. Zero-area boxes are legal (a glyph can
collapse at tiny resolutions); inverted boxes are not.

`load_ocr_corpus` keeps each corpus it validated in the corpus cache
(`jsonl.load_cached`), so a corpus that this code already loaded once comes
back from there unparsed.

Every word check lives in `document_from_record`, which validates a corpus
record in a single pass over its `words` array; `_word_fault` only composes
the message for the word that failed, by the value rules of docqa.errors.
Nothing in docqa changes a Document after construction, so it is safe to
share across threads.
"""

from __future__ import annotations

import os
from array import array
from typing import Any

from .errors import FLOAT_MAX, check_number, check_str, check_type
from .jsonl import load_cached, parse_rows, read_records

_NUMBER = frozenset({int, float})
_COORDINATES = ("x_min", "y_min", "x_max", "y_max")


class Document:
    """All OCR words of one page image, in the order the file provided them.

    provided_order_is_reading_order records whether that order is already a
    human reading order (upstream tools may emit one); the ordering module
    refuses to pass through documents where it is False. len(doc) is the
    word count, which is why this is not a named tuple.
    """

    __slots__ = ("doc_id", "texts", "coords", "provided_order_is_reading_order")

    def __init__(
        self,
        doc_id: str,
        texts: tuple[str, ...],
        coords: array,
        provided_order_is_reading_order: bool,
    ) -> None:
        self.doc_id = doc_id
        self.texts = texts
        self.coords = coords
        self.provided_order_is_reading_order = provided_order_is_reading_order

    def __len__(self) -> int:
        return len(self.texts)


def _word_fault(payload: Any) -> str:
    """The first rule of document_from_record that this word entry breaks."""
    try:
        box = check_type("word entry", payload, dict).get("box")
        if type(box) is not list or len(box) != 4:
            return f"box must be [x_min, y_min, x_max, y_max], got {box!r}"
        for name, value in zip(_COORDINATES, box):
            check_number(name, value)
        x_min, y_min, x_max, y_max = box
        if x_min > x_max:
            return f"inverted box: x_min {float(x_min)} > x_max {float(x_max)}"
        if y_min > y_max:
            return f"inverted box: y_min {float(y_min)} > y_max {float(y_max)}"
        text = check_str("word text", payload.get("text"))
    except ValueError as exc:
        return str(exc)
    return f"word text carries surrounding whitespace: {text!r}"


def document_from_record(record: dict[str, Any]) -> Document:
    """Build a Document from one corpus-file record, validating as it goes.

    Each word must be an object whose `box` is a list of four numbers
    (bools excluded), finite and not inverted, and whose `text` is a
    non-empty string without surrounding whitespace.
    """
    doc_id = check_str("doc_id", record.get("doc_id"))
    flag = check_type("reading_ordered", record.get("reading_ordered"), bool)
    raw_words = check_type("words", record.get("words"), list)
    texts: list[str] = []
    coords: list[int | float] = []
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
            and -FLOAT_MAX <= x_min <= x_max <= FLOAT_MAX
            and -FLOAT_MAX <= y_min <= y_max <= FLOAT_MAX
            and type(text) is str
            and text
            and text.strip() == text
        ):
            break
        texts.append(text)
        coords += box
    else:
        # The array widens int coordinates as float() does.
        return Document(doc_id, tuple(texts), array("d", coords), flag)
    position = len(texts)
    raise ValueError(f"doc {doc_id} word {position}: {_word_fault(raw_words[position])}")


def _pack(doc: Document) -> tuple:
    return doc.doc_id, doc.texts, doc.coords.tobytes(), doc.provided_order_is_reading_order


def _unpack(fields: tuple) -> Document:
    doc_id, texts, coords, flag = fields
    boxes = array("d")
    boxes.frombytes(coords)
    return Document(doc_id, texts, boxes, flag)


def load_ocr_corpus(path: str | os.PathLike[str]) -> list[Document]:
    """Read a corpus file (one document per line) into validated Documents,
    from the corpus cache when these bytes were validated before.

    Word order from the file is preserved exactly. Raises DataError naming
    the offending line, document, and word on any schema or invariant
    violation; a corpus that raises is never cached.
    """
    return load_cached(
        path,
        __file__,
        lambda: parse_rows(path, read_records(path), document_from_record, "doc_id"),
        _pack,
        _unpack,
    )
