"""Synthetic page layouts and an independent line-grouping oracle.

The oracle re-states the raster-scan contract with plain loops so the tests
never share code with the implementation under test: repeatedly find the
uppermost-leftmost remaining word, collect every remaining word whose vertical
centroid distance to that seed is within factor * seed-box-height, emit the
group left to right, remove it, repeat.

Every document here is built from a corpus record through
`document_from_record`, so it passes the same checks as a corpus file.
"""

from __future__ import annotations

import random

from docqa.geometry import Document, document_from_record


def corpus_record(doc_id, texts, boxes, reading_ordered=False) -> dict:
    """One corpus-file line: word k has texts[k] and boxes[k]."""
    return {
        "doc_id": doc_id,
        "reading_ordered": reading_ordered,
        "words": [
            {"text": text, "box": list(box)} for text, box in zip(texts, boxes, strict=True)
        ],
    }


def make_document(doc_id, texts, boxes, reading_ordered=False) -> Document:
    return document_from_record(corpus_record(doc_id, texts, boxes, reading_ordered))


def word_boxes(doc: Document) -> tuple[tuple[float, float, float, float], ...]:
    """Each word's (x_min, y_min, x_max, y_max), read from `doc.coords`."""
    c = doc.coords
    return tuple(zip(c[0::4], c[1::4], c[2::4], c[3::4]))


def raster_oracle(doc: Document, factor: float = 0.5) -> list[int]:
    boxes = word_boxes(doc)

    def centroid_key(index):
        x_min, y_min, x_max, y_max = boxes[index]
        return ((y_min + y_max) / 2.0, (x_min + x_max) / 2.0, index)

    def height(index):
        return boxes[index][3] - boxes[index][1]

    remaining = list(range(len(doc)))
    emitted: list[int] = []
    while remaining:
        seed = remaining[0]
        for word in remaining[1:]:
            if centroid_key(word) < centroid_key(seed):
                seed = word
        tolerance = factor * height(seed)
        seed_y = centroid_key(seed)[0]
        # The seed always joins its own line: a center that overflowed to
        # +-inf lies nan away from itself.
        line = [
            word
            for word in remaining
            if word == seed or abs(centroid_key(word)[0] - seed_y) <= tolerance
        ]
        line.sort(key=lambda word: centroid_key(word)[1:])
        emitted.extend(line)
        line_ids = set(line)
        remaining = [word for word in remaining if word not in line_ids]
    return emitted


def _doc(doc_id: str, boxes: list[tuple[float, float, float, float]]) -> Document:
    return make_document(doc_id, [f"w{i:03d}" for i in range(len(boxes))], boxes)


def grid_layout(doc_id: str, rows: int, cols: int, *, x_gap: float = 4.0, y_gap: float = 6.0,
                width: float = 10.0, height: float = 4.0) -> Document:
    boxes = []
    for r in range(rows):
        for c in range(cols):
            x = c * (width + x_gap)
            y = r * (height + y_gap)
            boxes.append((x, y, x + width, y + height))
    return _doc(doc_id, boxes)


def staircase_layout(doc_id: str, steps: int, *, dx: float = 12.0, dy: float = 9.0,
                     width: float = 10.0, height: float = 4.0) -> Document:
    boxes = []
    for i in range(steps):
        x = i * dx
        y = i * dy
        boxes.append((x, y, x + width, y + height))
    return _doc(doc_id, boxes)


def two_column_layout(doc_id: str, rows: int, *, aligned: bool = True, column_gap: float = 80.0,
                      width: float = 10.0, height: float = 4.0, y_gap: float = 8.0) -> Document:
    # Aligned rows put both columns on the same baseline, so a raster pass
    # merges them into single lines; the offset variant staggers the right
    # column by more than the line tolerance.
    boxes = []
    offset = 0.0 if aligned else (height + y_gap) / 2.0 + height
    for r in range(rows):
        y = r * (height + y_gap)
        boxes.append((0.0, y, width, y + height))
    for r in range(rows):
        y = r * (height + y_gap) + offset
        boxes.append((column_gap, y, column_gap + width, y + height))
    return _doc(doc_id, boxes)


def layout_suite(count: int, seed: int = 20240817) -> list[Document]:
    """Deterministic mix of grids, staircases, and two-column pages."""
    rng = random.Random(seed)
    docs: list[Document] = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            docs.append(
                grid_layout(
                    f"grid-{i}",
                    rows=rng.randint(1, 6),
                    cols=rng.randint(1, 6),
                    x_gap=rng.uniform(2.0, 8.0),
                    y_gap=rng.uniform(4.0, 10.0),
                )
            )
        elif kind == 1:
            docs.append(
                staircase_layout(
                    f"stair-{i}",
                    steps=rng.randint(1, 10),
                    dx=rng.uniform(8.0, 16.0),
                    dy=rng.uniform(6.0, 12.0),
                )
            )
        else:
            docs.append(
                two_column_layout(
                    f"cols-{i}",
                    rows=rng.randint(1, 6),
                    aligned=rng.random() < 0.5,
                )
            )
    return docs


def permuted_copy(doc: Document, seed: int) -> Document:
    """Same geometry and texts, word array in a new order."""
    order = list(range(len(doc)))
    random.Random(seed).shuffle(order)
    boxes = word_boxes(doc)
    return make_document(
        doc.doc_id,
        [doc.texts[j] for j in order],
        [boxes[j] for j in order],
        doc.provided_order_is_reading_order,
    )


def scaled_copy(doc: Document, factor: float) -> Document:
    return make_document(
        doc.doc_id,
        doc.texts,
        [tuple(coordinate * factor for coordinate in box) for box in word_boxes(doc)],
        doc.provided_order_is_reading_order,
    )


def text_sequence(doc: Document, permutation: list[int] | tuple[int, ...]) -> list[str]:
    return [doc.texts[i] for i in permutation]
