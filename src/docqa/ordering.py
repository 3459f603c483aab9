"""Reading-order strategies over OCR documents.

Each strategy turns a Document into a permutation of its word indices:

- standard: pass the provided order through (the corpus flags whether its
  word order is already a human reading order).
- raster_scan: rebuild lines geometrically. Repeatedly take the uppermost,
  leftmost remaining word as the line seed, gather every remaining word whose
  vertical centroid distance to the seed is within line_threshold_factor
  times the seed box height, and emit the gathered line left to right.
  It runs as a sorted-window scan in O(N log N) and is exact. The word
  indices are sorted once by vertical centroid; the sort is stable, so words
  tied on it stay in index order. The seed is then always the remaining word
  with the smallest vertical centroid (the lowest horizontal centroid, then
  index, among those tied on it), and every remaining word lies at or below
  it. The distance to the seed never decreases along the sorted order, so a
  line is exactly the contiguous run that starts at the seed and ends at the
  first word out of tolerance, and the next seed is the word right after that
  run. One exception: a vertical centroid can overflow to +-inf, and a seed
  there lies nan away from the words tied with it, so its line skips them
  and they stay as the next seeds. A line is emitted sorted by index, then
  stably by horizontal centroid. Centroids and the seed height are read from
  the Document's coords array by stride.
- shuffled: a seeded Fisher-Yates pass, the control arm for order ablations.
  Position i swaps with j drawn from random.Random(seed) by rejection: take
  (i + 1).bit_length() random bits from getrandbits, and draw again while the
  value exceeds i. These are the draws randrange(i + 1) makes on CPython
  3.10-3.13, so the permutation rests on this module and the Mersenne Twister
  alone.

All functions are pure over immutable inputs, so ordering a corpus is
embarrassingly parallel across documents. A run orders every document with
one strategy, so an orders file names it once, in its header's `strategy`
(with `threshold_factor` for raster_scan), and each row is only a doc_id and
its permutation. Rows are checked in ReadingOrder.from_record, and each
strategy checks its parameter, both by the value rules of docqa.errors; the
header's `strategy` is checked in load_orders, by check_choice over
OrderStrategy through jsonl.header_value.
"""

from __future__ import annotations

import math
import os
import random
from typing import Any, NamedTuple

from .errors import DataError, check_choice, check_int, check_number, check_str, check_type
from .geometry import Document
from .jsonl import header_value, read_stage_file


OrderStrategy = ("standard", "raster_scan", "shuffled")


class ReadingOrder(NamedTuple):
    """A document's permutation of word indices: exactly an orders-file row.
    The strategy that made it is a fact of the whole run, kept in the orders
    file's header."""

    doc_id: str
    permutation: tuple[int, ...]

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ReadingOrder":
        doc_id = check_str("doc_id", record.get("doc_id"))
        permutation = check_type(f"permutation of doc {doc_id!r}", record.get("permutation"), list)
        for entry in permutation:
            if type(entry) is not int:
                raise ValueError(
                    f"permutation of doc {doc_id!r} holds a non-integer entry {entry!r}"
                )
        # N entries that include every index 0..N-1 hold each exactly once;
        # unlike a sort, this stays linear on a shuffled permutation.
        if not set(permutation).issuperset(range(len(permutation))):
            raise ValueError(f"permutation of doc {doc_id!r} is not a bijection on 0..N-1")
        return cls(doc_id, tuple(permutation))


def standard_order(doc: Document) -> ReadingOrder:
    """Identity permutation for documents whose provided order is a reading order."""
    if not doc.provided_order_is_reading_order:
        raise DataError(f"doc {doc.doc_id!r}: document carries no standard reading order")
    return ReadingOrder(doc.doc_id, tuple(range(len(doc))))


def raster_scan_order(doc: Document, line_threshold_factor: float = 0.5) -> ReadingOrder:
    """Geometric line rebuild; see the module docstring for the loop.

    line_threshold_factor (a finite number > 0) scales the seed box height
    into the vertical tolerance that decides line membership.
    """
    factor = float(check_number("line_threshold_factor", line_threshold_factor, 0, above=True))
    coords = doc.coords
    top = coords[1::4]
    bottom = coords[3::4]
    cy = [(y_min + y_max) / 2.0 for y_min, y_max in zip(top, bottom)]
    cx = [(x_min + x_max) / 2.0 for x_min, x_max in zip(coords[0::4], coords[2::4])]
    # A stable sort, so words tied on cy stay in index order.
    order = sorted(range(len(cy)), key=cy.__getitem__)
    permutation: list[int] = []
    n = len(order)
    start = 0
    while start < n:
        seed_y = cy[order[start]]
        tie_end = start + 1
        while tie_end < n and cy[order[tie_end]] == seed_y:
            tie_end += 1
        if tie_end - start > 1:
            # The seed is the lowest (cx, index) among the words tied at
            # seed_y. Putting the whole tie run in that order also keeps the
            # scan exact when seed_y overflowed to infinity, where the
            # predicate below rejects the seed's own ties.
            order[start:tie_end] = sorted(order[start:tie_end], key=cx.__getitem__)
        seed = order[start]
        tolerance = factor * (bottom[seed] - top[seed])
        # A finite seed_y takes its whole tie run (distance 0). The same
        # predicate as the line definition, not a bisect on
        # seed_y + tolerance: the two can round differently.
        end = tie_end
        while end < n and abs(cy[order[end]] - seed_y) <= tolerance:
            end += 1
        if math.isinf(seed_y):
            # The seed's ties lie nan away from it, so its line skips them;
            # they stay, in order, as the next seeds.
            order[start + 1 : end] = order[tie_end:end] + order[start + 1 : tie_end]
            end -= tie_end - start - 1
        line = order[start:end]
        line.sort()
        line.sort(key=cx.__getitem__)
        permutation += line
        start = end
    return ReadingOrder(doc.doc_id, tuple(permutation))


def shuffled_order(doc: Document, seed: int) -> ReadingOrder:
    """Fisher-Yates shuffle driven by a Mersenne Twister seeded with `seed`.

    The loop and its draw rule (see the module docstring) are spelled out,
    rather than delegated to random.shuffle or randrange, so the permutation
    for a given seed is pinned by this module alone.
    """
    getrandbits = random.Random(check_int("seed", seed, 0)).getrandbits
    permutation = list(range(len(doc)))
    for i in range(len(permutation) - 1, 0, -1):
        # randrange(i + 1) on CPython 3.10-3.13, without its wrapper.
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        permutation[i], permutation[j] = permutation[j], permutation[i]
    return ReadingOrder(doc.doc_id, tuple(permutation))


def load_orders(
    path: str | os.PathLike[str],
) -> tuple[dict[str, Any], list[ReadingOrder]]:
    """Read an orders file's header, which must name its `strategy`, and
    orders; a document may have only one order."""
    header, orders = read_stage_file(path, "order", ReadingOrder.from_record, "doc_id")
    header_value(path, header, "strategy", check_choice, OrderStrategy)
    return header, orders
