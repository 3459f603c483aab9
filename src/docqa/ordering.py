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
embarrassingly parallel across documents. Only orders read from a file are
checked, in ReadingOrder.from_record.
"""

from __future__ import annotations

import math
import os
import random
from typing import Any, Mapping, NamedTuple

from .errors import DataError
from .geometry import Document
from .jsonl import read_stage_file


OrderStrategy = ("standard", "raster_scan", "shuffled")


def check_strategy(strategy: Any, where: str) -> None:
    """Refuse a stage header's `strategy` unless it is one of OrderStrategy
    or null (inputs of mixed strategies); the DataError starts with `where`."""
    if strategy is not None and strategy not in OrderStrategy:
        choices = ", ".join(OrderStrategy)
        raise DataError(f"{where} strategy must be one of {choices} or null, got {strategy!r}")


class ReadingOrder(NamedTuple):
    """A permutation of word indices plus the recipe (one of OrderStrategy,
    and its parameters) that produced it."""

    doc_id: str
    permutation: tuple[int, ...]
    strategy: str
    params: Mapping[str, Any]

    def to_record(self) -> dict[str, Any]:
        return {
            "doc_id": self.doc_id,
            "strategy": self.strategy,
            "params": dict(self.params),
            "permutation": list(self.permutation),
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ReadingOrder":
        try:
            doc_id = record["doc_id"]
            permutation = record["permutation"]
            strategy = record["strategy"]
        except KeyError as exc:
            raise ValueError(f"order record is missing {exc.args[0]!r}") from exc
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError(f"doc_id must be a non-empty string, got {doc_id!r}")
        if strategy not in OrderStrategy:
            raise ValueError(f"unknown strategy {strategy!r}, expected one of {OrderStrategy}")
        if type(permutation) is not list:
            raise ValueError(f"permutation of doc {doc_id!r} must be a list, got {permutation!r}")
        for entry in permutation:
            if type(entry) is not int:
                raise ValueError(
                    f"permutation of doc {doc_id!r} holds a non-integer entry {entry!r}"
                )
        params = record.get("params", {})
        if type(params) is not dict:
            raise ValueError(f"params of doc {doc_id!r} must be an object, got {params!r}")
        # N entries that include every index 0..N-1 hold each exactly once;
        # unlike a sort, this stays linear on a shuffled permutation.
        if not set(permutation).issuperset(range(len(permutation))):
            raise ValueError(f"permutation of doc {doc_id!r} is not a bijection on 0..N-1")
        return cls(
            doc_id=doc_id, permutation=tuple(permutation), strategy=strategy, params=dict(params)
        )


def standard_order(doc: Document) -> ReadingOrder:
    """Identity permutation for documents whose provided order is a reading order."""
    if not doc.provided_order_is_reading_order:
        raise DataError(f"doc {doc.doc_id!r}: document carries no standard reading order")
    return ReadingOrder(
        doc_id=doc.doc_id,
        permutation=tuple(range(len(doc))),
        strategy="standard",
        params={},
    )


def raster_scan_order(doc: Document, line_threshold_factor: float = 0.5) -> ReadingOrder:
    """Geometric line rebuild; see the module docstring for the loop.

    line_threshold_factor (a finite number > 0) scales the seed box height
    into the vertical tolerance that decides line membership.
    """
    factor = line_threshold_factor
    # Exact types keep bools out; the chained bounds also reject nan.
    if type(factor) not in (int, float) or not 0 < factor < math.inf:
        raise ValueError(f"line_threshold_factor must be a finite number > 0, got {factor!r}")
    factor = float(factor)
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
    return ReadingOrder(
        doc_id=doc.doc_id,
        permutation=tuple(permutation),
        strategy="raster_scan",
        params={"line_threshold_factor": factor},
    )


def shuffled_order(doc: Document, seed: int) -> ReadingOrder:
    """Fisher-Yates shuffle driven by a Mersenne Twister seeded with `seed`.

    The loop and its draw rule (see the module docstring) are spelled out,
    rather than delegated to random.shuffle or randrange, so the permutation
    for a given seed is pinned by this module alone.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an unsigned integer, got {seed!r}")
    getrandbits = random.Random(seed).getrandbits
    permutation = list(range(len(doc)))
    for i in range(len(permutation) - 1, 0, -1):
        # randrange(i + 1) on CPython 3.10-3.13, without its wrapper.
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        permutation[i], permutation[j] = permutation[j], permutation[i]
    return ReadingOrder(
        doc_id=doc.doc_id,
        permutation=tuple(permutation),
        strategy="shuffled",
        params={"seed": seed},
    )


def load_orders(
    path: str | os.PathLike[str],
) -> tuple[dict[str, Any], list[ReadingOrder]]:
    """Read an orders file's header and orders; a document may have only one order."""
    return read_stage_file(path, ReadingOrder.from_record, "doc_id")
