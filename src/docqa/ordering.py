"""Reading-order strategies over OCR documents.

Each strategy turns a Document into a permutation of its word indices:

- standard: pass the provided order through (the corpus flags whether its
  word order is already a human reading order).
- raster_scan: rebuild lines geometrically. Repeatedly take the uppermost,
  leftmost remaining word as the line seed, gather every remaining word whose
  vertical centroid distance to the seed is within line_threshold_factor
  times the seed box height, and emit the gathered line left to right.
  It runs as a sorted-window scan in O(N log N) and is exact: the words are
  sorted once by (centroid_y, centroid_x, index), so the seed is always the
  remaining word with the smallest centroid_y and every remaining word lies
  at or below it. The distance to the seed then never decreases along the
  sorted order, so a line is exactly the contiguous run that starts at the
  seed and ends at the first word out of tolerance, and the next seed is the
  word right after that run.
- shuffled: a seeded Fisher-Yates pass, the control arm for order ablations.

All functions are pure over immutable inputs, so ordering a corpus is
embarrassingly parallel across documents. Only orders read from a file are
checked, in ReadingOrder.from_record.
"""

from __future__ import annotations

import math
import os
import random
from operator import itemgetter
from typing import Any, Mapping, NamedTuple

from .errors import DataError
from .geometry import Document
from .jsonl import parse_rows, read_stage_records


OrderStrategy = ("standard", "raster_scan", "shuffled")


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
        permutation = tuple(permutation)
        for entry in permutation:
            if type(entry) is not int:
                raise ValueError(
                    f"permutation of doc {doc_id!r} holds a non-integer entry {entry!r}"
                )
        params = dict(record.get("params", {}))
        if sorted(permutation) != list(range(len(permutation))):
            raise ValueError(f"permutation of doc {doc_id!r} is not a bijection on 0..N-1")
        return cls(doc_id=doc_id, permutation=permutation, strategy=strategy, params=params)


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
    # "Uppermost and leftmost" as a lexicographic key; the index breaks exact
    # centroid ties so the result never depends on input order. The height
    # rides along and is never compared, since indices are unique.
    keyed = sorted(
        ((y_min + y_max) / 2.0, (x_min + x_max) / 2.0, index, y_max - y_min)
        for index, (x_min, y_min, x_max, y_max) in enumerate(doc.boxes)
    )
    permutation: list[int] = []
    start = 0
    while start < len(keyed):
        seed_y, _, _, seed_height = keyed[start]
        tolerance = factor * seed_height
        end = start + 1
        # The same predicate as the line definition, not a bisect on
        # seed_y + tolerance: the two can round differently.
        while end < len(keyed) and abs(keyed[end][0] - seed_y) <= tolerance:
            end += 1
        line = sorted(keyed[start:end], key=itemgetter(1, 2))
        permutation.extend(key[2] for key in line)
        start = end
    return ReadingOrder(
        doc_id=doc.doc_id,
        permutation=tuple(permutation),
        strategy="raster_scan",
        params={"line_threshold_factor": factor},
    )


def shuffled_order(doc: Document, seed: int) -> ReadingOrder:
    """Fisher-Yates shuffle driven by a Mersenne Twister seeded with `seed`.

    The loop is spelled out (rather than delegated to random.shuffle) so the
    permutation for a given seed is pinned by this module alone.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an unsigned integer, got {seed!r}")
    rng = random.Random(seed)
    permutation = list(range(len(doc)))
    for i in range(len(permutation) - 1, 0, -1):
        j = rng.randrange(i + 1)
        permutation[i], permutation[j] = permutation[j], permutation[i]
    return ReadingOrder(
        doc_id=doc.doc_id,
        permutation=tuple(permutation),
        strategy="shuffled",
        params={"seed": seed},
    )


def load_orders(path: str | os.PathLike[str]) -> list[ReadingOrder]:
    """Read an orders file, skipping a provenance header if one is present;
    a document may have only one order."""
    _, rows = read_stage_records(path)
    return parse_rows(path, rows, ReadingOrder.from_record, "doc_id")
