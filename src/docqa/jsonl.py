"""Newline-delimited JSON helpers used by every file-facing module.

Stage files start with a provenance header line: `config_digest` (a digest
of the stage's semantic settings, run seed included), `stage`, the seed
derived for that stage, then fields specific to the stage. Paths never enter
the digest, so a rerun in another directory writes the same bytes. Every
loader turns rows into values through `parse_rows`, which names the file and
line of a bad or repeated row. A file that is missing, cannot be opened (a
directory, say) or is not UTF-8 is a DataError naming it.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import DataError

T = TypeVar("T")


def read_records(path: str | os.PathLike[str]) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for each non-blank line of a JSONL file.

    Line numbers are 1-based so error messages match what editors show.
    """
    if not os.path.exists(path):
        raise DataError(f"file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path} line {line_no}: invalid JSON: {exc.msg}") from exc
                if not isinstance(record, dict):
                    raise DataError(f"{path} line {line_no}: expected a JSON object")
                yield line_no, record
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc


def write_records(path: str | os.PathLike[str], records: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


# Stage outputs carry a provenance header as their first line. Readers of
# stage files skip it; user-supplied inputs (corpus, QA) never have one.
HEADER_KEY = "config_digest"


def write_stage_file(
    path: str | os.PathLike[str],
    header: dict[str, Any],
    records: Iterable[dict[str, Any]],
) -> None:
    """Write the header line, then one line per record. A nan or infinite
    float raises ValueError: no stage may write a file that is not JSON."""
    if HEADER_KEY not in header:
        raise ValueError(f"stage header must carry {HEADER_KEY!r}")
    with open(path, "w", encoding="utf-8") as handle:
        for record in chain((header,), records):
            handle.write(json.dumps(record, ensure_ascii=False, allow_nan=False))
            handle.write("\n")


def read_stage_records(
    path: str | os.PathLike[str],
) -> tuple[dict[str, Any] | None, list[tuple[int, dict[str, Any]]]]:
    """Split a JSONL file into (header or None, data rows with line numbers)."""
    header: dict[str, Any] | None = None
    rows: list[tuple[int, dict[str, Any]]] = []
    for line_no, record in read_records(path):
        if line_no == 1 and HEADER_KEY in record:
            header = record
            continue
        rows.append((line_no, record))
    return header, rows


def read_header(path: str | os.PathLike[str]) -> dict[str, Any] | None:
    """The provenance header of a stage file, or None; reads line 1 only."""
    with closing(read_records(path)) as records:
        for line_no, record in records:
            return record if line_no == 1 and HEADER_KEY in record else None
    return None


def parse_rows(
    path: str | os.PathLike[str],
    rows: Iterable[tuple[int, dict[str, Any]]],
    parse: Callable[[dict[str, Any]], T],
    key: str,
) -> list[T]:
    """Apply `parse` to each (line_number, record) and reject repeated keys.

    A ValueError, KeyError or TypeError from `parse`, and a second value
    whose attribute `key` was already seen, become a DataError naming the
    file and line.
    """
    out: list[T] = []
    seen: set[Any] = set()
    for line_no, record in rows:
        try:
            value = parse(record)
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path} line {line_no}: {exc}") from exc
        ident = getattr(value, key)
        if ident in seen:
            raise DataError(f"{path} line {line_no}: duplicate {key} {ident!r}")
        seen.add(ident)
        out.append(value)
    return out
