"""The one place docqa opens a file: JSONL records, JSON config files, and
atomic writes of every output.

Stage files start with a provenance header line: `config_digest` (a digest
of the stage's semantic settings, run seed included), `stage`, the seed
derived for that stage, then fields specific to the stage. Paths never enter
the digest, so a rerun in another directory writes the same bytes. Stage
files are read only through `read_stage_file`, which rejects a file whose
line 1 is not such a header. Every loader turns rows into values through
`parse_rows`, which names the file and line of a bad or repeated row. A file
that is missing, cannot be opened (a directory, say), is not UTF-8 or is not
JSON, and an output that cannot be written, is a DataError naming it.

A line is decoded by one raw_decode call from its first character, kept
when the value ends the line. Any other line (blank, padded with whitespace,
with data after the value, a BOM, or not JSON) goes through line.strip() and
json.loads, so every line reads as json.loads reads it, faults included. A
value nested past the recursion limit is invalid JSON, not a RecursionError.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import DataError

T = TypeVar("T")

# One decoder for every line: json.loads is a Python wrapper that skips
# whitespace around the value before and after this same C scan.
_decode = json.JSONDecoder().raw_decode
# What may follow a value that raw_decode read from the start of a line for
# json.loads to read the same value: the newline, or nothing on a last line.
_LINE_ENDS = ("\n", "")
_TOO_DEEP = "invalid JSON: nested too deeply"


def read_records(path: str | os.PathLike[str]) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for each non-blank line of a JSONL file.

    Line numbers are 1-based so error messages match what editors show.
    """
    if not os.path.exists(path):
        raise DataError(f"file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                try:
                    record, end = _decode(line)
                except (ValueError, RecursionError):
                    end = 0
                if not end or line[end:] not in _LINE_ENDS:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataError(f"{path} line {line_no}: invalid JSON: {exc.msg}") from exc
                    except RecursionError as exc:
                        raise DataError(f"{path} line {line_no}: {_TOO_DEEP}") from exc
                if not isinstance(record, dict):
                    raise DataError(f"{path} line {line_no}: expected a JSON object")
                yield line_no, record
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc


def read_json(path: str | os.PathLike[str]) -> Any:
    """The JSON value a whole file holds, such as a config file; a fault is a
    DataError worded as read_records words it."""
    if not os.path.exists(path):
        raise DataError(f"file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: {_TOO_DEEP}") from exc


# Stage outputs carry a provenance header as their first line, and stage
# readers require it; user-supplied inputs (corpus, QA) never have one.
HEADER_KEY = "config_digest"

# One encoder for every stage line; json.dumps with keywords builds a new one
# per call.
_encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode


def write_atomically(path: str | os.PathLike[str], lines: Iterable[str]) -> None:
    """Write each of `lines`, then a newline, as UTF-8 to a temporary file
    beside `path`, which then replaces it, so a failed write leaves no
    partial file and `path` keeps what it held. An OSError becomes a
    DataError naming `path`; any other exception, one raised while producing
    `lines` included, propagates.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        os.replace(temporary, path)
    except BaseException as exc:
        with suppress(OSError):  # a failed open may have left nothing to remove
            os.remove(temporary)
        if isinstance(exc, OSError):
            raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc
        raise


def write_stage_file(
    path: str | os.PathLike[str],
    header: dict[str, Any],
    records: Iterable[dict[str, Any]],
) -> None:
    """Write the header line, then one line per record, through
    write_atomically. A nan or infinite float raises ValueError: no stage
    may write a file that is not JSON."""
    if HEADER_KEY not in header:
        raise ValueError(f"stage header must carry {HEADER_KEY!r}")
    write_atomically(path, map(_encode, chain((header,), records)))


def read_stage_file(
    path: str | os.PathLike[str],
    parse: Callable[[dict[str, Any]], T],
    key: str,
) -> tuple[dict[str, Any], list[T]]:
    """(header, values) of a stage file whose line 1 must be its provenance
    header; the data rows go through `parse_rows`."""
    records = read_records(path)
    line_no, header = next(records, (0, {}))
    if line_no != 1 or HEADER_KEY not in header:
        raise DataError(f"{path} line 1: expected a stage header carrying {HEADER_KEY!r}")
    return header, parse_rows(path, records, parse, key)


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
