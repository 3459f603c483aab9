"""The one place docqa opens a file: JSONL records, JSON config files,
atomic writes of every output, and the corpus cache of validated inputs.

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
value nested past the recursion limit, or holding an integer longer than
sys.get_int_max_str_digits() allows, is invalid JSON, not a RecursionError or
a bare ValueError.

The corpus cache (`load_cached`) keeps each validated corpus or QA file as
marshal data under `$XDG_CACHE_HOME/docqa/corpus/<key>` (`~/.cache` when
that is unset), keyed by the file's bytes and the source of the modules that
read and check it. An entry is a batch count, then one length-prefixed
marshal list per batch of consecutive values, each batch closed once its
values' marshal data reach about 64 KiB, then a sha256 of everything before
it. Any fault of the cache, from an unwritable directory to a corrupt entry,
only means the file is parsed as if there were no cache. Stage files are
never cached.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import stat
import sys
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
# json raises a bare ValueError, worded for the programmer, for an integer
# with more digits than sys.get_int_max_str_digits() allows.
TOO_LONG = "invalid JSON: integer has too many digits"


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
                    except ValueError as exc:
                        raise DataError(f"{path} line {line_no}: {TOO_LONG}") from exc
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
    except ValueError as exc:
        raise DataError(f"{path}: {TOO_LONG}") from exc
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
    def write(handle) -> None:
        for line in lines:
            handle.write(line)
            handle.write("\n")

    try:
        _replace(path, "w", write)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def _replace(path: str | os.PathLike[str], mode: str, write: Callable[[Any], None]) -> None:
    """Call `write` on a temporary file beside `path` opened in `mode`
    (UTF-8 for text), then rename it over `path`; on any exception remove
    the temporary file and re-raise."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode, encoding=None if "b" in mode else "utf-8") as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):  # a failed open may have left nothing to remove
            os.remove(temporary)
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


_CHUNK = 1 << 20
# An entry holds its values in batches of about this many bytes of marshal
# data: thousands of small values (QA records) unmarshal in a few calls, and
# a large one (a dense page) still gets a batch of its own, so a hit, which
# unmarshals one batch at a time, holds at most 64 KiB plus one value's
# marshal data at once.
_BATCH_BYTES = 64 << 10
_DIGEST_SIZE = hashlib.sha256().digest_size


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "docqa", "corpus")


def _file_digest(path: str | os.PathLike[str]) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.digest()


def _identity(info: os.stat_result) -> tuple[int, int, int]:
    return info.st_size, info.st_mtime_ns, info.st_ino


def load_cached(
    path: str | os.PathLike[str],
    source: str,
    parse: Callable[[], list[T]],
    pack: Callable[[T], tuple],
    unpack: Callable[[tuple], T],
) -> list[T]:
    """`parse()`, the values read from the file at `path`, kept in the corpus
    cache under a key that digests that file's bytes, the module file
    `source`, this module's file, marshal.version and sys.byteorder.

    A hit returns `unpack` of each stored tuple. A miss returns `parse()`,
    whose exceptions propagate, and stores `pack` of each value, in batches
    of about _BATCH_BYTES, as long as the file's size, mtime and inode are
    the same after parsing as before hashing. Only a regular file is cached.
    """
    entry = None
    with suppress(OSError):
        before = os.stat(path)
        if stat.S_ISREG(before.st_mode):
            digest = hashlib.sha256()
            for name in (path, source, __file__):
                digest.update(_file_digest(name))
            digest.update(f"{marshal.version} {sys.byteorder}".encode())
            entry = os.path.join(_cache_dir(), digest.hexdigest())
    if entry is None:
        return parse()
    values = _read_entry(entry, unpack)
    if values is not None:
        return values
    values = parse()
    with suppress(OSError):
        if _identity(os.stat(path)) == _identity(before):
            os.makedirs(os.path.dirname(entry), exist_ok=True)
            _replace(entry, "wb", lambda handle: _write_entry(handle, values, pack))
    return values


def _write_entry(handle, values: list[T], pack: Callable[[T], tuple]) -> None:
    # Where each batch ends: a batch is closed once the marshal data of its
    # values reach _BATCH_BYTES.
    ends = []
    size = 0
    for index, value in enumerate(values, start=1):
        size += len(marshal.dumps(pack(value)))
        if size >= _BATCH_BYTES:
            ends.append(index)
            size = 0
    if size:
        ends.append(len(values))
    digest = hashlib.sha256()

    def put(data: bytes) -> None:
        digest.update(data)
        handle.write(data)

    put(len(ends).to_bytes(8, "little"))
    start = 0
    for end in ends:
        blob = marshal.dumps([pack(value) for value in values[start:end]])
        put(len(blob).to_bytes(8, "little"))
        put(blob)
        start = end
    handle.write(digest.digest())


def _read_entry(entry: str, unpack: Callable[[tuple], T]) -> list[T] | None:
    """The values a cache entry holds, or None when it is missing, short,
    corrupt or undecodable. The checksum is verified before any batch is
    unmarshalled; the batches are then read one at a time."""
    try:
        with open(entry, "rb") as handle:
            end = os.fstat(handle.fileno()).st_size - _DIGEST_SIZE
            digest = hashlib.sha256()
            remaining = end
            while remaining > 0:
                chunk = handle.read(min(_CHUNK, remaining))
                if not chunk:
                    return None
                digest.update(chunk)
                remaining -= len(chunk)
            if end < 8 or handle.read() != digest.digest():
                return None
            handle.seek(0)
            values = []
            for _ in range(int.from_bytes(handle.read(8), "little")):
                size = int.from_bytes(handle.read(8), "little")
                if handle.tell() + size > end:
                    return None
                batch = marshal.loads(handle.read(size))
                if type(batch) is not list:
                    return None
                values += map(unpack, batch)
                # Freed before the next read: a dense page's data kept alive
                # across it raises the peak RSS of a corpus load.
                del batch
            return values if handle.tell() == end else None
    except (OSError, EOFError, ValueError, TypeError):
        return None
