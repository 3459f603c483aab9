"""The one place docqa opens a file: JSONL records, JSON config files,
atomic writes of every output, and the corpus cache of validated inputs.

Every stage header is built here alone, by `_header`: `config_digest`, a
digest of the stage, the run seed and the stage's settings; `stage`; the seed
derived for that stage; the settings; then counts computed from the rows. So
a header holds exactly the settings its digest covers, and no path. Stage
files are read only through `read_stage_file`, which rejects a file whose
line 1 is not such a header or names another stage, and checks a header
field a reader uses against the value a run needs (`match_header`), in exact
type and value (19.0 is not 19, true is not 1), or by `header_value` under a
docqa.errors rule. A stage records the `config_digest` of the stage file it
read as its lineage, which the next reader matches: eval needs predictions
made from its contexts. A key no reader uses is ignored. Every loader turns
rows into values through `parse_rows`, which names the file and line of a
bad or repeated row. A file that is missing, cannot be opened (a directory,
say), is not UTF-8 or is not JSON, and an output that cannot be written, is
a DataError naming it.

Every JSON text docqa reads, a JSONL line, a config file or an endpoint
reply, goes through `decode`. It reads what json.loads reads and raises every
fault, too many integer digits and nesting too deep included, as one
ValueError("invalid JSON: <reason>"); a caller prefixes where the text was.
A string whose escapes leave a lone surrogate is a fault too: no UTF-8 file
can hold that string, so no stage could write it.

The corpus cache (`load_cached`) keeps each validated corpus or QA file as
marshal data under `$XDG_CACHE_HOME/docqa/corpus/<key>` (`~/.cache` when
that is unset), keyed by the file's bytes and the source of the modules that
read and check it. An entry is a batch count, then one length-prefixed
marshal list per batch of consecutive values, each batch closed once its
values' marshal data reach about 64 KiB, then a sha256 of everything before
it. An input's sha256 is memoised in `docqa/digests/`, under the file's
device, inode, size, mtime and ctime, once the file has gone 2 s unchanged,
so a hit on such a file does not read it. Any fault of the cache, from an
unwritable directory to a corrupt entry or memo, only means the file is
hashed and parsed as if there were no cache. Stage files are never cached.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import re
import stat
import sys
import time
from contextlib import suppress
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, TypeVar

from . import errors
from .errors import DataError, check_choice, check_str

T = TypeVar("T")

# json.loads is a Python wrapper that skips whitespace around the value
# before and after this same C scan.
_raw_decode = json.JSONDecoder().raw_decode
# What may follow a value that raw_decode read from the start of a text for
# json.loads to read the same value: a line's newline, or nothing.
_LINE_ENDS = ("\n", "")
# json.loads joins an escaped surrogate pair into one character, so a
# surrogate it leaves in a string is a lone one, and only a \ud... or \uD...
# escape can leave one in a text read strictly from bytes.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def decode(text: str | bytes) -> Any:
    """The value json.loads reads from `text`; bytes are decoded strictly, in
    the encoding json.detect_encoding picks."""
    try:
        if isinstance(text, bytes):
            text = text.decode(json.detect_encoding(text))
        try:
            value, end = _raw_decode(text)
        except (ValueError, RecursionError):
            end = 0
        if not end or text[end:] not in _LINE_ENDS:
            value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # json's own wording is advice to the programmer
        raise ValueError("invalid JSON: integer has too many digits") from exc
    except RecursionError as exc:
        raise ValueError("invalid JSON: nested too deeply") from exc
    if _SURROGATE_ESCAPE.search(text) and _holds_surrogate(value):
        raise ValueError("invalid JSON: lone surrogate in a string")
    return value


def _holds_surrogate(value: Any) -> bool:
    """Whether a string anywhere in `value`, a key included, holds a surrogate."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if _SURROGATE.search(item):
                return True
        elif isinstance(item, dict):
            stack += item
            stack += item.values()
        elif isinstance(item, list):
            stack += item
    return False


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
                    record = decode(line)
                except ValueError as exc:
                    if line.isspace():
                        continue
                    raise DataError(f"{path} line {line_no}: {exc}") from exc
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
            return decode(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


# Stage outputs carry a provenance header as their first line, and stage
# readers require it; user-supplied inputs (corpus, QA) never have one.
HEADER_KEY = "config_digest"

# One encoder for every stage line; json.dumps with keywords builds a new one
# per call.
_encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode


def write_atomically(path: str | os.PathLike[str], lines: Iterable[str]) -> None:
    """Write each of `lines`, then a newline, as UTF-8 to a temporary file
    beside `path`, which then replaces it, so a failed write leaves no
    partial file and `path` keeps what it held. A symbolic link is written
    through: the file it points at is replaced and the link stays. A target
    that exists keeps its permission bits (setuid and setgid aside); one
    that is neither a regular file nor a directory (a FIFO or a device, say)
    is refused before anything is written, since the rename would replace
    it. An OSError becomes a DataError naming `path`; any other exception,
    one raised while producing `lines` included, propagates.
    """
    def write(handle) -> None:
        for line in lines:
            handle.write(line)
            handle.write("\n")
        if permissions is not None:
            os.chmod(handle.fileno(), permissions)

    target, permissions = os.path.realpath(path), None
    try:
        with suppress(FileNotFoundError):
            mode = os.stat(target).st_mode
            if stat.S_IFMT(mode) not in (stat.S_IFREG, stat.S_IFDIR):
                raise DataError(f"{path}: cannot write: not a regular file")
            permissions = stat.S_IMODE(mode) & 0o777
        _replace(target, "w", write)
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


def derive_seed(seed: int, stage: str) -> int:
    """Stage-specific seed from the run seed, stable across platforms."""
    digest = hashlib.sha256(f"{seed}/{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def config_digest(settings: dict[str, Any]) -> str:
    """Short fingerprint of a stage's semantic settings."""
    canon = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _header(stage: str, seed: int, settings: dict, counts: dict) -> dict[str, Any]:
    """The header of `stage` for the run seed `seed`: the digest of both and
    `settings`, `stage`, the stage's seed, `settings`, then `counts`, the
    values computed from the rows, which the digest leaves out."""
    return {HEADER_KEY: config_digest({"stage": stage, "seed": seed, **settings}),
            "stage": stage, "seed": derive_seed(seed, stage), **settings, **counts}


def write_stage_file(path: str | os.PathLike[str], stage: str, seed: int,
                     settings: dict[str, Any], records: Iterable[dict[str, Any]],
                     **counts: Any) -> None:
    """Write the header of `stage` (`_header`), then one line per record,
    through write_atomically. A nan or infinite float raises ValueError: no
    stage may write a file that is not JSON."""
    write_atomically(path, map(_encode, chain((_header(stage, seed, settings, counts),), records)))


def write_report(path: str | os.PathLike[str], stage: str, seed: int,
                 settings: dict[str, Any], report: dict[str, Any]) -> None:
    """Write `report` as one indented JSON object with sorted keys, beside
    the header that write_stage_file would give it."""
    payload = {**_header(stage, seed, settings, {}), "report": report}
    write_atomically(path, [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)])


def read_stage_file(path: str | os.PathLike[str], stage: str,
                    parse: Callable[[dict[str, Any]], T], key: str,
                    **needs: Any) -> tuple[dict[str, Any], list[T]]:
    """(header, values) of a stage file whose line 1 must be its provenance
    header; the data rows go through `parse_rows`, then the header's `stage`
    must be `stage`, its `config_digest` a non-empty string, which a later
    stage records as its lineage, and each field of `needs` (the dataset
    this run is for, say) must equal the header's in type and value, so 19.0
    is not 19 and true is not 1. No other header field is read here."""
    records = read_records(path)
    line_no, header = next(records, (0, {}))
    if line_no != 1 or HEADER_KEY not in header:
        raise DataError(f"{path} line 1: expected a stage header carrying {HEADER_KEY!r}")
    values = parse_rows(path, records, parse, key)
    header_value(path, header, "stage", check_choice, (stage,))
    header_value(path, header, HEADER_KEY, check_str)
    match_header(path, header, needs)
    return header, values


def match_header(path: str | os.PathLike[str], header: dict[str, Any],
                 needs: dict[str, Any], wanted: str = "this run needs") -> None:
    """Refuse the header of the stage file `path` unless each field of `needs`
    equals the header's in type and value; the DataError names line 1, the
    header's values and then, after `wanted`, the values needed."""
    found = {name: header.get(name) for name in needs}
    if [(type(v), v) for v in found.values()] != [(type(v), v) for v in needs.values()]:
        has, need = (", ".join(f"{k} {v!r}" for k, v in f.items()) for f in (found, needs))
        raise DataError(f"{path} line 1: header has {has}, {wanted} {need}")


def header_value(path: str | os.PathLike[str], header: dict[str, Any], name: str,
                 rule: Callable[..., T], *args: Any, **options: Any) -> T:
    """`rule(name, header[name], *args, **options)` for the header of the
    stage file `path`; a missing field and a value the rule refuses are a
    DataError naming line 1. A missing field is never read as None: every
    header field docqa reads is one it writes, and none is ever null."""
    if name not in header:
        raise DataError(f"{path} line 1: header is missing {name!r}")
    try:
        return rule(name, header[name], *args, **options)
    except ValueError as exc:
        raise DataError(f"{path} line 1: header {exc}") from None


def parse_rows(
    path: str | os.PathLike[str],
    rows: Iterable[tuple[int, dict[str, Any]]],
    parse: Callable[[dict[str, Any]], T],
    key: str,
) -> list[T]:
    """Apply `parse` to each (line_number, record) and reject repeated keys.

    A ValueError from `parse`, the one exception every parser raises on a
    bad record, and a second value whose attribute `key` was already seen,
    become a DataError naming the file and line. Any other exception is a
    fault of the parser and propagates.
    """
    out: list[T] = []
    seen: set[Any] = set()
    for line_no, record in rows:
        try:
            value = parse(record)
        except ValueError as exc:
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


def _cache_dir(name: str) -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "docqa", name)


def _file_digest(handle) -> bytes:
    digest = hashlib.sha256()
    for chunk in iter(lambda: handle.read(_CHUNK), b""):
        digest.update(chunk)
    return digest.digest()


def _identity(info: os.stat_result) -> tuple[int, int, int, int, int]:
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns, info.st_ctime_ns


# A digest is memoised only for a file last changed this long before hashing
# began (git's racy-clean rule): a later write then moves its ctime, even on
# a filesystem that keeps times in 2 s steps, and utime cannot move it back.
_SETTLE_NS = 2_000_000_000


def _input_digest(handle, identity: tuple[int, ...]) -> bytes:
    """The sha256 of the file open as `handle`, of `_identity` `identity`:
    its memo, else hashed through `handle` and memoised if the file had
    settled and kept its identity while hashed."""
    memo = os.path.join(_cache_dir("digests"), "-".join(map(str, identity)))
    with suppress(OSError), open(memo, "rb") as saved:
        digest = saved.read(_DIGEST_SIZE + 1)
        if len(digest) == _DIGEST_SIZE:
            return digest
    start = time.time_ns()
    digest = _file_digest(handle)
    settled = max(identity[3:]) <= start - _SETTLE_NS  # mtime and ctime
    if settled and identity == _identity(os.fstat(handle.fileno())):
        with suppress(OSError):
            os.makedirs(os.path.dirname(memo), exist_ok=True)
            _replace(memo, "wb", lambda out: out.write(digest))
    return digest


def load_cached(
    path: str | os.PathLike[str],
    source: str,
    parse: Callable[[], list[T]],
    pack: Callable[[T], tuple],
    unpack: Callable[[tuple], T],
) -> list[T]:
    """`parse()`, the values read from the file at `path`, kept in the corpus
    cache under a key that digests that file's bytes (`_input_digest`), the
    module file `source`, the value rules' module (errors.py), this module's
    file, marshal.version and sys.byteorder.

    A hit returns `unpack` of each stored tuple. A miss returns `parse()`,
    whose exceptions propagate, and stores `pack` of each value, in batches
    of about _BATCH_BYTES, as long as the file's `_identity` is the same
    after parsing as before hashing. Only a regular file is cached.
    """
    entry = None
    with suppress(OSError):
        # Checked before the open, which would wait for a pipe's writer.
        if stat.S_ISREG(os.stat(path).st_mode):
            with open(path, "rb") as handle:
                before = _identity(os.fstat(handle.fileno()))
                digest = hashlib.sha256(_input_digest(handle, before))
            for name in (source, errors.__file__, __file__):
                with open(name, "rb") as handle:
                    digest.update(_file_digest(handle))
            digest.update(f"{marshal.version} {sys.byteorder}".encode())
            entry = os.path.join(_cache_dir("corpus"), digest.hexdigest())
    if entry is None:
        return parse()
    values = _read_entry(entry, unpack)
    if values is not None:
        return values
    values = parse()
    with suppress(OSError):
        if _identity(os.stat(path)) == before:
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
