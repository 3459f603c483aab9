"""The corpus cache behind `geometry.load_ocr_corpus` and `datasets.load_qa`.

A hit must give the values a parse gives; an input that fails to load, an
entry or digest memo that is short or corrupt, a cache directory that cannot
be made, and a corpus rewritten while it is parsed or after its digest was
memoised must each give what a run without the cache gives. Every test
starts from the empty cache `conftest.corpus_cache`.
"""

import hashlib
import json
import marshal
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import write_records
from docqa import datasets, geometry, jsonl
from docqa.cli import main
from docqa.datasets import NO_FLAGS, load_qa
from docqa.geometry import load_ocr_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CORPUS = GOLDEN / "input" / "corpus.jsonl"

# Int coordinates (widened to float on load), a -0.0, zero-area boxes (a
# point and a line), an empty page and a page that is not reading-ordered.
EDGE_RECORDS = [
    {"doc_id": "ints", "reading_ordered": True, "words": [
        {"text": "a", "box": [0, 0, 10, 5]},
        {"text": "b", "box": [-0.0, 2, 3, 2]},
        {"text": "ü", "box": [4.5, 4.5, 4.5, 4.5]},
    ]},
    {"doc_id": "empty", "reading_ordered": False, "words": []},
    {"doc_id": "floats", "reading_ordered": False, "words": [
        {"text": "x y", "box": [1e-300, -0.0, 1.5e300, 0.0]},
    ]},
]


def fields(docs):
    """Everything a Document holds; coords as bytes, so -0.0 differs from 0.0."""
    return [
        (doc.doc_id, type(doc.texts), doc.texts, doc.coords.typecode, doc.coords.tobytes(),
         doc.provided_order_is_reading_order)
        for doc in docs
    ]


def entries(cache):
    return sorted(cache.iterdir()) if cache.exists() else []


@pytest.fixture
def edge_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_records(path, EDGE_RECORDS)
    return path


def refuse_to_parse(path):
    """Stands in for read_records where the load has to be a hit."""
    raise AssertionError(f"{path} was parsed")


@pytest.mark.parametrize("corpus", ["golden", "edge cases"])
def test_a_hit_gives_what_a_parse_gives(corpus_cache, edge_corpus, monkeypatch, corpus):
    path = GOLDEN_CORPUS if corpus == "golden" else edge_corpus
    parsed = fields(load_ocr_corpus(path))
    assert len(entries(corpus_cache)) == 1
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "read_records", refuse_to_parse)
        assert fields(load_ocr_corpus(path)) == parsed


@pytest.mark.parametrize("line, message", [
    ('{"doc_id": "d1", "reading_ordered": true, "words": [{"text": "w", "box": [5, 0, 3, 1]}]}',
     "line 2: doc d1 word 0: inverted box: x_min 5.0 > x_max 3.0"),
    ('{"doc_id": "d0", "reading_ordered": true, "words": []}', "line 2: duplicate doc_id 'd0'"),
    ('{"doc_id": ' + "1" * 5000 + "}", "line 2: invalid JSON: integer has too many digits"),
    # Taken and cached, then the orders file could not be written: a
    # UnicodeEncodeError traceback.
    ('{"doc_id": "d\\ud800", "reading_ordered": true, '
     '"words": [{"text": "a", "box": [0, 0, 1, 1]}]}',
     "line 2: invalid JSON: lone surrogate in a string"),
], ids=["inverted box", "duplicate doc_id", "integer too long", "lone surrogate"])
def test_a_faulty_corpus_is_never_cached(tmp_path, capsys, corpus_cache, line, message):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"doc_id": "d0", "reading_ordered": true, "words": []}\n' + line + "\n")
    argv = ["order", "--corpus", str(corpus), "--strategy", "standard",
            "--out", str(tmp_path / "orders.jsonl")]
    for _ in range(2):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {corpus} {message}\n"
        assert entries(corpus_cache) == []


@pytest.mark.parametrize("damage", ["empty", "corrupted", "truncated at a document"])
def test_a_faulty_entry_is_parsed_past_and_rewritten(corpus_cache, monkeypatch, damage):
    parsed = fields(load_ocr_corpus(GOLDEN_CORPUS))
    (entry,) = entries(corpus_cache)
    good = entry.read_bytes()
    if damage == "empty":
        entry.write_bytes(b"")
    elif damage == "corrupted":
        # Still an entry marshal decodes, naming another document.
        assert good.count(b"invoice-a") == 1
        entry.write_bytes(good.replace(b"invoice-a", b"invoice-z"))
    else:
        # The batch count, then the first batch's length and blob.
        first = 16 + int.from_bytes(good[8:16], "little")
        entry.write_bytes(good[:first])
    calls = []
    read_records = geometry.read_records
    monkeypatch.setattr(geometry, "read_records", lambda p: calls.append(p) or read_records(p))
    assert fields(load_ocr_corpus(GOLDEN_CORPUS)) == parsed
    assert calls == [GOLDEN_CORPUS]
    assert entries(corpus_cache) == [entry] and entry.read_bytes() == good


def test_a_cache_location_that_is_a_file_changes_nothing(tmp_path, monkeypatch, capsys):
    home = tmp_path / "home"
    home.mkdir()
    (home / "cache").write_text("not a directory\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / "cache"))
    out = tmp_path / "out"
    out.mkdir()
    config = ("--dataset", "golden", "--datasets-config", GOLDEN / "input" / "benchmarks.json")
    for _ in range(2):
        assert main(["order", "--corpus", str(GOLDEN_CORPUS), "--strategy", "raster_scan",
                     "--seed", "7", "--out", str(out / "orders-raster_scan.jsonl")]) == 0
        assert main(["serialize", "--corpus", str(GOLDEN_CORPUS),
                     "--orders", str(out / "orders-raster_scan.jsonl"),
                     *map(str, config), "--seed", "7",
                     "--out", str(out / "contexts-raster_scan.jsonl")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("orders-raster_scan.jsonl", "contexts-raster_scan.jsonl"):
        assert (out / name).read_bytes() == (GOLDEN / "expected" / name).read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [
        "contexts-raster_scan.jsonl", "orders-raster_scan.jsonl"]
    assert [p.name for p in home.iterdir()] == ["cache"]


def test_a_corpus_rewritten_while_parsed_is_not_stored(tmp_path, corpus_cache, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    original = GOLDEN_CORPUS.read_bytes()
    path.write_bytes(original)
    rewritten = json.dumps(EDGE_RECORDS[0]).encode() + b"\n"
    read_records = geometry.read_records

    def rewrite_then_read(p):
        # Runs after the cache hashed `original`, before the parse reads.
        path.write_bytes(rewritten)
        return read_records(p)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "read_records", rewrite_then_read)
        assert [doc.doc_id for doc in load_ocr_corpus(path)] == ["ints"]
    assert entries(corpus_cache) == []
    path.write_bytes(original)
    assert fields(load_ocr_corpus(path)) == fields(load_ocr_corpus(GOLDEN_CORPUS))
    assert [doc.doc_id for doc in load_ocr_corpus(path)] == ["invoice-a", "invoice-b", "memo-c"]


def rewrite_in_place(path, data):
    """Write `data` over the start of `path`, then put its atime and mtime
    back, as `rsync --inplace -t` or `touch -r` leave a file: the same size,
    inode and mtime. On a filesystem with coarse timestamps a write in the
    clock tick of the last change keeps ctime too, so the write is repeated
    until ctime moves."""
    before = os.stat(path)
    while os.stat(path).st_ctime_ns == before.st_ctime_ns:
        with open(path, "r+b") as handle:
            handle.write(data)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_ino, after.st_mtime_ns) == (
        before.st_size, before.st_ino, before.st_mtime_ns)


def test_a_corpus_rewritten_in_place_while_parsed_is_not_stored(tmp_path, corpus_cache,
                                                               monkeypatch):
    path = tmp_path / "corpus.jsonl"
    original = GOLDEN_CORPUS.read_bytes()
    path.write_bytes(original)
    read_records = geometry.read_records

    def rewrite_then_read(p):
        rewrite_in_place(path, original.replace(b"INVOICE", b"ZZZZZZZ"))
        return read_records(p)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "read_records", rewrite_then_read)
        assert "ZZZZZZZ" in load_ocr_corpus(path)[0].texts
    assert entries(corpus_cache) == []
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(original)
    assert "INVOICE" in load_ocr_corpus(copy)[0].texts


def memos(cache):
    return entries(cache.parent / "digests")


def hashes_of(path, monkeypatch):
    """A list that gains `path` each time the cache hashes that file."""
    hashed = []
    file_digest = jsonl._file_digest

    def spy(handle):
        if Path(handle.name) == path:
            hashed.append(path)
        return file_digest(handle)

    monkeypatch.setattr(jsonl, "_file_digest", spy)
    return hashed


@pytest.fixture
def settled(monkeypatch):
    """Every input counts as settled, however recently it was written."""
    monkeypatch.setattr(jsonl, "_SETTLE_NS", 0)


def test_a_settled_input_is_not_hashed_again(edge_corpus, corpus_cache, monkeypatch, settled):
    parsed = fields(load_ocr_corpus(edge_corpus))
    (memo,) = memos(corpus_cache)
    info = edge_corpus.stat()
    assert memo.name == (f"{info.st_dev}-{info.st_ino}-{info.st_size}-"
                         f"{info.st_mtime_ns}-{info.st_ctime_ns}")
    assert memo.read_bytes() == hashlib.sha256(edge_corpus.read_bytes()).digest()
    hashed = hashes_of(edge_corpus, monkeypatch)
    monkeypatch.setattr(geometry, "read_records", refuse_to_parse)
    assert fields(load_ocr_corpus(edge_corpus)) == parsed
    assert hashed == []
    assert memos(corpus_cache) == [memo] and len(entries(corpus_cache)) == 1


@pytest.mark.parametrize("mtime, age, memoised", [
    ("as written", jsonl._SETTLE_NS - 1, False),
    ("as written", jsonl._SETTLE_NS, True),
    # Only ctime tells that this file changed within the window.
    ("set back a day", jsonl._SETTLE_NS - 1, False),
])
def test_an_input_changed_within_the_window_is_hashed_on_every_load(
        edge_corpus, corpus_cache, monkeypatch, mtime, age, memoised):
    if mtime == "set back a day":
        info = edge_corpus.stat()
        os.utime(edge_corpus, ns=(info.st_atime_ns, info.st_mtime_ns - 86400 * 10**9))
    info = edge_corpus.stat()
    now = max(info.st_mtime_ns, info.st_ctime_ns) + age
    monkeypatch.setattr(jsonl, "time", SimpleNamespace(time_ns=lambda: now))
    hashed = hashes_of(edge_corpus, monkeypatch)
    parsed = fields(load_ocr_corpus(edge_corpus))
    for _ in range(2):
        assert fields(load_ocr_corpus(edge_corpus)) == parsed
    assert len(hashed) == (1 if memoised else 3)
    assert len(memos(corpus_cache)) == memoised and len(entries(corpus_cache)) == 1


def test_a_memoised_input_rewritten_in_place_is_read_anew(tmp_path, corpus_cache, settled):
    path = tmp_path / "corpus.jsonl"
    original = GOLDEN_CORPUS.read_bytes()
    path.write_bytes(original)
    assert "INVOICE" in load_ocr_corpus(path)[0].texts
    assert len(memos(corpus_cache)) == 1
    rewrite_in_place(path, original.replace(b"INVOICE", b"ZZZZZZZ"))
    assert "ZZZZZZZ" in load_ocr_corpus(path)[0].texts
    assert len(memos(corpus_cache)) == 2 and len(entries(corpus_cache)) == 2


def test_an_input_changed_while_hashed_gets_no_memo(tmp_path, corpus_cache, monkeypatch,
                                                     settled):
    path = tmp_path / "corpus.jsonl"
    original = GOLDEN_CORPUS.read_bytes()
    path.write_bytes(original)
    file_digest = jsonl._file_digest

    def hash_then_rewrite(handle):
        digest = file_digest(handle)
        if Path(handle.name) == path:
            rewrite_in_place(path, original.replace(b"INVOICE", b"ZZZZZZZ"))
        return digest

    monkeypatch.setattr(jsonl, "_file_digest", hash_then_rewrite)
    assert "ZZZZZZZ" in load_ocr_corpus(path)[0].texts
    assert memos(corpus_cache) == [] and entries(corpus_cache) == []


@pytest.mark.parametrize("damage", ["empty", "short", "one byte more", "hex digest"])
def test_a_faulty_memo_is_hashed_past_and_rewritten(edge_corpus, corpus_cache, monkeypatch,
                                                    settled, damage):
    parsed = fields(load_ocr_corpus(edge_corpus))
    (memo,) = memos(corpus_cache)
    good = memo.read_bytes()
    memo.write_bytes({"empty": b"", "short": good[:-1], "one byte more": good + b"\n",
                      "hex digest": good.hex().encode()}[damage])
    hashed = hashes_of(edge_corpus, monkeypatch)
    monkeypatch.setattr(geometry, "read_records", refuse_to_parse)
    assert fields(load_ocr_corpus(edge_corpus)) == parsed
    assert hashed == [edge_corpus]
    assert memos(corpus_cache) == [memo] and memo.read_bytes() == good


def test_the_key_is_the_bytes_of_the_corpus_and_the_code(tmp_path, corpus_cache,
                                                         monkeypatch):
    parsed = fields(load_ocr_corpus(GOLDEN_CORPUS))
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(GOLDEN_CORPUS.read_bytes())
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "read_records", refuse_to_parse)
        assert fields(load_ocr_corpus(copy)) == parsed
    copy.write_bytes(GOLDEN_CORPUS.read_bytes() + b"\n")
    assert fields(load_ocr_corpus(copy)) == parsed
    assert len(entries(corpus_cache)) == 2
    source = tmp_path / "geometry.py"
    source.write_bytes(Path(geometry.__file__).read_bytes() + b"\n")
    monkeypatch.setattr(geometry, "__file__", str(source))
    assert fields(load_ocr_corpus(copy)) == parsed
    assert len(entries(corpus_cache)) == 3


# A record without a flags key, one with none, one with both flags, several
# answers and non-ASCII text.
EDGE_QA = [
    {"example_id": "e0", "doc_id": "d0", "question": "q?", "answers": ["a"]},
    {"example_id": "e1", "doc_id": "d0", "question": "q?", "answers": ["a"], "flags": []},
    {"example_id": "é2", "doc_id": "d1", "question": "wer schrieb „das“?",
     "answers": ["ü", "u e", "ü", "42"], "flags": ["genre", "yes_no"]},
]


def qa_fields(records):
    """Everything a QARecord holds, with the types of its collections."""
    return [(type(r.answers), type(r.flags), *r) for r in records]


@pytest.mark.parametrize("qa", ["golden ocrvqa", "edge cases"])
def test_a_qa_hit_gives_what_a_parse_gives(tmp_path, corpus_cache, monkeypatch, qa):
    if qa == "golden ocrvqa":
        path = GOLDEN / "input" / "qa-ocrvqa.jsonl"
    else:
        path = tmp_path / "qa.jsonl"
        write_records(path, EDGE_QA)
    parsed = load_qa(path)
    assert {flag for r in parsed for flag in r.flags} == {"genre", "yes_no"}
    assert len(entries(corpus_cache)) == 1
    with monkeypatch.context() as patch:
        patch.setattr(datasets, "read_records", refuse_to_parse)
        hit = load_qa(path)
    assert qa_fields(hit) == qa_fields(parsed)
    assert {type(r.answers) for r in hit} == {tuple}
    assert {type(r.flags) for r in hit} == {frozenset}
    # Records without flags share one set after a hit, as after a parse.
    assert [r.flags is NO_FLAGS for r in hit] == [not r.flags for r in parsed]


@pytest.mark.parametrize("line, message", [
    ('{"example_id": "e0", "doc_id": "d", "question": "q?", "answers": ["b"]}',
     "line 2: duplicate example_id 'e0'"),
    ('{"example_id": "e1", "doc_id": "d", "question": "q?", "answers": ["b"], '
     '"flags": ["bogus"]}', "line 2: flag must be genre or yes_no, got 'bogus'"),
    # These two used to exit 2 with "unhashable type: 'list'" (or 'dict').
    ('{"example_id": "e1", "doc_id": "d", "question": "q?", "answers": ["b"], '
     '"flags": [["x"]]}', "line 2: flag must be genre or yes_no, got ['x']"),
    ('{"example_id": "e1", "doc_id": "d", "question": "q?", "answers": ["b"], '
     '"flags": [{"x": 1}]}', "line 2: flag must be genre or yes_no, got {'x': 1}"),
    ('{"example_id": ' + "1" * 5000 + "}", "line 2: invalid JSON: integer has too many digits"),
    ('{"example_id": "e1", "doc_id": "d", "question": "q\\udc00?", "answers": ["b"]}',
     "line 2: invalid JSON: lone surrogate in a string"),
], ids=["duplicate example_id", "unknown flag", "list flag", "object flag",
        "integer too long", "lone surrogate"])
def test_a_faulty_qa_file_is_never_cached(tmp_path, capsys, corpus_cache, line, message):
    qa = tmp_path / "qa.jsonl"
    qa.write_text('{"example_id": "e0", "doc_id": "d", "question": "q?", "answers": ["a"]}\n'
                  + line + "\n")
    argv = ["predict", "--qa", str(qa),
            "--contexts", str(GOLDEN / "expected" / "contexts-standard.jsonl"),
            "--dataset", "golden", "--datasets-config", str(GOLDEN / "input" / "benchmarks.json"),
            "--backend", "mock-echo", "--out", str(tmp_path / "predictions.jsonl")]
    for _ in range(2):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {qa} {message}\n"
        assert entries(corpus_cache) == []


def batches(entry: bytes) -> list[bytes]:
    """The marshal blob of each batch of a cache entry."""
    blobs, at = [], 8
    for _ in range(int.from_bytes(entry[:8], "little")):
        size = int.from_bytes(entry[at:at + 8], "little")
        blobs.append(entry[at + 8:at + 8 + size])
        at += 8 + size
    assert at == len(entry) - hashlib.sha256().digest_size
    return blobs


def entry_of(count: int, blobs: list[bytes]) -> bytes:
    """A cache entry claiming `count` batches and holding `blobs`, with a
    checksum that matches, so only the layout can make it a miss."""
    body = count.to_bytes(8, "little") + b"".join(
        len(blob).to_bytes(8, "little") + blob for blob in blobs)
    return body + hashlib.sha256(body).digest()


@pytest.fixture
def long_qa(tmp_path):
    """A QA file whose records pack to several batches."""
    path = tmp_path / "qa.jsonl"
    question = "which of these words " * 20 + "?"
    records = [{"example_id": f"e{i}", "doc_id": f"d{i % 7}", "question": f"{i} {question}",
                "answers": [f"a{i}", "b"], "flags": ["yes_no"] if i % 3 else []}
               for i in range(4 * jsonl._BATCH_BYTES // len(question))]
    write_records(path, records)
    return path


@pytest.mark.parametrize("damage", [
    None, "cut after the first batch", "a batch that is not a list",
    "one batch fewer than stored", "one batch more than stored",
])
def test_a_qa_file_of_several_batches(long_qa, corpus_cache, monkeypatch, damage):
    parsed = qa_fields(load_qa(long_qa))
    (entry,) = entries(corpus_cache)
    good = entry.read_bytes()
    blobs = batches(good)
    assert len(blobs) >= 3 and entry_of(len(blobs), blobs) == good
    for blob in blobs:
        batch = marshal.loads(blob)
        assert type(batch) is list and 1 < len(batch) < len(parsed)
    if damage == "cut after the first batch":
        entry.write_bytes(good[:16 + len(blobs[0])])
    elif damage == "a batch that is not a list":
        first = marshal.dumps(tuple(marshal.loads(blobs[0])))
        entry.write_bytes(entry_of(len(blobs), [first, *blobs[1:]]))
    elif damage == "one batch fewer than stored":
        entry.write_bytes(entry_of(len(blobs) - 1, blobs))
    elif damage == "one batch more than stored":
        entry.write_bytes(entry_of(len(blobs) + 1, blobs))
    calls = []
    read_records = datasets.read_records
    monkeypatch.setattr(datasets, "read_records", lambda p: calls.append(p) or read_records(p))
    assert qa_fields(load_qa(long_qa)) == parsed
    assert calls == ([] if damage is None else [long_qa])
    assert entries(corpus_cache) == [entry] and entry.read_bytes() == good


def test_a_page_past_the_batch_size_gets_a_batch_of_its_own(tmp_path, corpus_cache):
    words = [{"text": f"w{k}", "box": [k, 0, k + 1, 1]}
             for k in range(jsonl._BATCH_BYTES // 32 + 1)]
    path = tmp_path / "corpus.jsonl"
    write_records(path, [{"doc_id": f"d{i}", "reading_ordered": True, "words": words}
                         for i in range(3)])
    parsed = fields(load_ocr_corpus(path))
    (entry,) = entries(corpus_cache)
    assert [len(marshal.loads(blob)) for blob in batches(entry.read_bytes())] == [1, 1, 1]
    assert fields(load_ocr_corpus(path)) == parsed
