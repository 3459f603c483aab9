"""The corpus cache behind `geometry.load_ocr_corpus`.

A hit must give the Documents a parse gives; a corpus that fails to load, an
entry that is short or corrupt, a cache directory that cannot be made, and a
corpus rewritten while it is parsed must each give what a run without the
cache gives. Every test starts from the empty cache `conftest.corpus_cache`.
"""

import json
from pathlib import Path

import pytest

from conftest import write_records
from docqa import geometry
from docqa.cli import main
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
], ids=["inverted box", "duplicate doc_id", "integer too long"])
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
        # The count, then the first document's length and blob.
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
