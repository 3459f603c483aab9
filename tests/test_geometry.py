import json
import math
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from docqa.errors import DataError
from docqa.geometry import document_from_record, load_ocr_corpus
from docqa.ordering import raster_scan_order
from layouts import make_document, word_boxes


def one_word(box, text="w"):
    """The record of a one-word, reading-ordered document."""
    return {"doc_id": "d0", "reading_ordered": True, "words": [{"text": text, "box": box}]}


def scan(boxes):
    """Raster-scan permutation of words with these boxes; the scan reads
    each box at its centroid."""
    doc = make_document("d0", [f"t{i}" for i in range(len(boxes))], boxes)
    return list(raster_scan_order(doc).permutation)


class TestBoundingBox:
    """Box rules of a corpus word, and the point the raster scan reads it at."""

    def test_centroid_symmetric_box(self):
        # The square reads at (5, 5): it ties with a point there (index
        # breaks the tie), follows a point just left of it, and a point just
        # below it misses the zero tolerance of the point seed's line.
        boxes = [(0, 0, 10, 10), (5, 5, 5, 5), (4.99, 5, 4.99, 5), (5, 5.01, 5, 5.01)]
        assert scan(boxes) == [2, 0, 1, 3]

    def test_centroid_degenerate_point_box(self):
        assert word_boxes(document_from_record(one_word([0, 0, 0, 0]))) == ((0.0, 0.0, 0.0, 0.0),)
        assert scan([(0, 0, 0, 0), (-1, -1, 1, 1)]) == [0, 1]
        assert scan([(0, 0, 0, 0), (-1, -1, 0.5, 1)]) == [1, 0]

    def test_centroid_hand_value(self):
        # (2,4,6,8) reads at ((2+6)/2, (4+8)/2) = (4, 6) with height 4, so the
        # line tolerance is 2: y 8 joins its line and y 8.01 does not.
        boxes = [(2, 4, 6, 8), (4, 8.01, 4, 8.01), (3.99, 8, 3.99, 8)]
        assert scan(boxes) == [2, 0, 1]

    def test_integer_coordinates_widen_to_float(self):
        (box,) = word_boxes(document_from_record(one_word([1, 2, 3, 4])))
        assert box == (1.0, 2.0, 3.0, 4.0)
        assert all(type(v) is float for v in box)

    def test_integer_coordinates_widen_as_float_does(self):
        # 2**53 + 1 rounds to an even neighbour; the largest finite integer
        # widens to the largest float; -0.0 keeps its sign.
        big, edge = 2**53 + 1, int(sys.float_info.max)
        doc = document_from_record(one_word([-0.0, big, edge, edge]))
        assert list(doc.coords) == [float(-0.0), float(big), float(edge), float(edge)]
        assert doc.coords[1] == 2.0**53 and doc.coords[2] == sys.float_info.max
        assert math.copysign(1.0, doc.coords[0]) == -1.0

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError, match=r"inverted box: x_min 5\.0 > x_max 3\.0"):
            document_from_record(one_word([5, 0, 3, 1]))

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError, match=r"inverted box: y_min 5\.0 > y_max 3\.0"):
            document_from_record(one_word([0, 5, 1, 3]))

    def test_zero_area_box_is_legal(self):
        doc = document_from_record(one_word([7, 7, 7, 7]))
        assert word_boxes(doc) == ((7.0, 7.0, 7.0, 7.0),)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="x_max must be finite"):
            document_from_record(one_word([0, 0, float("inf"), 1]))
        with pytest.raises(ValueError, match="x_min must be finite"):
            document_from_record(one_word([float("nan"), 0, 1, 1]))
        with pytest.raises(ValueError, match="y_min must be finite"):
            document_from_record(one_word([0, -float("inf"), 1, 1]))

    def test_integer_beyond_float_range_rejected(self):
        huge = int(sys.float_info.max) * 2
        with pytest.raises(ValueError, match="y_max must be finite"):
            document_from_record(one_word([0, 0, 1, huge]))

    @given(
        x_min=st.floats(-1e6, 1e6),
        y_min=st.floats(-1e6, 1e6),
        width=st.floats(0, 1e6),
        height=st.floats(0, 1e6),
    )
    def test_centroid_lies_inside_box(self, x_min, y_min, width, height):
        x_max, y_max = x_min + width, y_min + height
        cx, cy = (x_min + x_max) / 2.0, (y_min + y_max) / 2.0
        assert x_min <= cx <= x_max
        assert y_min <= cy <= y_max
        # The scan reads the box at that point: a point word there ties with it.
        assert scan([(x_min, y_min, x_max, y_max), (cx, cy, cx, cy)]) == [0, 1]


class TestWord:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="word text must be a non-empty string"):
            document_from_record(one_word([0, 0, 1, 1], text=""))

    def test_surrounding_whitespace_rejected(self):
        with pytest.raises(ValueError, match="surrounding whitespace"):
            document_from_record(one_word([0, 0, 1, 1], text=" padded"))
        with pytest.raises(ValueError, match="surrounding whitespace"):
            document_from_record(one_word([0, 0, 1, 1], text="padded\n"))

    def test_word_position_is_file_position(self):
        record = {
            "doc_id": "d0",
            "reading_ordered": False,
            "words": [
                {"text": "b", "box": [5, 0, 6, 1]},
                {"text": "a", "box": [0, 0, 1, 1]},
                {"text": "", "box": [0, 0, 1, 1]},
            ],
        }
        with pytest.raises(ValueError, match=r"^doc d0 word 2: "):
            document_from_record(record)
        record["words"].pop()
        doc = document_from_record(record)
        assert doc.texts == ("b", "a")
        assert word_boxes(doc) == ((5.0, 0.0, 6.0, 1.0), (0.0, 0.0, 1.0, 1.0))


class TestDocument:
    def test_empty_document_is_legal(self):
        doc = document_from_record({"doc_id": "d0", "reading_ordered": True, "words": []})
        assert len(doc) == 0
        assert doc.texts == () and word_boxes(doc) == ()
        assert doc.coords == array("d")

    def test_boxes_are_one_float64_column(self):
        boxes = [(0, 1, 2, 3), (4.5, 5.5, 6.5, 7.5), (8, 9, 10, 11)]
        doc = make_document("d0", ["a", "b", "c"], boxes)
        assert type(doc.coords) is array and doc.coords.typecode == "d"
        assert len(doc.coords) == 4 * len(doc)
        assert list(doc.coords) == [float(v) for box in boxes for v in box]
        assert word_boxes(doc) == tuple(tuple(map(float, box)) for box in boxes)

    def test_loaded_page_retains_few_bytes_per_word(self, tmp_path):
        # A word's text costs about 60 bytes here and its box 32 in the
        # coords column. A tuple of four float objects per box retained
        # about 240 bytes a word in all.
        rng = random.Random(7)
        words = []
        for k in range(3000):
            x, y = rng.uniform(0, 2000), rng.uniform(0, 3000)
            box = [x, y, x + rng.uniform(5, 60), y + rng.uniform(8, 14)]
            words.append({"text": f"word{k}", "box": box})
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"doc_id": "page", "reading_ordered": False, "words": words}) + "\n"
        )
        del words
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            docs = load_ocr_corpus(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(docs[0]) == 3000
        assert retained / 3000 < 150


class TestLoadCorpus:
    def test_identity_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps(
                {
                    "doc_id": "d0",
                    "reading_ordered": True,
                    "words": [
                        {"text": "Hello", "box": [0, 0, 10, 5]},
                        {"text": "World", "box": [12, 0, 22, 5]},
                    ],
                }
            )
            + "\n"
        )
        docs = load_ocr_corpus(path)
        assert len(docs) == 1
        assert len(docs[0]) == 2
        assert docs[0].texts == ("Hello", "World")
        assert word_boxes(docs[0]) == ((0.0, 0.0, 10.0, 5.0), (12.0, 0.0, 22.0, 5.0))

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_ocr_corpus(path) == []

    def test_inverted_box_names_doc_and_word(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps(
                {
                    "doc_id": "bad-doc",
                    "reading_ordered": True,
                    "words": [{"text": "w", "box": [5, 0, 3, 1]}],
                }
            )
            + "\n"
        )
        with pytest.raises(DataError, match=r"bad-doc.*word 0"):
            load_ocr_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d0", "reading_ordered": true, "words": []}\n{oops\n')
        with pytest.raises(DataError, match="line 2"):
            load_ocr_corpus(path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = json.dumps({"doc_id": "dup", "reading_ordered": True, "words": []})
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(DataError, match="dup"):
            load_ocr_corpus(path)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(DataError, match="nope.jsonl"):
            load_ocr_corpus(missing)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"doc_id": "d0", "words": []}) + "\n")
        with pytest.raises(DataError, match="reading_ordered"):
            load_ocr_corpus(path)


words_strategy = st.lists(
    st.tuples(
        st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")), min_size=1, max_size=8),
        st.floats(0, 1000),
        st.floats(0, 1000),
        st.floats(0, 50),
        st.floats(0, 50),
    ),
    max_size=12,
)


@given(words=words_strategy, reading_ordered=st.booleans())
def test_corpus_round_trip(tmp_path_factory, words, reading_ordered):
    texts = [text for text, *_ in words]
    boxes = [(x, y, x + w, y + h) for _, x, y, w, h in words]
    record = {
        "doc_id": "roundtrip",
        "reading_ordered": reading_ordered,
        "words": [{"text": t, "box": list(b)} for t, b in zip(texts, boxes)],
    }
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (doc,) = load_ocr_corpus(path)
    assert doc.doc_id == "roundtrip"
    assert doc.provided_order_is_reading_order is reading_ordered
    assert doc.texts == tuple(texts)
    assert word_boxes(doc) == tuple(boxes)
    assert len(doc) == len(words)


GOOD_WORD = {"text": "ok", "box": [0, 0, 1, 1]}


def faulty_doc(word):
    """Doc d1 whose word 1 is `word`, after one good word."""
    return {"doc_id": "d1", "reading_ordered": True, "words": [GOOD_WORD, word]}


# Line 2 of a two-line corpus per case, and the full message the loader
# reports after "<path> line 2: ". json.dumps writes inf and nan as the
# Infinity and NaN literals that json.loads reads back.
LOADER_FAULTS = [
    ("non-object entry", faulty_doc("w"), "doc d1 word 1: word entry must be an object"),
    ("box too short", faulty_doc({"text": "w", "box": [0, 0, 1]}),
     "doc d1 word 1: box must be [x_min, y_min, x_max, y_max], got [0, 0, 1]"),
    ("box not a list", faulty_doc({"text": "w", "box": "0011"}),
     "doc d1 word 1: box must be [x_min, y_min, x_max, y_max], got '0011'"),
    ("box missing", faulty_doc({"text": "w"}),
     "doc d1 word 1: box must be [x_min, y_min, x_max, y_max], got None"),
    ("non-number coordinate", faulty_doc({"text": "w", "box": [0, "1", 2, 3]}),
     "doc d1 word 1: y_min must be a number, got '1'"),
    ("bool coordinate", faulty_doc({"text": "w", "box": [True, 0, 1, 1]}),
     "doc d1 word 1: x_min must be a number, got True"),
    ("bool last coordinate", faulty_doc({"text": "w", "box": [0, 0, 1, False]}),
     "doc d1 word 1: y_max must be a number, got False"),
    ("inf coordinate", faulty_doc({"text": "w", "box": [0, 0, float("inf"), 1]}),
     "doc d1 word 1: x_max must be finite, got inf"),
    ("nan coordinate", faulty_doc({"text": "w", "box": [0, 0, 1, float("nan")]}),
     "doc d1 word 1: y_max must be finite, got nan"),
    ("inverted x", faulty_doc({"text": "w", "box": [5, 0, 3, 1]}),
     "doc d1 word 1: inverted box: x_min 5.0 > x_max 3.0"),
    ("inverted y", faulty_doc({"text": "w", "box": [0, 5.5, 1, 3]}),
     "doc d1 word 1: inverted box: y_min 5.5 > y_max 3.0"),
    ("empty text", faulty_doc({"text": "", "box": [0, 0, 1, 1]}),
     "doc d1 word 1: word text must be a non-empty string"),
    ("non-string text", faulty_doc({"text": 7, "box": [0, 0, 1, 1]}),
     "doc d1 word 1: word text must be a non-empty string"),
    ("text missing", faulty_doc({"box": [0, 0, 1, 1]}),
     "doc d1 word 1: word text must be a non-empty string"),
    ("padded text", faulty_doc({"text": " w", "box": [0, 0, 1, 1]}),
     "doc d1 word 1: word text carries surrounding whitespace: ' w'"),
    ("missing doc_id", {"reading_ordered": True, "words": [GOOD_WORD]},
     "record is missing a doc_id string"),
    ("missing reading_ordered", {"doc_id": "d1", "words": [GOOD_WORD]},
     "record is missing the reading_ordered boolean"),
    ("missing words", {"doc_id": "d1", "reading_ordered": True},
     "record is missing the words array"),
]


@pytest.mark.parametrize(
    "record, message",
    [case[1:] for case in LOADER_FAULTS],
    ids=[case[0] for case in LOADER_FAULTS],
)
def test_loader_fault_messages(tmp_path, record, message):
    path = tmp_path / "corpus.jsonl"
    first = {"doc_id": "d0", "reading_ordered": True, "words": [GOOD_WORD]}
    path.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DataError) as info:
        load_ocr_corpus(path)
    assert str(info.value) == f"{path} line 2: {message}"
