import hashlib
import json
import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docqa.errors import DataError
from docqa.jsonl import write_stage_file
from docqa.ordering import (
    ReadingOrder,
    load_orders,
    raster_scan_order,
    shuffled_order,
    standard_order,
)
from layouts import (
    grid_layout,
    layout_suite,
    make_document,
    permuted_copy,
    raster_oracle,
    scaled_copy,
    text_sequence,
    two_column_layout,
    word_boxes,
)


def doc_from_boxes(boxes, doc_id="d0", reading_ordered=False):
    return make_document(doc_id, [f"t{i}" for i in range(len(boxes))], boxes, reading_ordered)


class TestStandardOrder:
    def test_identity_permutation(self):
        doc = doc_from_boxes([(0, 0, 1, 1), (2, 0, 3, 1), (4, 0, 5, 1)], reading_ordered=True)
        order = standard_order(doc)
        assert list(order.permutation) == [0, 1, 2]
        assert order.strategy == "standard"

    def test_empty_document(self):
        doc = doc_from_boxes([], reading_ordered=True)
        assert list(standard_order(doc).permutation) == []

    def test_unordered_document_refused(self):
        doc = doc_from_boxes([(0, 0, 1, 1)], reading_ordered=False)
        with pytest.raises(DataError, match="document carries no standard reading order"):
            standard_order(doc)


class TestRasterScan:
    def test_singleton(self):
        doc = doc_from_boxes([(3, 3, 4, 4)])
        assert list(raster_scan_order(doc).permutation) == [0]

    def test_two_by_two_grid_hand_trace(self):
        # Unit boxes at the four grid corners, fed in the order
        # bottom-right, top-left, bottom-left, top-right. Worked by hand:
        # seed is the top-left word, its line picks up top-right, then the
        # bottom row repeats the same left-to-right pass.
        doc = doc_from_boxes(
            [
                (20, 20, 21, 21),  # bottom-right
                (0, 0, 1, 1),      # top-left
                (0, 20, 1, 21),    # bottom-left
                (20, 0, 21, 1),    # top-right
            ]
        )
        assert list(raster_scan_order(doc).permutation) == [1, 3, 2, 0]

    def test_aligned_columns_merge_into_lines(self):
        # Two columns with shared baselines: each row reads across both
        # columns, left to right.
        doc = two_column_layout("cols", rows=2, aligned=True)
        # Words 0,1 are the left column rows, 2,3 the right column rows.
        assert list(raster_scan_order(doc).permutation) == [0, 2, 1, 3]

    def test_matches_oracle_on_layout_suite(self):
        for doc in layout_suite(40, seed=11):
            got = list(raster_scan_order(doc).permutation)
            assert got == raster_oracle(doc, 0.5), doc.doc_id

    def test_seed_is_the_leftmost_of_words_tied_on_height_center(self):
        # Words 0 and 1 share a vertical center of 11. The left one, word 1,
        # is the seed: its height 2 gives a tolerance of 1, so word 2, 3
        # below, starts its own line. Word 0's height 12 would have let it
        # join, between the two.
        doc = doc_from_boxes(
            [
                (20, 5, 30, 17),  # tall, right
                (0, 10, 10, 12),  # short, left
                (10, 13, 20, 15),  # center 14, between them
            ]
        )
        assert list(raster_scan_order(doc).permutation) == [1, 0, 2]
        assert raster_oracle(doc) == [1, 0, 2]

    def test_centers_that_overflow_to_infinity(self):
        # Finite boxes whose vertical centers overflow to inf: the distance
        # between two such words is nan, so each is a line of its own, taken
        # left to right.
        top = 1.7e308
        doc = doc_from_boxes(
            [
                (20, top, 21, top),
                (0, 0, 1, 1),
                (10, top, 11, top),
                (0, top, 1, top),
            ]
        )
        assert list(raster_scan_order(doc, 3.0).permutation) == [1, 3, 2, 0]
        assert raster_oracle(doc, 3.0) == [1, 3, 2, 0]
        # Words 0 and 1 center at -inf, with an infinite tolerance. Word 1
        # lies nan away from the seed, word 0, and word 2 inf away, so word
        # 0's line is words 2 and 0, and word 1 is a line of its own.
        low = -1.7e308
        doc = doc_from_boxes([(0, low, 1, -1.6e308), (20, low, 21, -1.6e308), (-10, 0, -9, 1)])
        assert list(raster_scan_order(doc, 1e300).permutation) == [2, 0, 1]
        assert raster_oracle(doc, 1e300) == [2, 0, 1]

    def test_threshold_factor_is_honored(self):
        # Rows 10 apart, box height 4: factor 0.5 keeps them separate lines,
        # a large factor swallows everything into one line.
        doc = grid_layout("g", rows=2, cols=2, y_gap=6.0, height=4.0)
        narrow = raster_scan_order(doc, line_threshold_factor=0.5)
        wide = raster_scan_order(doc, line_threshold_factor=10.0)
        assert list(narrow.permutation) == [0, 1, 2, 3]
        # One giant line sorts by centroid_x alone, interleaving the rows.
        assert list(wide.permutation) == [0, 2, 1, 3]

    def test_input_order_invariance(self):
        base = grid_layout("g", rows=3, cols=4)
        expected = text_sequence(base, raster_scan_order(base).permutation)
        for seed in range(5):
            shuffled = permuted_copy(base, seed)
            got = text_sequence(shuffled, raster_scan_order(shuffled).permutation)
            assert got == expected

    def test_uniform_scaling_invariance(self):
        base = two_column_layout("cols", rows=3, aligned=True)
        expected = list(raster_scan_order(base).permutation)
        for factor in (0.5, 2.0, 4.0):
            assert list(raster_scan_order(scaled_copy(base, factor)).permutation) == expected

    def test_nonpositive_factor_rejected(self):
        doc = grid_layout("g", rows=1, cols=2)
        with pytest.raises(ValueError, match="finite number > 0, got 0.0"):
            raster_scan_order(doc, line_threshold_factor=0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_nonfinite_factor_rejected(self, factor):
        doc = grid_layout("g", rows=1, cols=2)
        with pytest.raises(ValueError, match="finite"):
            raster_scan_order(doc, line_threshold_factor=factor)

    def test_single_column_of_ten_thousand_lines_scans_in_near_linear_time(self):
        # One word per line: a scan that re-walks the page for every seed
        # does 10^8 comparisons here and takes tens of seconds.
        n = 10_000
        doc = doc_from_boxes([(0, 10 * i, 8, 10 * i + 8) for i in reversed(range(n))])
        started = time.perf_counter()
        order = raster_scan_order(doc)
        elapsed = time.perf_counter() - started
        assert list(order.permutation) == list(reversed(range(n)))
        assert elapsed < 2.0, f"raster scan of {n} lines took {elapsed:.2f} s"


class TestShuffledOrder:
    def test_singleton_any_seed(self):
        doc = doc_from_boxes([(0, 0, 1, 1)])
        assert list(shuffled_order(doc, 12345).permutation) == [0]

    def test_same_seed_same_permutation(self):
        doc = grid_layout("g", rows=1, cols=5)
        first = shuffled_order(doc, 7)
        second = shuffled_order(doc, 7)
        assert first.permutation == second.permutation
        assert first.params == {"seed": 7}

    def test_different_seeds_usually_differ(self):
        doc = grid_layout("g", rows=2, cols=5)
        perms = {shuffled_order(doc, seed).permutation for seed in range(20)}
        assert len(perms) > 1

    def test_negative_seed_rejected(self):
        doc = grid_layout("g", rows=1, cols=2)
        with pytest.raises(ValueError):
            shuffled_order(doc, -1)

    @pytest.mark.parametrize("seed", [0, 1, 2**63])
    def test_pinned_permutations(self, seed):
        # Permutations as randrange(i + 1) drew them on CPython 3.11; the
        # 256- and 257-word ones as the first 16 hex digits of the sha256 of
        # their JSON list.
        for n, expected in PINNED_SHUFFLES[seed].items():
            perm = list(shuffled_order(doc_from_boxes([(0, 0, 1, 1)] * n), seed).permutation)
            if isinstance(expected, str):
                perm = hashlib.sha256(json.dumps(perm).encode()).hexdigest()[:16]
            assert perm == expected, n

    def test_uniform_over_permutations(self):
        # 10,000 seeded shuffles of 5 items: every one of the 120 permutations
        # should land within 5 sigma of the uniform expectation.
        doc = grid_layout("g", rows=1, cols=5)
        counts: dict[tuple[int, ...], int] = {}
        draws = 10_000
        for seed in range(draws):
            perm = shuffled_order(doc, seed).permutation
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == 120
        p = 1.0 / 120.0
        sigma = math.sqrt(draws * p * (1 - p))
        for perm, count in counts.items():
            assert abs(count - draws * p) <= 5 * sigma, perm


PINNED_SHUFFLES = {
    0: {
        0: [], 1: [0], 2: [0, 1], 3: [0, 2, 1], 4: [2, 0, 1, 3], 5: [2, 1, 0, 4, 3],
        8: [4, 1, 5, 2, 0, 3, 7, 6], 9: [7, 5, 1, 3, 4, 2, 0, 8, 6],
        256: "2d64a8af937add06", 257: "9e64a2c9e301cc4b",
    },
    1: {
        0: [], 1: [0], 2: [1, 0], 3: [1, 2, 0], 4: [3, 0, 2, 1], 5: [2, 3, 4, 0, 1],
        8: [3, 6, 1, 5, 7, 0, 4, 2], 9: [5, 6, 7, 4, 3, 0, 8, 1, 2],
        256: "210ffaadfabfb225", 257: "971e68c600ac3515",
    },
    2**63: {
        0: [], 1: [0], 2: [0, 1], 3: [0, 1, 2], 4: [1, 2, 0, 3], 5: [1, 2, 0, 3, 4],
        8: [3, 2, 5, 0, 4, 7, 1, 6], 9: [3, 2, 5, 0, 4, 7, 1, 6, 8],
        256: "3800d12a74a2bbb3", 257: "90f71fe3f3bf040c",
    },
}


def order_record(perm):
    return {"doc_id": "d0", "strategy": "shuffled", "params": {"seed": 0}, "permutation": perm}


class TestReadingOrderType:
    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="not a bijection"):
            ReadingOrder.from_record(order_record([0, 0, 1]))
        with pytest.raises(ValueError, match="not a bijection"):
            ReadingOrder.from_record(order_record([0, 2]))

    def test_empty_permutation_accepted(self):
        assert ReadingOrder.from_record(order_record([])).permutation == ()

    @pytest.mark.parametrize(
        "perm, message",
        [
            ([0, True], "holds a non-integer entry True"),
            ([0, 1.0], "holds a non-integer entry 1.0"),
            (["0", 1], "holds a non-integer entry '0'"),
            ([1, 1], "is not a bijection on 0..N-1"),
            ([-1, 0], "is not a bijection on 0..N-1"),
            ([0, 2], "is not a bijection on 0..N-1"),
        ],
        ids=["bool", "float", "str", "duplicate", "negative", "out of range"],
    )
    def test_bad_entries_rejected_with_the_same_messages(self, perm, message):
        with pytest.raises(ValueError) as info:
            ReadingOrder.from_record(order_record(perm))
        assert str(info.value) == f"permutation of doc 'd0' {message}"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("params", [["seed", 5]], "params of doc 'd0' must be an object, got [['seed', 5]]"),
            ("params", None, "params of doc 'd0' must be an object, got None"),
            ("permutation", "01", "permutation of doc 'd0' must be a list, got '01'"),
            ("permutation", None, "permutation of doc 'd0' must be a list, got None"),
            ("permutation", {"0": 0}, "permutation of doc 'd0' must be a list, got {'0': 0}"),
        ],
        ids=["params pairs", "params null", "permutation string", "permutation null",
             "permutation object"],
    )
    def test_mistyped_fields_rejected(self, field, value, message):
        with pytest.raises(ValueError) as info:
            ReadingOrder.from_record({**order_record([0, 1]), field: value})
        assert str(info.value) == message

    def test_missing_params_read_as_empty(self):
        record = order_record([1, 0])
        del record["params"]
        assert ReadingOrder.from_record(record).params == {}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="zigzag"):
            ReadingOrder.from_record({**order_record([0]), "strategy": "zigzag"})

    def test_round_trip_through_orders_file(self, tmp_path):
        doc = grid_layout("g", rows=2, cols=2)
        plain = make_document("plain", doc.texts, word_boxes(doc), reading_ordered=True)
        orders = [
            standard_order(plain),
            raster_scan_order(doc),
            shuffled_order(grid_layout("s", rows=2, cols=2), 42),
        ]
        path = tmp_path / "orders.jsonl"
        write_stage_file(path, {"config_digest": "0"}, (o.to_record() for o in orders))
        header, loaded = load_orders(path)
        assert header == {"config_digest": "0"}
        assert [o.doc_id for o in loaded] == ["plain", "g", "s"]
        assert [o.strategy for o in loaded] == [
            "standard",
            "raster_scan",
            "shuffled",
        ]
        assert loaded[1].permutation == orders[1].permutation
        assert loaded[2].params == {"seed": 42}

    def test_load_rejects_second_order_for_a_doc(self, tmp_path):
        doc = grid_layout("g", rows=2, cols=2)
        path = tmp_path / "orders.jsonl"
        write_stage_file(
            path,
            {"config_digest": "0"},
            (o.to_record() for o in [raster_scan_order(doc), shuffled_order(doc, 42)]),
        )
        with pytest.raises(DataError, match=r"line 3: duplicate doc_id 'g'"):
            load_orders(path)

    @pytest.mark.parametrize(
        "permutation",
        [[0.7, 1.7], ["0", "1"], [True, 0], [0, 1.0]],
        ids=["fractions", "strings", "bool", "integral float"],
    )
    def test_load_rejects_non_integer_entries(self, tmp_path, permutation):
        rows = [
            {"doc_id": "a", "strategy": "standard", "params": {}, "permutation": [0, 1]},
            {"doc_id": "b", "strategy": "standard", "params": {}, "permutation": permutation},
        ]
        path = tmp_path / "orders.jsonl"
        write_stage_file(path, {"config_digest": "0"}, rows)
        with pytest.raises(DataError, match=r"line 3: .*doc 'b'.*non-integer entry"):
            load_orders(path)

    def test_load_rejects_bad_permutation(self, tmp_path):
        path = tmp_path / "orders.jsonl"
        row = {"doc_id": "d", "strategy": "standard", "params": {}, "permutation": [0, 0]}
        write_stage_file(path, {"config_digest": "0"}, [row])
        with pytest.raises(
            DataError, match=r"line 2: permutation of doc 'd' is not a bijection on 0\.\.N-1$"
        ):
            load_orders(path)


@st.composite
def random_documents(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    boxes = []
    for _ in range(n):
        x = draw(st.floats(0, 500))
        y = draw(st.floats(0, 500))
        w = draw(st.floats(0, 40))
        h = draw(st.floats(0, 40))
        boxes.append((x, y, x + w, y + h))
    return doc_from_boxes(boxes)


@settings(max_examples=60)
@given(doc=random_documents(), factor=st.floats(0.05, 3.0))
def test_raster_output_is_always_a_permutation(doc, factor):
    perm = raster_scan_order(doc, line_threshold_factor=factor).permutation
    assert sorted(perm) == list(range(len(doc)))


# Integer coordinates and sizes from a small range, so centroids tie often
# and zero-height and zero-width boxes are common.
snapped_documents = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 6), st.integers(0, 6)),
    max_size=30,
).map(lambda boxes: doc_from_boxes([(x, y, x + w, y + h) for x, y, w, h in boxes]))


@settings(max_examples=200)
@given(doc=snapped_documents, factor=st.floats(0.05, 10.0))
def test_raster_matches_oracle_on_snapped_layouts(doc, factor):
    order = raster_scan_order(doc, line_threshold_factor=factor)
    assert list(order.permutation) == raster_oracle(doc, factor)


# Coordinates on a half-unit grid with small sizes, so vertical centers tie
# often between boxes of different heights; zero and negative-zero sizes and
# coordinates are common.
_half_units = st.integers(-2, 12).map(lambda k: k / 2.0)
_sizes = st.sampled_from([-0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
quantized_documents = st.lists(
    st.tuples(st.one_of(st.just(-0.0), _half_units), st.one_of(st.just(-0.0), _half_units),
              _sizes, _sizes),
    max_size=24,
).map(lambda boxes: doc_from_boxes([(x, y, x + w, y + h) for x, y, w, h in boxes]))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=quantized_documents)
def test_raster_matches_oracle_on_quantized_layouts_with_ties(doc):
    for factor in (0.1, 0.5, 1.0, 3.0):
        order = raster_scan_order(doc, line_threshold_factor=factor)
        assert list(order.permutation) == raster_oracle(doc, factor), factor


# Vertical extents near the float limit, so centers overflow to +-inf and
# tie there, and tolerances can be infinite.
_far = st.sampled_from([-1.7e308, -1.6e308, -1.5e308, 0.0, 1.5e308, 1.6e308, 1.7e308])
overflowing_documents = st.lists(
    st.tuples(st.integers(-2, 2), _far, _far), max_size=10
).map(lambda boxes: doc_from_boxes([(x, min(a, b), x + 1, max(a, b)) for x, a, b in boxes]))


@settings(max_examples=200, derandomize=True)
@given(doc=overflowing_documents, factor=st.sampled_from([0.5, 3.0, 1e300]))
def test_raster_matches_oracle_where_centers_overflow(doc, factor):
    order = raster_scan_order(doc, line_threshold_factor=factor)
    assert list(order.permutation) == raster_oracle(doc, factor)


@settings(max_examples=60)
@given(doc=random_documents(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_shuffle_output_is_always_a_permutation(doc, seed):
    perm = shuffled_order(doc, seed).permutation
    assert sorted(perm) == list(range(len(doc)))
