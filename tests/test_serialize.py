import pytest
from hypothesis import given
from hypothesis import strategies as st

from docqa.datasets import load_dataset_configs
from docqa.errors import DataError
from docqa.geometry import load_ocr_corpus
from docqa.jsonl import config_digest, derive_seed, write_stage_file
from docqa.ordering import ReadingOrder, load_orders, standard_order
from docqa.serialize import (
    SerializedContext,
    build_context,
    build_prompt,
    load_contexts,
    parse_prompt,
    truncate_context,
)
from golden import replay
from layouts import make_document

# The header line every contexts file starts with.
HEADER = '{"config_digest": "0", "stage": "serialize"}\n'

# The flags of each serialize command of the golden run that writes a
# contexts file, one per golden contexts file.
SERIALIZE_RUNS = [
    dict(zip(argv[1::2], argv[2::2]))
    for _, _, code, argv in replay.read_plan()
    if argv[0] == "serialize" and code == 0
]


def doc_with_texts(texts, doc_id="d0"):
    boxes = [(12.0 * i, 0.0, 12.0 * i + 10.0, 4.0) for i in range(len(texts))]
    return make_document(doc_id, texts, boxes, reading_ordered=True)


def built(texts, budget=1024):
    doc = doc_with_texts(texts)
    return build_context(doc, standard_order(doc), budget)


class TestBuildContext:
    def test_identity_order(self):
        assert built(["Hello", "World"]) == ("d0", "Hello World", 2)

    def test_swapped_order(self):
        doc = doc_with_texts(["Hello", "World"])
        ctx = build_context(doc, ReadingOrder("d0", (1, 0)), 1024)
        assert ctx == ("d0", "World Hello", 2)

    def test_empty_document(self):
        assert built([]) == ("d0", "", 0)

    def test_doc_id_mismatch_rejected(self):
        doc = doc_with_texts(["a"])
        other = doc_with_texts(["a"], doc_id="other")
        with pytest.raises(DataError, match="doc_id"):
            build_context(doc, standard_order(other), 1024)

    def test_length_mismatch_rejected(self):
        doc = doc_with_texts(["a", "b"])
        shorter = doc_with_texts(["a"])
        order = standard_order(shorter)
        with pytest.raises(DataError):
            build_context(doc, order, 1024)

    @given(texts=st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=10))
    def test_identity_order_preserves_input_join(self, texts):
        ctx = built(texts)
        assert ctx.context == " ".join(texts)
        assert ctx.token_count == len(texts)

    def test_record_is_the_contexts_row(self):
        assert SerializedContext._fields == ("doc_id", "context", "token_count")


# Word texts as a corpus holds them: stripped, some with an internal space.
WORD_LISTS = st.lists(
    st.text(alphabet="ab ", min_size=1, max_size=5).filter(lambda t: t.strip() == t),
    max_size=8,
)


def words_that_fit(texts, budget):
    """How many leading words of `texts` fit the budget, counted anew."""
    kept = 0
    while kept < len(texts) and len(" ".join(texts[: kept + 1]).split()) <= budget:
        kept += 1
    return kept


class TestTruncate:
    def test_prefix_kept(self):
        assert built(["a", "b", "c", "d"], 3) == ("d0", "a b c", 3)

    def test_under_budget_unchanged(self):
        pieces = tuple(f"w{i}" for i in range(10))
        ctx = SerializedContext("d0", " ".join(pieces), 10)
        assert truncate_context(ctx, 1024, pieces) is ctx

    def test_idempotent(self):
        pieces = tuple(f"w{i}" for i in range(8))
        once = built(pieces, 3)
        assert once == ("d0", "w0 w1 w2", 3)
        assert truncate_context(once, 3, pieces[:3]) is once

    def test_never_splits_a_word(self):
        # "new york" is one OCR word carrying an internal space: two
        # whitespace tokens that cannot be halved.
        assert built(["new york", "city"], 1) == ("d0", "", 0)
        assert built(["new york", "city"], 2) == ("d0", "new york", 2)

    def test_single_over_budget_word_yields_empty_with_warning(self):
        assert built(["alpha beta gamma"], 2) == ("d0", "", 0)

    def test_budget_must_be_positive(self):
        for call in (lambda: built(["a"], 0),
                     lambda: truncate_context(SerializedContext("d0", "a", 1), 0, ("a",))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "budget must be an integer >= 1, got 0"

    @given(texts=WORD_LISTS, budget=st.integers(min_value=1, max_value=10))
    def test_keeps_the_longest_whole_word_prefix_that_fits(self, texts, budget):
        prefix = " ".join(texts[: words_that_fit(texts, budget)])
        assert built(texts, budget) == ("d0", prefix, len(prefix.split()))

    @given(texts=WORD_LISTS, budget=st.integers(min_value=1, max_value=10))
    def test_idempotence_property(self, texts, budget):
        # Building the kept words alone at the same budget cuts nothing more.
        once = built(texts, budget)
        assert built(texts[: words_that_fit(texts, budget)], budget) == once


class TestPrompt:
    def test_template(self):
        ctx = SerializedContext(doc_id="d0", context="x y", token_count=2)
        prompt = build_prompt(ctx, "what?")
        assert prompt.text == "Context: x y Question: what? Answer:"

    def test_empty_context_keeps_double_space(self):
        ctx = SerializedContext(doc_id="d0", context="", token_count=0)
        assert build_prompt(ctx, "q").text == "Context:  Question: q Answer:"

    def test_byte_identical_across_runs(self):
        ctx = SerializedContext(doc_id="d0", context="x y", token_count=2)
        assert build_prompt(ctx, "q?").text == build_prompt(ctx, "q?").text

    @given(
        context_text=st.text(alphabet="ab ", max_size=12),
        question=st.text(alphabet="xyz? ", min_size=1, max_size=12),
    )
    def test_parse_inverts_build(self, context_text, question):
        ctx = SerializedContext(
            doc_id="d0",
            context=context_text,
            token_count=len(context_text.split()),
        )
        prompt = build_prompt(ctx, question)
        parsed_context, parsed_question = parse_prompt(prompt.text)
        assert parsed_context == context_text
        assert parsed_question == question

    def test_parse_rejects_foreign_text(self):
        with pytest.raises(DataError):
            parse_prompt("tell me anything")


class TestContextsFile:
    def test_round_trip(self, tmp_path):
        ctx = built(["Hello", "World"])
        path = tmp_path / "contexts.jsonl"
        settings = {"strategy": "standard", "dataset": "toy", "budget": 2}
        write_stage_file(path, "serialize", 0, settings, [ctx._asdict()])
        header, loaded = load_contexts(path, dataset="toy", budget=2)
        assert header == {
            "config_digest": config_digest({"stage": "serialize", "seed": 0, **settings}),
            "stage": "serialize", "seed": derive_seed(0, "serialize"), **settings,
        }
        assert loaded == [ctx]

    @pytest.mark.parametrize("flags", SERIALIZE_RUNS, ids=lambda flags: flags["--out"])
    def test_a_golden_contexts_file_loads_back_as_built(self, flags):
        docs = load_ocr_corpus(flags["--corpus"])
        _, orders = load_orders(replay.EXPECTED / flags["--orders"])
        order_by_doc = {order.doc_id: order for order in orders}
        configs = load_dataset_configs(flags["--datasets-config"])
        budget = configs[flags["--dataset"]].context_budget
        _, loaded = load_contexts(replay.EXPECTED / flags["--out"])
        assert loaded == [build_context(doc, order_by_doc[doc.doc_id], budget) for doc in docs]

    def test_load_rejects_bad_token_count(self, tmp_path):
        path = tmp_path / "contexts.jsonl"
        for row in ('{"doc_id": "d", "context": "a", "token_count": -1}',
                    '{"doc_id": "d", "context": "a b", "token_count": 99}',
                    '{"doc_id": "d", "context": "a", "token_count": true}'):
            path.write_text(HEADER + row + "\n")
            with pytest.raises(DataError, match="line 2: token_count"):
                load_contexts(path)

    @pytest.mark.parametrize("row, message", [
        ('{"context": "a", "token_count": 1}', "doc_id must be a non-empty string, got None"),
        ('{"doc_id": "d", "token_count": 1}', "context must be a string, got None"),
        ('{"doc_id": "d", "context": "a"}', "token_count must be an integer, got None"),
    ], ids=["doc_id", "context", "token_count"])
    def test_load_refuses_a_missing_field_by_its_rule(self, tmp_path, row, message):
        path = tmp_path / "contexts.jsonl"
        path.write_text(HEADER + row + "\n")
        with pytest.raises(DataError) as info:
            load_contexts(path)
        assert str(info.value) == f"{path} line 2: {message}"

    def test_load_rejects_non_string_context(self, tmp_path):
        path = tmp_path / "contexts.jsonl"
        path.write_text(HEADER + '{"doc_id": "d", "context": 5, "token_count": 1}\n')
        with pytest.raises(DataError, match="line 2: context must be a string"):
            load_contexts(path)
