import pytest
from hypothesis import given
from hypothesis import strategies as st

from docqa.errors import DataError
from docqa.jsonl import config_digest, derive_seed, write_stage_file
from docqa.ordering import shuffled_order, standard_order
from docqa.serialize import (
    SerializedContext,
    build_context,
    build_prompt,
    context_to_record,
    load_contexts,
    parse_prompt,
    truncate_context,
)
from layouts import make_document

# The header line every contexts file starts with.
HEADER = '{"config_digest": "0", "stage": "serialize"}\n'


def doc_with_texts(texts, doc_id="d0"):
    boxes = [(12.0 * i, 0.0, 12.0 * i + 10.0, 4.0) for i in range(len(texts))]
    return make_document(doc_id, texts, boxes, reading_ordered=True)


class TestBuildContext:
    def test_identity_order(self):
        doc = doc_with_texts(["Hello", "World"])
        ctx = build_context(doc, standard_order(doc))
        assert ctx.text == "Hello World"
        assert ctx.token_count == 2

    def test_swapped_order(self):
        doc = doc_with_texts(["Hello", "World"])
        ctx = build_context(doc, shuffled_order(doc, seed=2))
        if list(ctx.pieces) == ["World", "Hello"]:
            assert ctx.text == "World Hello"
        # Regardless of which permutation seed 2 gives, text joins the pieces.
        assert ctx.text == " ".join(ctx.pieces)

    def test_empty_document(self):
        doc = doc_with_texts([])
        ctx = build_context(doc, standard_order(doc))
        assert ctx.text == ""
        assert ctx.token_count == 0

    def test_doc_id_mismatch_rejected(self):
        doc = doc_with_texts(["a"])
        other = doc_with_texts(["a"], doc_id="other")
        with pytest.raises(DataError, match="doc_id"):
            build_context(doc, standard_order(other))

    def test_length_mismatch_rejected(self):
        doc = doc_with_texts(["a", "b"])
        shorter = doc_with_texts(["a"])
        order = standard_order(shorter)
        with pytest.raises(DataError):
            build_context(doc, order)

    @given(texts=st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=10))
    def test_identity_order_preserves_input_join(self, texts):
        doc = doc_with_texts(texts)
        ctx = build_context(doc, standard_order(doc))
        assert ctx.text == " ".join(texts)
        assert ctx.token_count == len(texts)


class TestTruncate:
    def make_ctx(self, text_words):
        doc = doc_with_texts(text_words)
        return build_context(doc, standard_order(doc))

    def test_prefix_kept(self):
        ctx = self.make_ctx(["a", "b", "c", "d"])
        out = truncate_context(ctx, 3)
        assert out.text == "a b c"
        assert out.token_count == 3

    def test_under_budget_unchanged(self):
        ctx = self.make_ctx([f"w{i}" for i in range(10)])
        out = truncate_context(ctx, 1024)
        assert out is ctx

    def test_idempotent(self):
        ctx = self.make_ctx([f"w{i}" for i in range(8)])
        once = truncate_context(ctx, 3)
        twice = truncate_context(once, 3)
        assert twice is once

    def test_never_splits_a_word(self):
        # "new york" is one OCR word carrying an internal space: two
        # whitespace tokens that cannot be halved.
        ctx = self.make_ctx(["new york", "city"])
        out = truncate_context(ctx, 1)
        assert out.text == ""

    def test_single_over_budget_word_yields_empty_with_warning(self):
        ctx = self.make_ctx(["alpha beta gamma"])
        out = truncate_context(ctx, 2)
        assert out.text == ""
        assert out.token_count == 0

    def test_budget_must_be_positive(self):
        ctx = self.make_ctx(["a"])
        with pytest.raises(ValueError) as info:
            truncate_context(ctx, 0)
        assert str(info.value) == "budget must be an integer >= 1, got 0"

    @given(
        texts=st.lists(st.text(alphabet="abc", min_size=1, max_size=4), max_size=8),
        budget=st.integers(min_value=1, max_value=10),
    )
    def test_idempotence_property(self, texts, budget):
        ctx = self.make_ctx(texts)
        once = truncate_context(ctx, budget)
        twice = truncate_context(once, budget)
        assert twice.text == once.text
        assert twice.token_count == once.token_count


class TestPrompt:
    def test_template(self):
        ctx = SerializedContext(
            doc_id="d0", text="x y", token_count=2, pieces=("x", "y")
        )
        prompt = build_prompt(ctx, "what?")
        assert prompt.text == "Context: x y Question: what? Answer:"

    def test_empty_context_keeps_double_space(self):
        ctx = SerializedContext(
            doc_id="d0", text="", token_count=0, pieces=()
        )
        assert build_prompt(ctx, "q").text == "Context:  Question: q Answer:"

    def test_byte_identical_across_runs(self):
        ctx = SerializedContext(
            doc_id="d0", text="x y", token_count=2, pieces=("x", "y")
        )
        assert build_prompt(ctx, "q?").text == build_prompt(ctx, "q?").text

    @given(
        context_text=st.text(alphabet="ab ", max_size=12),
        question=st.text(alphabet="xyz? ", min_size=1, max_size=12),
    )
    def test_parse_inverts_build(self, context_text, question):
        ctx = SerializedContext(
            doc_id="d0",
            text=context_text,
            token_count=len(context_text.split()),
            pieces=(),
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
        doc = doc_with_texts(["Hello", "World"])
        ctx = build_context(doc, standard_order(doc))
        path = tmp_path / "contexts.jsonl"
        write_stage_file(path, "serialize", 0, {}, [context_to_record(ctx)],
                         dataset="toy", budget=2)
        header, loaded = load_contexts(path, dataset="toy", budget=2)
        assert header == {"config_digest": config_digest({"stage": "serialize", "seed": 0}),
                          "stage": "serialize", "seed": derive_seed(0, "serialize"),
                          "dataset": "toy", "budget": 2}
        assert len(loaded) == 1
        assert loaded[0].doc_id == "d0"
        assert loaded[0].text == "Hello World"
        assert loaded[0].token_count == 2
        assert loaded[0].pieces is None

    # Truncating a loaded context splits its text on single spaces; these
    # values are the ones the loader's own split gave.
    @pytest.mark.parametrize("text, budget, kept, tokens", [
        ("new york  city", 1, "new", 1),
        ("new york  city", 2, "new york ", 2),
        ("a\tb c", 1, "", 0),
        ("a\tb c", 2, "a\tb", 2),
        ("d  e f g", 1, "d ", 1),
        ("d  e f g", 2, "d  e", 2),
        ("d  e f g", 3, "d  e f", 3),
    ])
    def test_truncating_a_loaded_context(self, tmp_path, text, budget, kept, tokens):
        path = tmp_path / "contexts.jsonl"
        row = {"doc_id": "d", "context": text, "token_count": len(text.split())}
        write_stage_file(path, "serialize", 0, {}, [row])
        _, (ctx,) = load_contexts(path)
        out = truncate_context(ctx, budget)
        assert (out.text, out.token_count) == (kept, tokens)
        assert " ".join(out.pieces) == kept

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
