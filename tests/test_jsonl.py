import errno
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docqa.analysis import eval_row_from_record, load_eval, prediction_from_record
from docqa.datasets import qa_record_from_dict
from docqa.errors import DataError, check_choice, check_number, check_str
from docqa.geometry import document_from_record
from docqa.jsonl import (
    config_digest,
    decode,
    derive_seed,
    header_value,
    parse_rows,
    read_json,
    read_records,
    read_stage_file,
    write_atomically,
    write_report,
    write_stage_file,
)
from docqa.ordering import ReadingOrder, load_orders
from docqa.serialize import context_from_record, load_contexts
from golden import replay


class Row:
    def __init__(self, record):
        self.row_id = check_str("id", record.get("id"))


# Each parser parse_rows is given, with a record it admits.
PARSERS = {
    "document": (document_from_record, {
        "doc_id": "d", "reading_ordered": True,
        "words": [{"text": "a", "box": [0, 0, 1, 1]}, {"text": "b", "box": [1.5, 0, 2, 1]}],
    }),
    "qa record": (qa_record_from_dict, {
        "example_id": "e", "doc_id": "d", "question": "q?", "answers": ["a"],
        "flags": ["yes_no"],
    }),
    "order": (ReadingOrder.from_record, {"doc_id": "d", "permutation": [1, 0]}),
    "context": (context_from_record, {"doc_id": "d", "context": "a b", "token_count": 2}),
    "prediction": (prediction_from_record, {
        "example_id": "e", "text": "ab",
        "tokens": [{"text": "a", "logprob": -0.5}, {"text": "b", "logprob": 0}],
    }),
    "failed prediction": (prediction_from_record, {"example_id": "e", "error": "timed out"}),
    "eval row": (eval_row_from_record, {
        "example_id": "e", "score": 0.5, "correct": True, "context_token_len": 3,
        "answer_in_text": False, "rop": 1.5,
    }),
}
ODD_VALUES = (None, True, False, 0, -1, 2, 0.5, -0.0, math.nan, math.inf, 10**400, "", "x",
              " x", [], [None], {}, {"": None})


def mutants(value):
    """Every copy of the object or list `value` with one entry, at any depth,
    replaced by one of ODD_VALUES or, in an object, dropped."""
    keys = list(value) if isinstance(value, dict) else range(len(value))
    for key in keys:
        inner = mutants(value[key]) if isinstance(value[key], (dict, list)) else ()
        for odd in (*ODD_VALUES, *inner):
            copy = value.copy()
            copy[key] = odd
            yield copy
        if isinstance(value, dict):
            copy = value.copy()
            del copy[key]
            yield copy


class TestParseRows:
    def test_parses_in_order(self):
        rows = [(1, {"id": "a"}), (2, {"id": "b"})]
        assert [r.row_id for r in parse_rows("f.jsonl", rows, Row, "row_id")] == ["a", "b"]

    def test_a_value_error_names_path_and_line(self):
        with pytest.raises(DataError, match=r"^f\.jsonl line 4: id must be a non-empty string, "
                                            r"got None$"):
            parse_rows("f.jsonl", [(4, {"other": 1})], Row, "row_id")

    @pytest.mark.parametrize("exc", [KeyError("id"), TypeError("bad type")],
                             ids=["KeyError", "TypeError"])
    def test_a_parser_fault_propagates(self, exc):
        # A parser raises ValueError on any bad record, so another exception
        # is a fault of the parser: a traceback, not a misleading exit 2.
        def parse(record):
            raise exc

        with pytest.raises(type(exc)):
            parse_rows("f.jsonl", [(2, {})], parse, "row_id")

    @pytest.mark.parametrize("parse, record", PARSERS.values(), ids=PARSERS)
    def test_every_parser_refuses_a_bad_record_by_value_error_alone(self, parse, record):
        parse(record)
        refused = 0
        for mutant in mutants(record):
            try:
                parse(mutant)
            except ValueError:
                refused += 1
        assert refused

    def test_repeated_key_names_path_line_and_value(self):
        rows = [(1, {"id": "a"}), (2, {"id": "b"}), (3, {"id": "a"})]
        with pytest.raises(DataError, match=r"^f\.jsonl line 3: duplicate row_id 'a'$"):
            parse_rows("f.jsonl", rows, Row, "row_id")



def reference_read(path):
    """(pairs, error message) as read_records words them, by line.strip()
    and json.loads on every line."""
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                return pairs, f"{path} line {line_no}: invalid JSON: {exc.msg}"
            if not isinstance(record, dict):
                return pairs, f"{path} line {line_no}: expected a JSON object"
            pairs.append((line_no, record))
    return pairs, None


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6,
)
OBJECTS = st.dictionaries(TEXT, JSON_VALUES, max_size=3)


def encoded(values):
    return st.builds(lambda value, ascii: json.dumps(value, ensure_ascii=ascii),
                     values, st.booleans())


# Mostly records, so a file often has several lines before its first fault.
BODIES = st.one_of(
    encoded(OBJECTS),
    encoded(OBJECTS),
    encoded(JSON_VALUES),
    st.tuples(encoded(OBJECTS), st.sampled_from(["x", "{}", "]"])).map("".join),
    TEXT,
)
# JSON whitespace, then whitespace that str.strip drops and JSON does not.
PADDING = st.text(" \t\r\x0c\x85\u3000", max_size=2)
LINES = st.tuples(PADDING, BODIES, PADDING, st.sampled_from(["\n", "\r\n"])).map("".join)


class TestReadRecords:
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(LINES, max_size=6), bom=st.booleans(), final_newline=st.booleans())
    def test_reads_every_line_as_json_loads_does(self, tmp_path, lines, bom, final_newline):
        text = "".join(lines)
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path / "records.jsonl"
        path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
        pairs, error = [], None
        try:
            pairs.extend(read_records(path))
        except DataError as exc:
            error = str(exc)
        # repr, so a nan compares equal to itself and -0.0 apart from 0.0.
        assert repr((pairs, error)) == repr(reference_read(path))

    @pytest.mark.parametrize("lead", ["", " "], ids=["at the start", "padded"])
    def test_a_line_nested_too_deeply_is_invalid_json(self, tmp_path, lead):
        # json raised RecursionError, which left the command as a traceback.
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n' + lead + "[" * 100_000 + "\n", encoding="utf-8")
        records = read_records(path)
        assert next(records) == (1, {"a": 1})
        with pytest.raises(DataError, match=rf"^{path} line 2: invalid JSON: nested too deeply$"):
            next(records)

    @pytest.mark.parametrize("lead", ["", " "], ids=["at the start", "padded"])
    def test_an_integer_with_too_many_digits_is_invalid_json(self, tmp_path, lead):
        # json raised a bare ValueError, which left the command as a traceback.
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n' + lead + '{"a": ' + "1" * 5000 + "}\n", encoding="utf-8")
        records = read_records(path)
        assert next(records) == (1, {"a": 1})
        message = rf"^{path} line 2: invalid JSON: integer has too many digits$"
        with pytest.raises(DataError, match=message):
            next(records)


class TestDecode:
    @pytest.mark.parametrize("text, value", [
        ('{"a": [1, 2.5, null]}', {"a": [1, 2.5, None]}),
        ('{"a": 1}\n', {"a": 1}),
        (' {"a": 1} \n\n', {"a": 1}),
        (b'{"a": "\xc3\xa9"}', {"a": "\u00e9"}),
        (b'\xef\xbb\xbf{"a": 1}', {"a": 1}),
        ('{"a": 1}'.encode("utf-16"), {"a": 1}),
        ('{"a": 1}'.encode("utf-16-le"), {"a": 1}),
    ], ids=["str", "line", "padded", "utf-8", "utf-8 with BOM", "utf-16", "utf-16-le"])
    def test_reads_what_json_loads_reads(self, text, value):
        assert decode(text) == value == json.loads(text)

    @pytest.mark.parametrize("text, reason", [
        ("{oops", "Expecting property name enclosed in double quotes"),
        ("", "Expecting value"),
        ("\ufeff{}", "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"a": 1} x', "Extra data"),
        (b'\xff{"a": 1}',
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        # json.loads decodes bytes with surrogatepass, which let a surrogate in.
        (b'{"a": "\xed\xa0\x80"}',
         "'utf-8' codec can't decode byte 0xed in position 7: invalid continuation byte"),
        ("[" * 100_000, "nested too deeply"),
        ("1" * 5000, "integer has too many digits"),
    ], ids=["syntax", "empty", "BOM in a str", "extra data", "undecodable bytes",
            "surrogate bytes", "nested too deeply", "integer too long"])
    def test_every_fault_is_one_value_error(self, text, reason):
        with pytest.raises(ValueError) as caught:
            decode(text)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"invalid JSON: {reason}"

    @pytest.mark.parametrize("text", [
        '"\\ud800"',
        '"\\uDC00"',
        '"a\\ud83d"',
        '"\\ude00\\ud83d"',
        '{"\\udfff": 1}',
        '[[{"a": ["x", "\\udbff"]}]]',
        '[NaN, "\\ud800"]',
        b'{"text": "\\ud800", "model_id": "m", "tokens": null}',
    ], ids=["high", "low, upper case", "high at the end", "pair reversed", "key", "nested",
            "beside NaN", "bytes"])
    def test_a_lone_surrogate_is_invalid_json(self, text):
        # json.loads decodes these to strings that no UTF-8 file can hold,
        # so the stage that wrote them ended in a UnicodeEncodeError.
        with pytest.raises(ValueError, match="^invalid JSON: lone surrogate in a string$"):
            decode(text)

    @pytest.mark.parametrize("text", [
        '"\\ud83d\\ude00"', '"\\uD83D\\uDE00"', b'["\\ud83d\\ude00", NaN]',
    ], ids=["lower case", "upper case", "bytes beside NaN"])
    def test_an_escaped_surrogate_pair_is_one_character(self, text):
        value = decode(text)
        assert value == json.loads(text)
        assert (value if isinstance(value, str) else value[0]) == "\U0001f600"

    def test_an_escaped_backslash_before_ud_is_no_surrogate(self):
        assert decode('{"a": "\\\\ud800"}') == {"a": "\\ud800"}


class TestReadJson:
    def test_returns_the_whole_value(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"a": [1, 2.5, null]}\n', encoding="utf-8")
        assert read_json(path) == {"a": [1, 2.5, None]}
        path.write_text("[1]", encoding="utf-8")
        assert read_json(path) == [1]

    @pytest.mark.parametrize("content, message", [
        (None, "file not found: {path}"),
        (b"{oops", "{path}: invalid JSON: Expecting property name enclosed in double quotes"),
        (b"", "{path}: invalid JSON: Expecting value"),
        (b'\xff{"a": 1}', "{path}: cannot read: 'utf-8' codec can't decode"),
        (b"[" * 100_000, "{path}: invalid JSON: nested too deeply"),
        (b"1" * 5000, "{path}: invalid JSON: integer has too many digits"),
        (b'{"datasets": {"d\\ud800": {}}}', "{path}: invalid JSON: lone surrogate in a string"),
    ], ids=["missing", "not json", "empty", "not utf-8", "nested too deeply",
            "integer too long", "lone surrogate"])
    def test_faults_are_worded_as_read_records_words_them(self, tmp_path, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError) as caught:
            read_json(path)
        assert str(caught.value).startswith(message.format(path=path))

    def test_a_directory_cannot_be_read(self, tmp_path):
        with pytest.raises(DataError, match=rf"^{tmp_path}: cannot read: "):
            read_json(tmp_path)


class TestReadStageFile:
    def test_returns_header_and_parsed_rows(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        path.write_text('{"config_digest": "abc", "stage": "order"}\n{"id": "a"}\n{"other": 1}\n')
        with pytest.raises(DataError, match=r"stage\.jsonl line 3: id must be a non-empty "):
            read_stage_file(path, "order", Row, "row_id")
        path.write_text('{"config_digest": "abc", "stage": "order"}\n{"id": "a"}\n')
        header, rows = read_stage_file(path, "order", Row, "row_id")
        assert header == {"config_digest": "abc", "stage": "order"}
        assert [r.row_id for r in rows] == ["a"]

    def test_a_header_without_the_values_needed_is_refused_after_the_rows(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        path.write_text('{"config_digest": "abc", "stage": "serialize", "dataset": "a", '
                        '"budget": 5}\n{"id": "a"}\n')
        header, rows = read_stage_file(path, "serialize", Row, "row_id", dataset="a", budget=5)
        assert rows[0].row_id == "a"
        with pytest.raises(DataError, match=(
            r"^\S+stage\.jsonl line 1: header has dataset 'a', budget 5, "
            r"this run needs dataset 'b', budget 5$"
        )):
            read_stage_file(path, "serialize", Row, "row_id", dataset="b", budget=5)
        with pytest.raises(DataError, match=r"line 1: header has backend None, this run needs "):
            read_stage_file(path, "serialize", Row, "row_id", backend="x")
        path.write_text('{"config_digest": "abc", "stage": "serialize", "dataset": "a"}\n{}\n')
        with pytest.raises(DataError, match=r"stage\.jsonl line 2: id must be "):
            read_stage_file(path, "predict", Row, "row_id", dataset="b")

    @pytest.mark.parametrize("header, need", [(5, 5.0), (5.0, 5), (1, True), (True, 1),
                                              (0, False), ("5", 5)])
    def test_a_needed_value_must_match_in_type_as_well(self, tmp_path, header, need):
        path = tmp_path / "stage.jsonl"
        path.write_text(json.dumps({"config_digest": "abc", "stage": "serialize",
                                    "budget": header}) + '\n{"id": "a"}\n')
        with pytest.raises(DataError, match=(
            rf"^\S+ line 1: header has budget {header!r}, this run needs budget {need!r}$"
        )):
            read_stage_file(path, "serialize", Row, "row_id", budget=need)

    def test_a_header_without_a_stage_is_refused(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        path.write_text('{"config_digest": "abc"}\n{"id": "a"}\n')
        with pytest.raises(DataError, match=r"^\S+ line 1: header is missing 'stage'$"):
            read_stage_file(path, "order", Row, "row_id")

    @pytest.mark.parametrize("header, fault", [
        ({}, "is missing 'strategy'"),
        ({"strategy": "bogus"}, "strategy must be a or b, got 'bogus'"),
        ({"strategy": None}, "strategy must be a or b, got None"),
    ], ids=["missing", "refused", "null"])
    def test_header_value_words_every_fault_on_line_1(self, header, fault):
        with pytest.raises(DataError, match=rf"^s\.jsonl line 1: header {fault}$"):
            header_value("s.jsonl", header, "strategy", check_choice, ("a", "b"))

    def test_header_value_returns_what_the_rule_admits(self):
        header = {"strategy": "b", "n": 0.5}
        assert header_value("s.jsonl", header, "strategy", check_choice, ("a", "b")) == "b"
        # Options reach the rule.
        assert header_value("s.jsonl", header, "n", check_number, 0, above=True) == 0.5

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl line 1: expected a stage header"):
            read_stage_file(path, "order", Row, "row_id")

    def test_header_after_a_blank_line_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('\n{"config_digest": "abc", "stage": "order"}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl line 1: expected a stage header"):
            read_stage_file(path, "order", Row, "row_id")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match=r"empty\.jsonl line 1: expected a stage header"):
            read_stage_file(path, "order", Row, "row_id")


def rows_then_interrupt():
    yield {"id": "a"}
    raise KeyboardInterrupt


class TestWriteStageFile:
    # The stage, run seed and settings of a stage file with no fields.
    STAGE = ("order", 0, {})

    def test_writes_header_then_rows_as_compact_utf8_json(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        rows = [{"id": "é", "x": [1.5, None]}, {"id": "b", "s": "\u2028"}]
        settings = {"metric": "anls", "dataset": "é"}
        write_stage_file(path, "eval", 7, settings, rows, n=2)
        header = {
            "config_digest": config_digest({"stage": "eval", "seed": 7, **settings}),
            "stage": "eval",
            "seed": derive_seed(7, "eval"),
            "metric": "anls",
            "dataset": "é",
            "n": 2,
        }
        expected = "".join(
            json.dumps(record, ensure_ascii=False) + "\n" for record in [header, *rows]
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert os.listdir(tmp_path) == ["stage.jsonl"]

    def test_mode_is_that_of_a_newly_opened_file(self, tmp_path):
        reference = tmp_path / "reference"
        with open(reference, "w", encoding="utf-8"):
            pass
        path = tmp_path / "stage.jsonl"
        write_stage_file(path, *self.STAGE, [])
        assert os.stat(path).st_mode == os.stat(reference).st_mode

    @pytest.mark.parametrize(
        "rows, exc",
        [([{"id": "a"}, {"id": "b", "score": math.nan}], ValueError),
         (rows_then_interrupt(), KeyboardInterrupt)],
        ids=["nan row", "interrupted"],
    )
    def test_a_write_that_fails_midway_leaves_no_file(self, tmp_path, rows, exc):
        # The file used to be written in place, so a failure left the rows
        # before it: a prefix that parses, cut at a line boundary.
        path = tmp_path / "stage.jsonl"
        with pytest.raises(exc):
            write_stage_file(path, *self.STAGE, rows)
        assert os.listdir(tmp_path) == []

    def test_an_unwritable_path_is_a_data_error_naming_it(self, tmp_path):
        # The error used to be an OSError; with the temporary file it would
        # name that file instead of the output.
        path = tmp_path / "missing" / "stage.jsonl"
        with pytest.raises(DataError, match=rf"^{path}: cannot write: No such file"):
            write_stage_file(path, *self.STAGE, [])
        directory = tmp_path / "taken"
        directory.mkdir()
        with pytest.raises(DataError, match=rf"^{directory}: cannot write: Is a directory"):
            write_stage_file(directory, *self.STAGE, [])
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(directory) == []


    def test_a_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        write_stage_file(path, *self.STAGE, [{"id": "old"}])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_stage_file(path, *self.STAGE, [{"id": "new", "score": math.inf}])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["stage.jsonl"]


# Each golden orders, contexts and eval file, by the loader of its kind.
GOLDEN_LOADERS = {"orders": load_orders, "contexts": load_contexts, "eval": load_eval}
GOLDEN_ROW_FILES = sorted(
    path for path in replay.EXPECTED.glob("*.jsonl")
    if path.name.split("-")[0] in GOLDEN_LOADERS
)


@pytest.mark.parametrize("path", GOLDEN_ROW_FILES, ids=lambda path: path.name)
def test_a_golden_record_is_its_row(path):
    # Every stage writes a record as its _asdict(), so a loaded record
    # encodes back to the line it was read from.
    _, records = GOLDEN_LOADERS[path.name.split("-")[0]](path)
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [json.dumps(r._asdict(), ensure_ascii=False, allow_nan=False) for r in records] == rows


def test_a_report_is_indented_json_under_its_digest_and_stage(tmp_path):
    path = tmp_path / "analysis.json"
    report = {"b": [1.5], "a": {"é": None}}
    write_report(path, "analyze", 7, {"datasets": ["x"]}, report)
    payload = {
        "config_digest": config_digest({"stage": "analyze", "seed": 7, "datasets": ["x"]}),
        "stage": "analyze",
        "seed": derive_seed(7, "analyze"),
        "datasets": ["x"],
        "report": report,
    }
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report(path, "analyze", 7, {}, {"score": math.nan})
    assert path.read_bytes() == expected.encode("utf-8")


STAGE_KINDS = ("order", "serialize", "predict", "eval", "sample")


@pytest.mark.parametrize("kind", STAGE_KINDS)
def test_a_stage_file_is_read_back_by_its_own_kind_alone(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    settings = {"setting": kind, "dataset": "d"}
    write_stage_file(path, kind, 7, settings, [{"id": "a"}])
    header, rows = read_stage_file(path, kind, Row, "row_id", dataset="d")
    assert header == {
        "config_digest": config_digest({"stage": kind, "seed": 7, **settings}),
        "stage": kind,
        "seed": derive_seed(7, kind),
        **settings,
    }
    assert [row.row_id for row in rows] == ["a"]
    for other in STAGE_KINDS:
        if other != kind:
            with pytest.raises(DataError, match=(
                rf"^{path} line 1: header stage must be {other}, got '{kind}'$"
            )):
                read_stage_file(path, other, Row, "row_id", dataset="d")


class TestWriteAtomically:
    def test_writes_each_line_then_a_newline(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n", encoding="utf-8")
        write_atomically(path, ['{\n  "é": 1\n}', ""])
        assert path.read_bytes() == '{\n  "é": 1\n}\n\n'.encode("utf-8")
        assert os.listdir(tmp_path) == ["report.json"]

    def test_a_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        path.write_text("old\n", encoding="utf-8")

        def refuse(source, target):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match=rf"^{path}: cannot write: Invalid cross-device link$"):
            write_atomically(path, ["new"])
        assert os.listdir(tmp_path) == ["report.json"]
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_a_directory_in_the_temporary_files_place_is_reported_and_kept(self, tmp_path):
        # Removing the temporary file used to raise on it, so the error that
        # escaped was that removal's, as a traceback.
        path = tmp_path / "report.json"
        squatter = tmp_path / f"report.json.{os.getpid()}.tmp"
        squatter.mkdir()
        with pytest.raises(DataError, match=rf"^{path}: cannot write: Is a directory$"):
            write_atomically(path, ["new"])
        assert sorted(os.listdir(tmp_path)) == [squatter.name]
