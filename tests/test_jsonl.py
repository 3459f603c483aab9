import errno
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docqa.errors import DataError
from docqa.jsonl import (
    parse_rows,
    read_json,
    read_records,
    read_stage_file,
    write_atomically,
    write_stage_file,
)


class Row:
    def __init__(self, record):
        self.row_id = record["id"]


class TestParseRows:
    def test_parses_in_order(self):
        rows = [(1, {"id": "a"}), (2, {"id": "b"})]
        assert [r.row_id for r in parse_rows("f.jsonl", rows, Row, "row_id")] == ["a", "b"]

    def test_key_error_names_path_and_line(self):
        with pytest.raises(DataError, match=r"^f\.jsonl line 4: 'id'$"):
            parse_rows("f.jsonl", [(4, {"other": 1})], Row, "row_id")

    @pytest.mark.parametrize("exc", [ValueError("bad value"), TypeError("bad type")])
    def test_value_and_type_errors_name_path_and_line(self, exc):
        def parse(record):
            raise exc

        with pytest.raises(DataError, match=rf"^f\.jsonl line 2: {exc}$"):
            parse_rows("f.jsonl", [(2, {})], parse, "row_id")

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
    ], ids=["missing", "not json", "empty", "not utf-8", "nested too deeply",
            "integer too long"])
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
        path.write_text('{"config_digest": "abc", "stage": "x"}\n{"id": "a"}\n{"other": 1}\n')
        with pytest.raises(DataError, match=r"stage\.jsonl line 3: 'id'$"):
            read_stage_file(path, Row, "row_id")
        path.write_text('{"config_digest": "abc", "stage": "x"}\n{"id": "a"}\n')
        header, rows = read_stage_file(path, Row, "row_id")
        assert header == {"config_digest": "abc", "stage": "x"}
        assert [r.row_id for r in rows] == ["a"]

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl line 1: expected a stage header"):
            read_stage_file(path, Row, "row_id")

    def test_header_after_a_blank_line_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('\n{"config_digest": "abc"}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl line 1: expected a stage header"):
            read_stage_file(path, Row, "row_id")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match=r"empty\.jsonl line 1: expected a stage header"):
            read_stage_file(path, Row, "row_id")


def rows_then_interrupt():
    yield {"id": "a"}
    raise KeyboardInterrupt


class TestWriteStageFile:
    HEADER = {"config_digest": "abc"}

    def test_writes_header_then_rows_as_compact_utf8_json(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        rows = [{"id": "é", "x": [1.5, None]}, {"id": "b", "s": "\u2028"}]
        write_stage_file(path, self.HEADER, rows)
        expected = "".join(
            json.dumps(record, ensure_ascii=False) + "\n" for record in [self.HEADER, *rows]
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert os.listdir(tmp_path) == ["stage.jsonl"]

    def test_mode_is_that_of_a_newly_opened_file(self, tmp_path):
        reference = tmp_path / "reference"
        with open(reference, "w", encoding="utf-8"):
            pass
        path = tmp_path / "stage.jsonl"
        write_stage_file(path, self.HEADER, [])
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
            write_stage_file(path, self.HEADER, rows)
        assert os.listdir(tmp_path) == []

    def test_an_unwritable_path_is_a_data_error_naming_it(self, tmp_path):
        # The error used to be an OSError; with the temporary file it would
        # name that file instead of the output.
        path = tmp_path / "missing" / "stage.jsonl"
        with pytest.raises(DataError, match=rf"^{path}: cannot write: No such file"):
            write_stage_file(path, self.HEADER, [])
        directory = tmp_path / "taken"
        directory.mkdir()
        with pytest.raises(DataError, match=rf"^{directory}: cannot write: Is a directory"):
            write_stage_file(directory, self.HEADER, [])
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(directory) == []


    def test_a_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        write_stage_file(path, self.HEADER, [{"id": "old"}])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_stage_file(path, self.HEADER, [{"id": "new", "score": math.inf}])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["stage.jsonl"]


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
