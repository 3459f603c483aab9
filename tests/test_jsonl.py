import errno
import json
import math
import os

import pytest

from docqa.errors import DataError
from docqa.jsonl import parse_rows, read_json, read_stage_file, write_atomically, write_stage_file


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
    ], ids=["missing", "not json", "empty", "not utf-8"])
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
