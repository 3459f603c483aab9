import pytest

from docqa.errors import DataError
from docqa.jsonl import parse_rows, read_stage_file


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
