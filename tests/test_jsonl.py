import pytest

from docqa.errors import DataError
from docqa.jsonl import parse_rows, read_header


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


class TestReadHeader:
    def test_returns_header_without_parsing_later_lines(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        path.write_text('{"config_digest": "abc", "stage": "x"}\nnot json\n')
        assert read_header(path) == {"config_digest": "abc", "stage": "x"}

    def test_headerless_file_gives_none(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "a"}\n')
        assert read_header(path) is None

    def test_empty_file_gives_none(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_header(path) is None

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DataError, match="file not found"):
            read_header(tmp_path / "absent.jsonl")
