"""The key=value reader and the typed-field rule the config and corpus loaders share."""

import pytest

from handgeo.errors import (
    ConfigError,
    CorpusError,
    FormatError,
    HandGeoError,
    ScalerError,
    read_config,
    typed_field,
)


class TestReadConfig:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a=1\nb=2\n", {"a": "1", "b": "2"}),
            ("  a  =  1  \n", {"a": "1"}),
            ("# a note\n\n   \na=1  # why\n", {"a": "1"}),
            ("a=x=y\n", {"a": "x=y"}),
            ("a=\n", {"a": ""}),
            ("a=1\r\nb=2\r\n", {"a": "1", "b": "2"}),
            ("", {}),
        ],
        ids=["pairs", "padding", "comments_and_blanks", "equals_in_value", "empty_value",
             "crlf", "empty_file"],
    )
    def test_key_value_lines(self, tmp_path, text, expected):
        path = tmp_path / "run.cfg"
        path.write_bytes(text.encode())
        assert read_config(path, ConfigError) == expected

    @pytest.mark.parametrize("error", [ConfigError, CorpusError, FormatError])
    def test_a_line_without_equals_is_an_error_of_the_given_category_naming_its_line(
        self, tmp_path, error
    ):
        path = tmp_path / "run.cfg"
        path.write_text("a=1\n# note\nnot a pair  # why\n")
        with pytest.raises(error) as rejected:
            read_config(path, error)
        assert str(rejected.value) == f"{path}:3: expected key=value, got 'not a pair  # why'"

    @pytest.mark.parametrize("error", [ConfigError, CorpusError])
    @pytest.mark.parametrize(
        "text,message",
        [
            ("a=1\nb=2\na=1\n", "3: key 'a' repeats line 1"),
            ("a=1\n# a=2\nb=2\n  a = 3  # why\n", "4: key 'a' repeats line 1"),
            ("a=1\n=5\n", "2: empty key in '=5'"),
            ("  = 5\n", "1: empty key in '  = 5'"),
        ],
        ids=["repeated", "repeated_after_a_comment", "empty", "padded_empty"],
    )
    def test_a_repeated_or_empty_key_is_an_error_of_the_given_category_naming_its_line(
        self, tmp_path, error, text, message
    ):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(error) as rejected:
            read_config(path, error)
        assert str(rejected.value) == f"{path}:{message}"

    def test_a_non_utf8_byte_is_an_error_naming_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"a=1\nb=\xff\n")
        with pytest.raises(CorpusError) as rejected:
            read_config(path, CorpusError)
        assert str(rejected.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_a_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_config(tmp_path / "absent.cfg", ConfigError)


def _positive(text):
    value = int(text)
    if value < 1:
        raise ScalerError(f"{value} is not positive")
    return value


class TestTypedField:
    def test_the_cast_value(self):
        assert typed_field("f", {"n": "3"}, "n", _positive, ConfigError) == 3

    def test_a_missing_key_names_the_file_and_key(self):
        with pytest.raises(CorpusError) as rejected:
            typed_field("f", {"m": "3"}, "n", _positive, CorpusError)
        assert str(rejected.value) == "f: missing key 'n'"

    @pytest.mark.parametrize(
        "text,message",
        [("x", "invalid literal for int() with base 10: 'x'"), ("0", "0 is not positive")],
        ids=["value_error", "handgeo_error"],
    )
    def test_a_rejected_value_is_one_error_of_the_given_category(self, text, message):
        with pytest.raises(HandGeoError) as rejected:
            typed_field("f", {"n": text}, "n", _positive, ConfigError)
        assert type(rejected.value) is ConfigError
        assert str(rejected.value) == f"f: key 'n': {message}"
