from __future__ import annotations

import pytest

from mremix import jsonio
from mremix.errors import DataError


def _fail_on_third_row(monkeypatch):
    real, calls = jsonio.json_line, []

    def failing(obj):
        calls.append(obj)
        if len(calls) == 3:
            raise OSError("write failed")
        return real(obj)

    monkeypatch.setattr(jsonio, "json_line", failing)


def test_interrupted_overwrite_keeps_previous_bytes(tmp_path, monkeypatch):
    target = tmp_path / "rows.jsonl"
    jsonio.write_jsonl(target, [{"i": 0}])
    before = target.read_bytes()
    _fail_on_third_row(monkeypatch)
    with pytest.raises(OSError):
        jsonio.write_jsonl(target, ({"i": i} for i in range(5)))
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_writers_emit_canonical_bytes(tmp_path):
    jsonio.write_json(tmp_path / "a.json", {"b": "東京", "a": 1})
    jsonio.write_jsonl(tmp_path / "a.jsonl", [{"b": 1, "a": 2}])
    jsonio.write_text(tmp_path / "sub" / "a.md", "| x |\n")
    assert (tmp_path / "a.json").read_bytes() == '{\n  "a": 1,\n  "b": "東京"\n}\n'.encode()
    assert (tmp_path / "a.jsonl").read_bytes() == b'{"a": 2, "b": 1}\n'
    assert (tmp_path / "sub" / "a.md").read_bytes() == b"| x |\n"


@pytest.mark.parametrize("reader", [jsonio.read_json, jsonio.read_jsonl_numbered])
def test_readers_name_a_non_utf8_file(tmp_path, reader):
    path = tmp_path / "bad.json"
    where = "" if reader is jsonio.read_json else "line 1: "  # a line reader names the line
    path.write_bytes(b'{"a": "\xe9"}\n')
    with pytest.raises(DataError, match=f"bad.json: {where}not valid UTF-8"):
        list(reader(path))  # the line reader is a generator: it reads as it is consumed


def test_interrupted_line_write_keeps_previous_bytes(tmp_path):
    target = tmp_path / "rows.jsonl"
    jsonio.write_lines(target, ["kept"])

    def lines():
        yield "a"
        raise OSError("write failed")

    with pytest.raises(OSError):
        jsonio.write_lines(target, lines())
    assert target.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


# Line 2 holds an escaped surrogate pair and an escaped backslash before "ud800",
# both valid; line 3 the escape of a lone low surrogate.
_SURROGATES = ('{"a": "x",\n "b": "\\ud83d\\ude00 \\\\ud800",\n'
               ' "c": ["ok", "\\uDFFF"]}\n')


@pytest.mark.parametrize("reader, line", [(jsonio.read_json, 3),
                                          (jsonio.read_jsonl_numbered, 2)])
def test_readers_name_the_line_of_a_lone_surrogate(tmp_path, reader, line):
    path = tmp_path / "bad.json"
    text = _SURROGATES if reader is jsonio.read_json else (
        '{"a": "\\ud83d\\ude00 \\\\ud800"}\n{"c": ["ok", "\\uDFFF"]}\n')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"bad.json: line {line}: not valid Unicode "
                                        r"\(lone surrogate\)"):
        list(reader(path))


def test_escaped_surrogate_pairs_load(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(_SURROGATES.replace("\\uDFFF", "\\uD83D\\uDE00"), encoding="utf-8")
    assert jsonio.read_json(path) == {"a": "x", "b": "😀 \\ud800", "c": ["ok", "😀"]}
