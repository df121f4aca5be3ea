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
