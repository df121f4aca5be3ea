from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the JSONL reader against its json.loads loop ----------------------------------
#
# ``read_jsonl_numbered`` decodes a line that is one document and its newline
# without ``json.loads``. The reference below is the reader as it stood before
# that fast path, copied verbatim: a ``json.loads`` per non-blank line. For
# every file the two must yield the same (line number, document) stream and,
# where the file is bad, raise a DataError with the same text after it.


def reference_read_lines_numbered(path):
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # decode the line's bytes for the reason
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DataError(f"{path}: line {lineno}: not valid UTF-8 "
                                        f"({exc.reason})") from exc
            if line.strip():
                yield lineno, line


def reference_read_jsonl_numbered(path):
    for lineno, line in reference_read_lines_numbered(path):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: not valid JSON ({exc.msg})") from exc
        if "\\u" in line:
            jsonio._refuse_lone_surrogates(path, line, lineno)
        yield lineno, doc


def _stream(reader, path) -> tuple[str, str]:
    """What ``reader`` yields before it stops, as a repr (NaN equals itself
    there, and -0.0 differs from 0.0), and the text of the error it stops with."""
    out = []
    try:
        for item in reader(path):
            out.append(item)
    except DataError as exc:
        return repr(out), str(exc)
    return repr(out), ""


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# documents json.dumps does not write: constants, duplicate keys, escapes
# (lone surrogates and a valid pair among them), odd spacing inside
_ODD_DOCS = st.sampled_from([
    "NaN", "-Infinity", '{"a": Infinity}', '{"a": 1, "a": 2}', '"\\ud800"',
    '{"k": ["ok", "\\uDFFF"]}', '"\\ud83d\\ude00"', '"\\\\ud800"', '{ "a" :1 }', "[ ]",
    '"tab\\tand \\u6771"', "1e400", "-0", "0.1e-2",
])
# lines that are no single document: trailing data, syntax errors, bare words
_BAD_DOCS = st.sampled_from([
    "{} {}", "{}x", "[1,]", "{", '{"a" 1}', "nan", "tru", '"open', "1 2", "{}}", "'a'",
    '"\\x"', "\x00",
])
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_PAD = st.sampled_from(["", "", "", " ", "\t", "  "])


@st.composite
def _jsonl_files(draw) -> bytes:
    """A JSONL file: documents (some odd, a few bad) padded or not, blank lines,
    LF, CRLF or CR endings, a final newline or none, a BOM, and now and then a byte
    that is not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["value", "value", "odd", "bad", "blank"]))
        if kind == "blank":
            lines.append(draw(_BLANK))
            continue
        if kind == "value":
            doc = json.dumps(draw(_VALUES), ensure_ascii=draw(st.booleans()))
        else:
            doc = draw(_ODD_DOCS if kind == "odd" else _BAD_DOCS)
        lines.append(draw(_PAD) + doc + draw(_PAD))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending
    if draw(st.integers(0, 7)) == 0:
        text = "\ufeff" + text
    data = text.encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc0\xaf", b"\x80"])) + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=_jsonl_files())
def test_jsonl_reader_matches_the_json_loads_loop(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(data)
        assert _stream(jsonio.read_jsonl_numbered, path) == _stream(
            reference_read_jsonl_numbered, path)


@pytest.mark.parametrize("text", [
    '{"a": 1}\n{"b": 2}', '{"a": 1}\r\n\r\n{"b": 2}\r\n', ' {"a": 1}\n{"b": 2} \n',
    '\ufeff{"a": 1}\n', '{"a": 1}\n{} {}\n', '{"a": 1}\n{}x', '[NaN, -Infinity]\n',
    '{"a": 1, "a": 2}\n', '{"a": "\\ud800"}\n', "{}\n\t\n  \n[]\n",
])
def test_jsonl_reader_edges_match_the_json_loads_loop(tmp_path, text):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert _stream(jsonio.read_jsonl_numbered, path) == _stream(
        reference_read_jsonl_numbered, path)


# The text decoder works ahead of the lines handed out, 8 KiB at a time, so in a
# large file it meets a bad byte while lines before it are still to come. These
# files are 64 KiB and more; line 701 starts far past the first chunk.
_BIG_LINES = 2000


def _big_file(ending: str, spoil: str) -> tuple[bytes, str]:
    """A JSONL file with CJK text, blank lines and ``ending``, spoiled as named,
    and the start of the error the readers must stop with."""
    lines = [b" \t" if i % 50 == 49 else json.dumps(
        {"id": i, "text": f"東京 line {i} " + "ü" * (i % 7)}, ensure_ascii=False).encode()
        for i in range(_BIG_LINES)]
    error = ""
    if spoil in ("byte", "json then byte"):
        lines[700] = lines[700][:12] + b"\xff" + lines[700][12:]
        error = "line 701: not valid UTF-8 (invalid start byte)"
    if spoil == "json then byte":
        lines[699] = b'{"id": 699,'
        error = "line 700: not valid JSON"
    data = ending.encode().join(lines)
    if spoil == "byte in unterminated last line":
        data += ending.encode() + '{"text": "東京"}'.encode()[:-3]
        error = f"line {_BIG_LINES + 1}: not valid UTF-8 (unexpected end of data)"
    else:
        data += ending.encode()
    assert len(data) >= 64 * 1024
    return data, error


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("spoil", ["", "byte", "json then byte",
                                   "byte in unterminated last line"])
@pytest.mark.parametrize("reader, reference", [
    (jsonio.read_lines_numbered, reference_read_lines_numbered),
    (jsonio.read_jsonl_numbered, reference_read_jsonl_numbered),
])
def test_readers_match_the_reference_past_the_first_decode_chunk(
        tmp_path, ending, spoil, reader, reference):
    path = tmp_path / "rows.jsonl"
    data, error = _big_file(ending, spoil)
    path.write_bytes(data)
    stream, message = _stream(reader, path)
    assert (stream, message) == _stream(reference, path)
    if reader is jsonio.read_lines_numbered and spoil == "json then byte":
        error = "line 701: not valid UTF-8"  # the line reader checks no JSON
    assert message.startswith(f"{path}: {error}") if error else message == ""


# -- blank lines ----------------------------------------------------------------


@pytest.mark.parametrize("blank", ["\u3000", "\u00a0", "\x1c", "\x0b", "\x0c", " \u3000\t"])
def test_a_line_of_other_whitespace_is_not_blank(tmp_path, blank):
    path = tmp_path / "rows.jsonl"
    path.write_text(f"{{}}\n \t\r\n{blank}\n{{}}\n", encoding="utf-8")
    assert list(jsonio.read_lines_numbered(path))[1] == (3, f"{blank}\n")
    with pytest.raises(DataError) as exc:
        list(jsonio.read_jsonl_numbered(path))
    assert str(exc.value).startswith(f"{path}: line 3: not valid JSON")
