"""The toolkit's one file writer, plus JSON/JSONL readers.

Every artifact goes through these writers so that repeated runs with equal
inputs produce byte-identical files (sorted keys, no ASCII escaping of CJK
text, trailing newline). Each write goes to a sibling temporary file that
replaces the target only once it is complete, so an interrupted run never
leaves a half-written artifact behind.

Bytes that are not UTF-8 give a ``DataError`` naming the file, and for a
line reader the line. So does a JSON escape of a lone surrogate
(``"\\ud800"``), which decodes but could never be written back as UTF-8;
the JSON readers name its line. The line readers are generators: they
yield each non-blank line (or its JSON document) with its line number as
they read, so a caller builds its objects in the same pass and the first
bad line in file order is the one reported.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .errors import DataError


# One encoder for every line: ``json.dumps`` with these options builds one per call.
_encode_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def json_line(obj: Any) -> str:
    return _encode_line(obj)


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` when the block completes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle on ``path``; undecodable bytes raise a DataError naming it."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines``, each followed by a newline, written one at a time."""
    with _replacing(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> None:
    write_lines(path, map(json_line, rows))


# A JSON string literal; none spans a line, since a raw newline is invalid in one.
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _refuse_lone_surrogates(path: str | Path, text: str, first_line: int = 1) -> None:
    """Raise a DataError naming the first line of ``text``, valid JSON whose first
    line is ``first_line``, with a string holding a lone surrogate. Only a line
    with a ``\\ud`` escape can hold one."""
    if "\\ud" not in text and "\\uD" not in text:
        return
    for lineno, line in enumerate(text.split("\n"), start=first_line):
        if "\\ud" in line or "\\uD" in line:
            for literal in _STRING.findall(line):
                try:
                    json.loads(literal).encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"{path}: line {lineno}: not valid Unicode "
                                    "(lone surrogate)") from None


def read_lines_numbered(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line, as read; blank lines (only
    spaces, tabs and line breaks, the whitespace JSON allows) are counted.

    The file is decoded once, strictly. The decoder works ahead of the lines
    handed out, a chunk at a time, so when it meets bytes that are not UTF-8
    the file is read again from the first line not yet handed out, each line
    checked as it is read: the error names the first bad line, and a caller
    still meets every line before it."""
    lineno = 0
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace() or line.strip(" \t\r\n"):
                    yield lineno, line
        return
    except UnicodeDecodeError:
        pass
    yield from _read_lines_checked(path, lineno)


def _read_lines_checked(path: str | Path, skip: int) -> Iterator[tuple[int, str]]:
    """``read_lines_numbered`` after its first ``skip`` lines, decoding each line
    on its own so that the first one holding bytes that are not UTF-8 is named."""
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(islice(fh, skip, None), start=skip + 1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # decode the line's bytes for the reason
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DataError(f"{path}: line {lineno}: not valid UTF-8 "
                                        f"({exc.reason})") from exc
            if not line.isspace() or line.strip(" \t\r\n"):
                yield lineno, line


# ``json.loads`` on a line skips whitespace around the document with two regex
# matches; a line that is one document and its newline needs neither.
_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl_numbered(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, document) for each non-blank line, as read.

    A line that is exactly one document followed by ``"\\n"`` is decoded
    directly; any other line (surrounding whitespace, no final newline, a
    BOM, trailing data, a syntax error) goes through ``json.loads``, which
    accepts or rejects it with its own message."""
    for lineno, line in read_lines_numbered(path):
        try:
            doc, end = _raw_decode(line)
        except json.JSONDecodeError:
            end = 0
        if end != len(line) - 1 or line[-1] != "\n":
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: not valid JSON ({exc.msg})") from exc
        if "\\u" in line:
            _refuse_lone_surrogates(path, line, lineno)
        yield lineno, doc


def write_json(path: str | Path, obj: Any) -> None:
    write_text(path, json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> Any:
    with open_text(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno}: not valid JSON ({exc.msg})") from exc
    _refuse_lone_surrogates(path, text)
    return doc
