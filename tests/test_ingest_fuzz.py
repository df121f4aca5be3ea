"""Fuzzing the record reader through ``mremix validate``, and the draw and
generation readers through ``mremix evaluate``.

A valid JSONL or TSV record file, blank lines included, loads to exactly the
records it was written from. Mutating one of its lines (a wrong JSON type at
any depth, a missing key, a pair that is not an object, broken JSON, a
schema violation of the record or of one of its pairs, a non-canonical TSV
pairs column, a byte that is not UTF-8) makes ``validate`` exit 1 with one
``data error:`` line on stderr that names the file and the first bad line,
even when a later line is broken too.
The same holds for a shape error in one line of a draw or generation file
under ``evaluate``.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mremix import (DatasetDescriptor, FormatTag, LabelEntityPair, MreRecord, build_example,
                    load_split)
from mremix.cli import main
from mremix.formats import TAGS
from mremix.pairs import parse_canonical, serialize_pairs

DESC = DatasetDescriptor.builtin("SCNM", "en")
_CHARS = "ab xyz東京;:\\'\"{}[],"
_SOLID = st.text(alphabet=_CHARS, min_size=1, max_size=8).filter(str.strip)
_BLANK = st.sampled_from(["", "  ", "\t"])
_NON_STRINGS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NON_LISTS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_NON_OBJECTS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                         st.lists(st.integers(), max_size=2))
# (field, value) pairs that break the schema, not the record's shape
_VIOLATIONS = [("text", " "), ("text_label", ""), ("text_label", "Bogus")]
# the same for one pair: (pair field, value, message)
_PAIR_VIOLATIONS = [("entity", "", "must be non-empty"),
                    ("label", "Bogus", "'Bogus' is not in the word-level schema")]


@st.composite
def _records(draw) -> list[MreRecord]:
    records = []
    for i in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(st.builds(LabelEntityPair, st.sampled_from(DESC.schema.word_labels),
                                        _SOLID), max_size=3))
        records.append(MreRecord(id=f"r{i}{draw(st.text(alphabet='xy:', max_size=2))}",
                                 text=draw(_SOLID),
                                 text_label=draw(st.sampled_from(DESC.schema.text_labels)),
                                 pairs=pairs))
    return records


def _json_line(record: MreRecord) -> str:
    return json.dumps(record.to_dict(), ensure_ascii=False)


def _tsv_line(record: MreRecord) -> str:
    return "\t".join([record.id, record.text, record.text_label, serialize_pairs(record.pairs)])


def _layout(draw, lines: list[str]) -> tuple[list[str], list[int]]:
    """``lines`` with blank lines drawn in between, and the line number of each."""
    out, numbers = [], []
    for line in lines:
        out += draw(st.lists(_BLANK, max_size=2))
        out.append(line)
        numbers.append(len(out))
    return out, numbers


def _validate(directory: str, name: str, body: bytes, fmt: str) -> tuple[Path, int, str, str]:
    path = Path(directory) / name
    path.write_bytes(body)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", "--family", DESC.family, "--language", DESC.language,
                     "--record-format", fmt, str(path)])
    return path, code, out.getvalue(), err.getvalue()


def _spoil_json(draw, record: MreRecord) -> tuple[str, str]:
    """One bad JSONL line made from ``record``, and a fragment its error must hold."""
    doc = record.to_dict()
    kind = draw(st.sampled_from(["root", "field", "pairs", "pair", "pair_field", "missing",
                                 "json", "schema"]))
    if kind == "root":
        return json.dumps(draw(_NON_OBJECTS)), "malformed record (expected an object"
    if kind == "field":
        key = draw(st.sampled_from(["id", "text", "text_label"]))
        doc[key] = draw(_NON_STRINGS)
        return json.dumps(doc), f"malformed record ('{key}' must be a string"
    if kind == "pairs":
        doc["pairs"] = draw(_NON_LISTS)
        return json.dumps(doc), "malformed record ('pairs' must be a list"
    if kind == "pair" or (kind == "pair_field" and not doc["pairs"]):
        i = draw(st.integers(0, len(doc["pairs"])))
        doc["pairs"].insert(i, draw(_NON_OBJECTS))
        return json.dumps(doc), f"malformed record (pairs[{i}]: must be an object"
    if kind == "pair_field":
        i = draw(st.integers(0, len(doc["pairs"]) - 1))
        key = draw(st.sampled_from(["label", "entity"]))
        doc["pairs"][i][key] = draw(_NON_STRINGS)
        return json.dumps(doc), f"malformed record (pairs[{i}]: '{key}' must be a string"
    if kind == "missing":
        if doc["pairs"] and draw(st.booleans()):
            i = draw(st.integers(0, len(doc["pairs"]) - 1))
            key = draw(st.sampled_from(["label", "entity"]))
            del doc["pairs"][i][key]
            return json.dumps(doc), f"malformed record (pairs[{i}]: missing field '{key}')"
        key = draw(st.sampled_from(["id", "text", "text_label", "pairs"]))
        del doc[key]
        return json.dumps(doc), f"malformed record (missing field '{key}')"
    if kind == "json":
        line = _json_line(record)
        if draw(st.booleans()):
            return line[:draw(st.integers(1, len(line) - 1))], "not valid JSON"
        return line + draw(st.sampled_from(["x", ",", "{}", "]"])), "not valid JSON"
    if doc["pairs"] and draw(st.booleans()):
        i = draw(st.integers(0, len(doc["pairs"]) - 1))
        key, value, message = draw(st.sampled_from(_PAIR_VIOLATIONS))
        doc["pairs"][i][key] = value
        return json.dumps(doc), f"record {record.id!r}: pairs[{i}].{key}: {message}"
    key, value = draw(st.sampled_from(_VIOLATIONS))
    doc[key] = value
    return json.dumps(doc), f"record {record.id!r}: {key}: "


_NOT_CANONICAL = st.sampled_from(["", "none", "people:Tanaka", "people: a;", "people: a;;b",
                                  " people: a", "people: a; ", "people", "people: a\\"])


def _spoil_tsv(draw, record: MreRecord) -> tuple[str, str]:
    """One bad TSV line made from ``record``, and a fragment its error must hold."""
    cols = _tsv_line(record).split("\t")
    kind = draw(st.sampled_from(["columns", "pairs", "schema"]))
    if kind == "columns":
        cols = cols[:draw(st.integers(1, 3))] if draw(st.booleans()) else cols + ["extra"]
        return "\t".join(cols), f"malformed record (expected 4 tab-separated columns, got {len(cols)}"
    if kind == "pairs":
        cols[3] = draw(_NOT_CANONICAL)
        assume(parse_canonical(cols[3]) is None)
        return "\t".join(cols), "malformed record (pairs column is not canonical"
    if record.pairs and draw(st.booleans()):
        # an empty entity is canonical: the column reads "people: "
        i = draw(st.integers(0, len(record.pairs) - 1))
        key, value, message = draw(st.sampled_from(_PAIR_VIOLATIONS))
        pairs = list(record.pairs)
        pairs[i] = pairs[i]._replace(**{key: value})
        cols[3] = serialize_pairs(pairs)
        return "\t".join(cols), f"record {record.id!r}: pairs[{i}].{key}: {message}"
    key, value = draw(st.sampled_from(_VIOLATIONS))
    cols[1 if key == "text" else 2] = value
    return "\t".join(cols), f"record {record.id!r}: {key}: "


def _encode(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestRecordReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), records=_records(), fmt=st.sampled_from(["jsonl", "tsv"]))
    def test_valid_files_load_their_records(self, data, records, fmt):
        to_line = _json_line if fmt == "jsonl" else _tsv_line
        lines, _ = _layout(data.draw, [to_line(r) for r in records])
        lines += data.draw(st.lists(_BLANK, max_size=2))
        with tempfile.TemporaryDirectory() as tmp:
            path, code, out, err = _validate(tmp, f"ok.{fmt}", _encode(lines), fmt)
            assert load_split(path, DESC, "train", fmt=fmt).records == tuple(records)
        assert (code, out, err) == (0, f"OK {path} ({len(records)} records)\n", "")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), records=_records(), fmt=st.sampled_from(["jsonl", "tsv"]),
           broken_after=st.booleans())
    def test_first_bad_line_is_one_data_error(self, data, records, fmt, broken_after):
        to_line, spoil = (_json_line, _spoil_json) if fmt == "jsonl" else (_tsv_line, _spoil_tsv)
        k = data.draw(st.integers(0, len(records) - 1))
        bad, fragment = spoil(data.draw, records[k])
        tail = [to_line(r) for r in records[k + 1:]] + (["{broken"] if broken_after else [])
        lines, numbers = _layout(data.draw, [to_line(r) for r in records[:k]] + [bad] + tail)
        with tempfile.TemporaryDirectory() as tmp:
            path, code, out, err = _validate(tmp, f"bad.{fmt}", _encode(lines), fmt)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"data error: {path}: line {numbers[k]}: "), err
        assert fragment in err, err

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), records=_records(), fmt=st.sampled_from(["jsonl", "tsv"]),
           junk=st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"]))
    def test_non_utf8_byte_is_one_data_error_naming_the_file(self, data, records, fmt, junk):
        to_line = _json_line if fmt == "jsonl" else _tsv_line
        lines, _ = _layout(data.draw, [to_line(r) for r in records])
        body = _encode(lines)
        at = data.draw(st.integers(0, len(body)))
        with tempfile.TemporaryDirectory() as tmp:
            path, code, out, err = _validate(tmp, f"bytes.{fmt}", body[:at] + junk + body[at:], fmt)
        assert (code, out) == (1, "")
        line = body[:at].count(b"\n") + 1
        assert err.count("\n") == 1
        assert err.startswith(f"data error: {path}: line {line}: not valid UTF-8 ("), err


def _evaluate(directory: str, tag: FormatTag, draw_body: bytes,
              generation_body: bytes) -> tuple[Path, Path, int, str, str]:
    draws, generations = Path(directory) / "gold.draw0.jsonl", Path(directory) / "gen.jsonl"
    draws.write_bytes(draw_body)
    generations.write_bytes(generation_body)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["evaluate", "--family", DESC.family, "--language", DESC.language,
                     "--tag", tag.value, "--draws", str(draws), "--generations", str(generations),
                     "--out", str(Path(directory) / "out")])
    return draws, generations, code, out.getvalue(), err.getvalue()


def _rows(examples: list, in_draws: bool) -> list[dict]:
    """The draw rows of ``examples``, or generation rows that reproduce their targets."""
    return [ex.to_dict() if in_draws else {"record_id": ex.record_id, "output": ex.target}
            for ex in examples]


def _spoil_row(draw, doc: dict, in_draws: bool) -> tuple[str, str]:
    """One bad line made from a draw or generation row, and a fragment its error must hold."""
    kind = draw(st.sampled_from(["root", "missing", "field", "json"] + ["tag"] * in_draws))
    if kind == "root":
        return json.dumps(draw(_NON_OBJECTS)), "expected an object"
    if kind == "json":
        line = json.dumps(doc, ensure_ascii=False)
        return line[:draw(st.integers(1, len(line) - 1))], "not valid JSON"
    if kind == "tag":
        doc["tag"] = draw(st.text(max_size=12).filter(lambda value: value not in TAGS))
        return json.dumps(doc), "'tag' must be one of ("
    if kind == "missing":
        key = draw(st.sampled_from(sorted(doc) if in_draws else ["output"]))
        del doc[key]
        return json.dumps(doc), f"missing field '{key}'" if in_draws else "an 'output' field"
    key = draw(st.sampled_from(sorted(doc)))
    doc[key] = draw(_NON_STRINGS.filter(lambda value: value is not None or key != "record_id"))
    return json.dumps(doc), f"'{key}' must be a string"


class TestEvaluateReaderFuzz:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), records=_records(), tag=st.sampled_from(list(FormatTag)))
    def test_valid_files_evaluate(self, data, records, tag):
        examples = [build_example(record, tag, DESC) for record in records]
        gold, _ = _layout(data.draw, [json.dumps(row) for row in _rows(examples, True)])
        generated = [json.dumps(row) for row in _rows(examples, False)]
        with tempfile.TemporaryDirectory() as tmp:
            *_, code, out, err = _evaluate(tmp, tag, _encode(gold), _encode(generated))
        assert (code, err) == (0, "")
        assert all(line.endswith(" mean: 1.0000") for line in out.splitlines())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), records=_records(), tag=st.sampled_from(list(FormatTag)),
           in_draws=st.booleans(), after=st.sampled_from([b"", b"{broken", b"\xff"]))
    def test_first_bad_line_is_one_data_error(self, data, records, tag, in_draws, after):
        examples = [build_example(record, tag, DESC) for record in records]
        lines = [json.dumps(row, ensure_ascii=False) for row in _rows(examples, in_draws)]
        k = data.draw(st.integers(0, len(lines) - 1))
        bad, fragment = _spoil_row(data.draw, _rows(examples, in_draws)[k], in_draws)
        lines, numbers = _layout(data.draw, lines[:k] + [bad] + lines[k + 1:])
        spoiled = _encode(lines) + after + b"\n"
        valid = _encode([json.dumps(row) for row in _rows(examples, not in_draws)])
        with tempfile.TemporaryDirectory() as tmp:
            draws, generations, code, out, err = _evaluate(
                tmp, tag, *((spoiled, valid) if in_draws else (valid, spoiled)))
        path = draws if in_draws else generations
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"data error: {path}: line {numbers[k]}: "), err
        assert fragment in err, err
