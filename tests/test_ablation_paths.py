"""Differential tests of the ablation path's fast code against the code it replaced.

``formats`` builds each row of a format file by concatenating JSON strings
that are encoded once per record; ``parse_canonical`` decides whether a
string without a backslash is canonical without rendering its pairs back;
``_match_count`` counts pair tuples directly, walking a copy of the gold
list; and ``build-formats`` renders every record before it writes a file.
The references below are the code as it stood before, copied verbatim: for
every input, the fast code must give the same bytes, the same pairs (or
None), the same count and the same first error.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import DatasetDescriptor, FormatTag, LabelEntityPair, MreRecord, runner
from mremix.core import validate_record
from mremix.errors import DataError, SerializationError
from mremix.evaluation import _match_count
from mremix.formats import LAYOUT, SEPARATOR, FormattedExample, build_corpus
from mremix.ingest import load_split, repeated_test_sample
from mremix.jsonio import json_line, write_jsonl
from mremix.pairs import EMPTY_PAIRS_TOKEN, _decode, _split, parse_canonical, serialize_pairs

from test_evaluation import oracle_match_count

OPEN = DatasetDescriptor.builtin("TCONER", "en")


# -- the references -------------------------------------------------------------


class ReferenceRenderedRecord(NamedTuple):
    id: str
    text: str
    text_label: str
    pairs: str


def reference_render_record(record: MreRecord, desc: DatasetDescriptor) -> ReferenceRenderedRecord:
    violations = validate_record(record, desc)
    if violations:
        raise DataError(
            f"record {record.id!r}: " + "; ".join(str(v) for v in violations)
        )
    try:
        pairs = serialize_pairs(record.pairs)
    except SerializationError as exc:
        i = next(i for i, pair in enumerate(record.pairs) if ": " in pair.label)
        raise SerializationError(f"record {record.id!r}: pairs[{i}]: {exc}") from exc
    return ReferenceRenderedRecord(record.id, record.text, record.text_label, pairs)


def reference_level(row: ReferenceRenderedRecord, level: str) -> str:
    if level != "joint":
        return row.pairs if level == "word" else row.text_label
    if SEPARATOR in row.text_label:
        raise SerializationError(
            f"record {row.id!r}: text label contains the separator and "
            "cannot appear in a joint target"
        )
    return row.text_label + SEPARATOR + row.pairs


def reference_example(row: ReferenceRenderedRecord, tag: FormatTag) -> FormattedExample:
    appended, level = LAYOUT[tag]
    target = reference_level(row, level)
    inp = row.text if appended is None else row.text + SEPARATOR + reference_level(row, appended)
    return FormattedExample(input=inp, target=target, tag=tag, record_id=row.id)


def reference_build_corpus(records, tag, desc, rendered=None) -> list[FormattedExample]:
    if rendered is None:
        rendered = {}
    examples = []
    for record in records:
        row = rendered.get(record.id)
        if row is None:
            row = rendered[record.id] = reference_render_record(record, desc)
        examples.append(reference_example(row, tag))
    return examples


def reference_lines(records, tag, desc) -> list[str]:
    """The lines the format writer wrote: each example's dict through ``json_line``."""
    return [json_line(ex.to_dict()) for ex in reference_build_corpus(records, tag, desc)]


def reference_parse_canonical(s: str):
    if s == EMPTY_PAIRS_TOKEN:
        return ()
    pairs = []
    for segment in _split(s, "; "):
        label, boundary, entity = segment.partition(": ")
        if not boundary:
            return None
        pairs.append(LabelEntityPair(_decode(label), _decode(entity)))
    return tuple(pairs) if serialize_pairs(pairs) == s else None


def reference_match_count(gold, pred, fold_label_case: bool) -> int:
    if gold == pred:  # an exact prediction, the common case
        return len(gold)
    if fold_label_case:
        gold = [(label.casefold(), entity) for label, entity in gold]
        pred = [(label.casefold(), entity) for label, entity in pred]
    return (Counter(gold) & Counter(pred)).total()


def reference_first_error(sources, tags, desc) -> Exception | None:
    """The error the build loop raised first: files in (tag, draw, record) order."""
    rendered: dict = {}
    try:
        for tag in tags:
            for records in sources:
                reference_build_corpus(records, tag, desc, rendered)
    except (DataError, SerializationError) as exc:
        return exc
    return None


def _outcome(fn, *args):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except (DataError, SerializationError) as exc:
        return None, (type(exc), str(exc))


# -- rows -------------------------------------------------------------------------

# What JSON escapes (control characters, quote, backslash) or keeps raw
# (DEL, U+2028/2029, non-BMP, CJK), and the pair grammar's own characters.
_SPECIAL = st.sampled_from(list("\x00\x01\x08\x1f\x7f\u2028\u2029\n\r\t\"\\;: 東京\U0001f600"))
_TEXT = st.text(st.one_of(_SPECIAL, st.characters()), max_size=10)


@st.composite
def _records(draw, min_size=1):
    records = []
    for i in range(draw(st.integers(min_size, 4))):
        pairs = draw(st.lists(st.tuples(_TEXT, _TEXT), max_size=3))
        records.append(MreRecord(id=f"r{i}" + draw(_TEXT), text=draw(_TEXT),
                                 text_label=draw(_TEXT),
                                 pairs=tuple(LabelEntityPair(l, e) for l, e in pairs)))
    return records


@settings(max_examples=150, deadline=None)
@given(records=_records())
def test_rows_equal_the_reference_bytes(records):
    for tag in FormatTag:
        assert (_outcome(build_corpus, records, tag, OPEN)
                == _outcome(reference_lines, records, tag, OPEN))


@settings(max_examples=50, deadline=None)
@given(records=_records())
def test_rows_of_in_schema_records_equal_the_reference_bytes(records):
    desc = DatasetDescriptor.builtin("SCNM", "zh")
    text_labels, word_labels = desc.schema.text_labels, desc.schema.word_labels
    records = [MreRecord(r.id, r.text, text_labels[i % len(text_labels)],
                         tuple(LabelEntityPair(word_labels[j % len(word_labels)], entity)
                               for j, (_, entity) in enumerate(r.pairs)))
               for i, r in enumerate(records)]
    for tag in FormatTag:
        assert (_outcome(build_corpus, records, tag, desc)
                == _outcome(reference_lines, records, tag, desc))


# -- canonicity -------------------------------------------------------------------

# The grammar's characters, and whitespace ``str.strip`` removes at a segment's edge.
_PIECES = st.sampled_from(["; ", ": ", ";", ":", " ", "\\", "\\;", "\\\\", "a", "b", "NONE",
                           "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000", "\t", "\n", "\xa0"])


_WORDS = st.lists(_PIECES, max_size=3).map("".join)
# strings laid out like serialized pairs, whose pieces may break the grammar
_PAIR_LIKE = st.lists(st.tuples(_WORDS, _WORDS).map(": ".join), min_size=1, max_size=4).map(
    "; ".join)


@settings(max_examples=500, deadline=None)
@given(s=st.one_of(_PAIR_LIKE, st.lists(_PIECES, max_size=10).map("".join), st.text(max_size=12)))
def test_parse_canonical_equals_the_round_trip(s):
    assert parse_canonical(s) == reference_parse_canonical(s)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_WORDS, _WORDS), max_size=4))
def test_serialized_pairs_parse_back(pairs):
    pairs = [LabelEntityPair(l, e) for l, e in pairs if ": " not in l.strip()]
    s = serialize_pairs(pairs)
    assert parse_canonical(s) == reference_parse_canonical(s) == tuple(pairs)


@pytest.mark.parametrize("s", ["l: a;b", "l: a;", ";l: a", "l : a", "l:  a", " l: a",
                               "l: a\x1f", "\x85l: a", "l: a\u3000; m: b", "l: a; m: b;"])
def test_near_canonical_strings_are_refused(s):
    assert parse_canonical(s) is None
    assert reference_parse_canonical(s) is None


# -- matching ---------------------------------------------------------------------

_PAIRS = st.lists(st.builds(LabelEntityPair, st.sampled_from(["a", "A", "ß", "ss", "SS"]),
                            st.sampled_from(["x", "X", "ß"])), max_size=6)


def _folded(pairs):
    return [(label.casefold(), entity) for label, entity in pairs]


@settings(max_examples=300, deadline=None)
@given(gold=_PAIRS, pred=_PAIRS)
def test_match_count_equals_the_oracle(gold, pred):
    assert _match_count(gold, pred, False) == oracle_match_count(gold, pred)
    assert _match_count(gold, pred, True) == oracle_match_count(_folded(gold), _folded(pred))


# en word labels differing in case only, and entities repeated across them
_EN_PAIRS = st.lists(st.builds(LabelEntityPair,
                               st.sampled_from(["people", "People", "PEOPLE", "places"]),
                               st.sampled_from(["Tanaka", "tanaka", "Tokyo"])), max_size=8)


@settings(max_examples=500, deadline=None)
@given(gold=_EN_PAIRS, pred=_EN_PAIRS, fold_label_case=st.booleans())
def test_match_count_equals_the_counter_intersection(gold, pred, fold_label_case):
    assert (_match_count(gold, pred, fold_label_case)
            == reference_match_count(gold, pred, fold_label_case))


# -- failure: nothing written, the first error reported -----------------------------

_FLAWS = {
    "ok": {},
    "blank text": {"text": " "},
    "separator label": {"text_label": "A\nB"},
    "blank label": {"text_label": " "},
    "unserializable pair": {"pairs": [{"label": "a: b", "entity": "e"}]},
    "blank entity": {"pairs": [{"label": "p", "entity": " "}]},
}


def _build(tmp: Path, rows: list[dict], role: str, tags) -> Exception | None:
    write_jsonl(tmp / "in.jsonl", rows)
    config = runner.ExperimentConfig(family="TCONER", language="en", lenient=True, seed=3,
                                     test_sample_size=max(1, len(rows) - 1), test_repeats=2)
    try:
        runner.build_format_files(config, str(tmp / "in.jsonl"), role, tags, tmp / "out")
    except (DataError, SerializationError) as exc:
        return exc
    return None


@settings(max_examples=100, deadline=None)
@given(flaws=st.lists(st.sampled_from(sorted(_FLAWS)), min_size=1, max_size=5),
       tags=st.permutations(list(FormatTag)).flatmap(
           lambda tags: st.integers(1, len(tags)).map(lambda n: tags[:n])),
       role=st.sampled_from(["train", "test"]))
def test_first_error_and_no_file_on_failure(flaws, tags, role):
    rows = [{"id": f"r{i}", "text": "t", "text_label": "L",
             "pairs": [{"label": "p", "entity": "e"}], **_FLAWS[flaw]}
            for i, flaw in enumerate(flaws)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        error = _build(tmp, rows, role, tags)
        split = load_split(tmp / "in.jsonl", OPEN, role, strict=False)
        sources = [split.records]
        if role == "test":
            sources = [d.records for d in repeated_test_sample(split, max(1, len(rows) - 1), 2, 3)]
        expected = reference_first_error(sources, tags, OPEN)
        assert (type(error), str(error)) == (type(expected), str(expected))
        if error is None:  # every file and the manifest
            assert len(list((tmp / "out").iterdir())) == len(tags) * len(sources) + 1
        else:
            assert not (tmp / "out").exists()
