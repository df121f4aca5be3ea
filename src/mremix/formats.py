"""Ablation format construction: the seven input/output training formats.

Every format is bare concatenation. The input always starts with the raw
record text; when level information is appended it follows after a single
newline separator. No instruction or prompt words are ever added, so that
format comparisons measure the appended information and nothing else.
Word-level pairs are written in the grammar of :mod:`mremix.pairs`.

``LAYOUT`` is the one table of what each format appends and what its target
carries; building, ``split_target`` (the target's inverse, which parsing and
evaluation read), the alias tags and the ablation rows all derive from it.

A format file is built as its JSON lines: each record is validated and its
strings JSON-encoded once (``render_record``), and every format's row is a
concatenation of those strings, byte for byte the line the JSON writer
gives for the example. Readers decode the lines into ``FormattedExample``s.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring as _encode  # the writer's string encoder
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .core import DatasetDescriptor, MreRecord, _field, _one_of, validate_record
from .errors import DataError, SerializationError
from .jsonio import read_jsonl_numbered, write_lines
from .jsonio import write_jsonl  # noqa: F401  (unused; perfbench/tracer.py rebinds it here)
from .pairs import serialize_pairs

SEPARATOR = "\n"


class FormatTag(str, Enum):
    """The seven experiment formats (two are byte-aliases kept for bookkeeping)."""

    TRAD_WORD = "TRAD_WORD"
    TRAD_TEXT = "TRAD_TEXT"
    JOINT_MRE = "JOINT_MRE"
    WITH_TLI_TO_WLI = "WITH_TLI_TO_WLI"
    WO_TLI_TO_WLI = "WO_TLI_TO_WLI"
    WITH_WLI_TO_TLI = "WITH_WLI_TO_TLI"
    WO_WLI_TO_TLI = "WO_WLI_TO_TLI"

    def __str__(self) -> str:  # keep file names and reports free of 'FormatTag.'
        return self.value


# Readers look tags up here: an enum call per draw row costs ~14x a dict lookup.
TAGS = {tag.value: tag for tag in FormatTag}

# Each format's (level appended to the input or None, level of the target). A level
# is "word" (the pairs), "text" (the label) or, as a target, "joint" (label, pairs).
LAYOUT: dict[FormatTag, tuple[Optional[str], str]] = {
    FormatTag.TRAD_WORD: (None, "word"),
    FormatTag.TRAD_TEXT: (None, "text"),
    FormatTag.JOINT_MRE: (None, "joint"),
    FormatTag.WITH_TLI_TO_WLI: ("text", "word"),
    FormatTag.WO_TLI_TO_WLI: (None, "word"),
    FormatTag.WITH_WLI_TO_TLI: ("word", "text"),
    FormatTag.WO_WLI_TO_TLI: (None, "text"),
}

# WO_* formats share a traditional format's layout, so their strings are
# byte-identical; the distinct tags let ablation bookkeeping tell the runs apart.
TAG_ALIASES = {tag: base for base in (FormatTag.TRAD_WORD, FormatTag.TRAD_TEXT)
               for tag in FormatTag if tag is not base and LAYOUT[tag] == LAYOUT[base]}


def target_level(tag: FormatTag) -> str:
    """Which level(s) the format's target carries: 'word', 'text', or 'joint'."""
    return LAYOUT[tag][1]


def split_target(target: str, tag: FormatTag) -> tuple[Optional[str], Optional[str]]:
    """A target (or generation) of ``tag`` as (text-label part, pairs part).
    A part the target does not carry is None, and so is the pairs part of a
    joint target without the separator."""
    level = LAYOUT[tag][1]
    if level != "joint":
        return (None, target) if level == "word" else (target, None)
    label, separator, pairs = target.partition(SEPARATOR)
    return label, pairs if separator else None


class FormattedExample(NamedTuple):
    """An (input, target) training pair plus the format tag and source record id."""

    input: str
    target: str
    tag: FormatTag
    record_id: str

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "target": self.target,
            "tag": self.tag.value,
            "record_id": self.record_id,
        }

    @classmethod
    def from_dict(cls, data: object) -> "FormattedExample":
        """The example of a JSON document; a shape error names the field."""
        if type(data) is dict:  # four strings and a known tag: built as they are
            inp, target, tag, rid = (data.get("input"), data.get("target"), data.get("tag"),
                                     data.get("record_id"))
            if (type(inp) is str and type(target) is str and type(rid) is str
                    and type(tag) is str and tag in TAGS):
                return tuple.__new__(cls, (inp, target, TAGS[tag], rid))
        if not isinstance(data, dict):
            raise DataError(f"expected an object, got {data!r}")
        return cls(
            input=_field(data, "input"),
            target=_field(data, "target"),
            tag=TAGS[_one_of(data, "tag", TAGS)],
            record_id=_field(data, "record_id"),
        )


class RenderedRecord(NamedTuple):
    """A validated record as the JSON strings a row is built from: its id, text,
    text label and canonical pair string, each encoded once. ``id`` and
    ``text_label`` are kept as they are for messages and the separator check."""

    id: str
    text_label: str
    json_id: str
    json_text: str
    json_text_label: str
    json_pairs: str


def render_record(record: MreRecord, desc: DatasetDescriptor) -> RenderedRecord:
    """Validate ``record`` against ``desc``, serialize its pairs and JSON-encode its strings."""
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
    return RenderedRecord(record.id, record.text_label, _encode(record.id),
                          _encode(record.text), _encode(record.text_label), _encode(pairs))


# JSON escapes character by character, so the JSON string of a + SEPARATOR + b
# is that of a without its closing quote, the separator's escape, and that of b
# without its opening quote.
_JSON_SEPARATOR = _encode(SEPARATOR)[1:-1]


def _joined(json_a: str, json_b: str) -> str:
    return json_a[:-1] + _JSON_SEPARATOR + json_b[1:]


def _json_level(row: RenderedRecord, level: str) -> str:
    """The JSON string of one level of a rendered record."""
    if level != "joint":
        return row.json_pairs if level == "word" else row.json_text_label
    if SEPARATOR in row.text_label:
        raise SerializationError(
            f"record {row.id!r}: text label contains the separator and "
            "cannot appear in a joint target"
        )
    return _joined(row.json_text_label, row.json_pairs)


def _line(row: RenderedRecord, tag: FormatTag) -> str:
    """The JSON line of the example of ``tag``: ``json_line(example.to_dict())``,
    with its keys in sorted order, concatenated from the record's JSON strings."""
    appended, level = LAYOUT[tag]
    target = _json_level(row, level)
    inp = row.json_text if appended is None else _joined(row.json_text, _json_level(row, appended))
    return ('{"input": ' + inp + ', "record_id": ' + row.json_id
            + ', "tag": "' + tag.value + '", "target": ' + target + "}")


def build_example(record: MreRecord, tag: FormatTag, desc: DatasetDescriptor) -> FormattedExample:
    """One training example of ``tag``, laid out as ``LAYOUT`` says (library API:
    the decoded line ``build_corpus`` writes for the record)."""
    return FormattedExample.from_dict(json.loads(_line(render_record(record, desc), tag)))


def render_corpus(
    records: Iterable[MreRecord],
    tag: FormatTag,
    desc: DatasetDescriptor,
    rendered: Optional[dict[str, RenderedRecord]] = None,
) -> list[RenderedRecord]:
    """The renderings of ``records`` for format ``tag``, in order, raising the
    first error ``build_corpus`` would raise (a joint target's included).

    ``rendered`` keeps each record's rendering by record id, so that calls
    over records of one split (whose ids are unique) validate and serialize
    each record once. A record is rendered on first use.
    """
    if rendered is None:
        rendered = {}
    joint = LAYOUT[tag][1] == "joint"
    rows = []
    for record in records:
        row = rendered.get(record.id)
        if row is None:
            row = rendered[record.id] = render_record(record, desc)
        if joint:
            _json_level(row, "joint")  # raises if the text label holds the separator
        rows.append(row)
    return rows


def build_corpus(
    records: Iterable[MreRecord],
    tag: FormatTag,
    desc: DatasetDescriptor,
    rendered: Optional[dict[str, RenderedRecord]] = None,
) -> list[str]:
    """The JSON line of each record's example of ``tag``, in order (see
    ``render_corpus`` for ``rendered``). ``read_examples`` reads them back."""
    return [_line(row, tag) for row in render_corpus(records, tag, desc, rendered)]


def corpus_filename(
    desc: DatasetDescriptor, tag: FormatTag, role: str, draw: Optional[int] = None
) -> str:
    """File naming convention: <family>_<lang>_<tag>.<role>[.draw<N>].jsonl"""
    suffix = "" if draw is None else f".draw{draw}"
    return f"{desc.slug}_{tag.value.lower()}.{role}{suffix}.jsonl"


def write_examples(path: str | Path, lines: Iterable[str]) -> None:
    """Write a format file from its JSON lines (``build_corpus``)."""
    write_lines(path, lines)


def read_examples(path: str | Path) -> list[FormattedExample]:
    examples = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            examples.append(FormattedExample.from_dict(row))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: not a formatted example ({exc})") from exc
    return examples
