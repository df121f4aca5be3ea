"""Ablation format construction: the seven input/output training formats.

Every format is bare concatenation. The input always starts with the raw
record text; when level information is appended it follows after a single
newline separator. No instruction or prompt words are ever added, so that
format comparisons measure the appended information and nothing else.
Word-level pairs are written in the grammar of :mod:`mremix.pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import DatasetDescriptor, MreRecord, _field, validate_record
from .errors import DataError, SerializationError
from .jsonio import read_jsonl_numbered, write_jsonl
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


# WO_* formats produce strings byte-identical to the traditional formats;
# the distinct tags exist so ablation bookkeeping can tell the runs apart.
TAG_ALIASES = {
    FormatTag.WO_TLI_TO_WLI: FormatTag.TRAD_WORD,
    FormatTag.WO_WLI_TO_TLI: FormatTag.TRAD_TEXT,
}

WORD_TARGET_TAGS = frozenset(
    {FormatTag.TRAD_WORD, FormatTag.WO_TLI_TO_WLI, FormatTag.WITH_TLI_TO_WLI}
)
TEXT_TARGET_TAGS = frozenset(
    {FormatTag.TRAD_TEXT, FormatTag.WO_WLI_TO_TLI, FormatTag.WITH_WLI_TO_TLI}
)


def target_level(tag: FormatTag) -> str:
    """Which level(s) the format's target carries: 'word', 'text', or 'joint'."""
    if tag in WORD_TARGET_TAGS:
        return "word"
    if tag in TEXT_TARGET_TAGS:
        return "text"
    return "joint"


@dataclass(frozen=True)
class FormattedExample:
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
    def from_dict(cls, data: dict) -> "FormattedExample":
        return cls(
            input=_field(data, "input"),
            target=_field(data, "target"),
            tag=FormatTag(data["tag"]),
            record_id=_field(data, "record_id"),
        )


class RenderedRecord(NamedTuple):
    """A validated record with its pairs in the canonical grammar: all a format reads."""

    id: str
    text: str
    text_label: str
    pairs: str


def render_record(record: MreRecord, desc: DatasetDescriptor) -> RenderedRecord:
    """Validate ``record`` against ``desc`` and serialize its pairs."""
    violations = validate_record(record, desc)
    if violations:
        raise DataError(
            f"record {record.id!r}: " + "; ".join(str(v) for v in violations)
        )
    return RenderedRecord(record.id, record.text, record.text_label, serialize_pairs(record.pairs))


def _example(row: RenderedRecord, tag: FormatTag) -> FormattedExample:
    """The example of ``tag`` built from a rendered record."""
    wli, tli = row.pairs, row.text_label
    if tag is FormatTag.JOINT_MRE and SEPARATOR in tli:
        raise SerializationError(
            f"record {row.id!r}: text label contains the separator and "
            "cannot appear in a joint target"
        )

    if tag in (FormatTag.TRAD_WORD, FormatTag.WO_TLI_TO_WLI):
        inp, target = row.text, wli
    elif tag in (FormatTag.TRAD_TEXT, FormatTag.WO_WLI_TO_TLI):
        inp, target = row.text, tli
    elif tag is FormatTag.JOINT_MRE:
        inp, target = row.text, tli + SEPARATOR + wli
    elif tag is FormatTag.WITH_TLI_TO_WLI:
        inp, target = row.text + SEPARATOR + tli, wli
    elif tag is FormatTag.WITH_WLI_TO_TLI:
        inp, target = row.text + SEPARATOR + wli, tli
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled format tag: {tag}")
    return FormattedExample(input=inp, target=target, tag=tag, record_id=row.id)


def build_example(record: MreRecord, tag: FormatTag, desc: DatasetDescriptor) -> FormattedExample:
    """Construct one training example for the given format.

    The input is the record text, optionally followed by the separator and
    the other level's information; the target is the remaining level (or
    both, for the joint format).
    """
    return _example(render_record(record, desc), tag)


def build_corpus(
    records: Iterable[MreRecord],
    tag: FormatTag,
    desc: DatasetDescriptor,
    rendered: Optional[dict[str, RenderedRecord]] = None,
) -> list[FormattedExample]:
    """Map build_example over the records, preserving order.

    ``rendered`` keeps each record's rendering by record id, so that calls
    over records of one split (whose ids are unique) validate and serialize
    each record once. A record is rendered on first use, so the first error
    is the one ``build_example`` would raise.
    """
    if rendered is None:
        rendered = {}
    examples = []
    for record in records:
        row = rendered.get(record.id)
        if row is None:
            row = rendered[record.id] = render_record(record, desc)
        examples.append(_example(row, tag))
    return examples


def corpus_manifest(examples: Sequence[FormattedExample]) -> dict:
    """Per-tag counts plus the ordered record ids (the draw alignment key)."""
    counts: dict[str, int] = {}
    for ex in examples:
        counts[ex.tag.value] = counts.get(ex.tag.value, 0) + 1
    return {
        "count": len(examples),
        "counts_by_tag": counts,
        "record_ids": [ex.record_id for ex in examples],
    }


def corpus_filename(desc: DatasetDescriptor, tag: FormatTag, role: str) -> str:
    """File naming convention: <family>_<lang>_<tag>.<role>.jsonl"""
    return f"{desc.slug}_{tag.value.lower()}.{role}.jsonl"


def write_examples(path: str | Path, examples: Iterable[FormattedExample]) -> None:
    write_jsonl(path, (ex.to_dict() for ex in examples))


def read_examples(path: str | Path) -> list[FormattedExample]:
    examples = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            examples.append(FormattedExample.from_dict(row))
        except (KeyError, ValueError, TypeError, DataError) as exc:
            raise DataError(f"{path}: line {lineno}: not a formatted example ({exc})") from exc
    return examples
