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
from typing import Iterable, Sequence

from .core import DatasetDescriptor, MreRecord, _string, validate_record
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
            input=_string(data, "input"),
            target=_string(data, "target"),
            tag=FormatTag(data["tag"]),
            record_id=_string(data, "record_id"),
        )


def build_example(record: MreRecord, tag: FormatTag, desc: DatasetDescriptor) -> FormattedExample:
    """Construct one training example for the given format.

    The input is the record text, optionally followed by the separator and
    the other level's information; the target is the remaining level (or
    both, for the joint format).
    """
    violations = validate_record(record, desc)
    if violations:
        raise DataError(
            f"record {record.id!r}: " + "; ".join(str(v) for v in violations)
        )
    wli = serialize_pairs(record.pairs)
    tli = record.text_label
    if tag is FormatTag.JOINT_MRE and SEPARATOR in tli:
        raise SerializationError(
            f"record {record.id!r}: text label contains the separator and "
            "cannot appear in a joint target"
        )

    if tag in (FormatTag.TRAD_WORD, FormatTag.WO_TLI_TO_WLI):
        inp, target = record.text, wli
    elif tag in (FormatTag.TRAD_TEXT, FormatTag.WO_WLI_TO_TLI):
        inp, target = record.text, tli
    elif tag is FormatTag.JOINT_MRE:
        inp, target = record.text, tli + SEPARATOR + wli
    elif tag is FormatTag.WITH_TLI_TO_WLI:
        inp, target = record.text + SEPARATOR + tli, wli
    elif tag is FormatTag.WITH_WLI_TO_TLI:
        inp, target = record.text + SEPARATOR + wli, tli
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled format tag: {tag}")
    return FormattedExample(input=inp, target=target, tag=tag, record_id=record.id)


def build_corpus(
    records: Iterable[MreRecord], tag: FormatTag, desc: DatasetDescriptor
) -> list[FormattedExample]:
    """Map build_example over the records, preserving order."""
    return [build_example(record, tag, desc) for record in records]


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
