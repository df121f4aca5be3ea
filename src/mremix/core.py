"""Shared domain types, label schemas, and record validation.

An MRE mixed dataset attaches two levels of supervision to every text: one
text-level classification label and an ordered list of word-level
(label, entity) pairs; a pair is an immutable ``(label, entity)`` tuple
whose two strings are trimmed at construction. Seven dataset families
exist, each in English, Chinese, and Japanese; all label inventories are
fixed except TCONER, whose schema is open-domain and therefore advisory.

Label surface strings live in a bundled line-oriented schema file
(``data/schemas.txt``) rather than in code, so per-language label surfaces
can be swapped without touching the toolkit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Any, Collection, Iterable, Mapping

from .errors import DataError, SchemaError
from .jsonio import open_text

FAMILIES = ("SCNM", "SCPOS:RW", "SCPOS:N", "SCPOS:Adj", "SCPOS:N&Adj", "TCREE", "TCONER")
LANGUAGES = ("en", "zh", "ja")

OPEN_DOMAIN_FAMILIES = frozenset({"TCONER"})


def family_slug(family: str) -> str:
    """A family's file name: lower case, ':' as '-', '&' dropped (SCPOS:N&Adj -> scpos-nadj)."""
    if family not in FAMILIES:
        raise SchemaError(f"unknown dataset family: {family!r}")
    return family.lower().replace(":", "-").replace("&", "")


def normalize_family(name: str) -> str:
    """Accept a canonical family name or its slug, case-insensitively."""
    for fam in FAMILIES:
        if name.lower() in (fam.lower(), family_slug(fam)):
            return fam
    raise SchemaError(f"unknown dataset family: {name!r}")


_KINDS = {str: "a string", list: "a list"}
_new_tuple, _strip, _label_of = tuple.__new__, str.strip, itemgetter(0)


def _field(data: Mapping, key: str, kind: type = str) -> Any:
    """``data[key]``, which must be present and of JSON type ``kind`` (no
    coercion of null, numbers or lists)."""
    try:
        value = data[key]
    except KeyError:
        raise DataError(f"missing field {key!r}") from None
    if not isinstance(value, kind):
        raise DataError(f"{key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def _one_of(data: Mapping, key: str, allowed: Collection[str]) -> str:
    """The string ``data[key]``, which must be one of ``allowed``."""
    value = _field(data, key)
    if value not in allowed:
        raise DataError(f"{key!r} must be one of {tuple(allowed)}, got {value!r}")
    return value


class LabelEntityPair(namedtuple("LabelEntityPair", "label entity")):
    """One unit of word-level information: a label and an entity surface form.

    A pair is an immutable ``(label, entity)`` tuple, equal to the plain
    tuple of its two strings. Surrounding whitespace is trimmed by every
    constructor (``_make`` and ``_replace`` included); the canonical pair
    grammar and evaluation both operate on the trimmed surface.
    """

    __slots__ = ()

    def __new__(cls, label: str, entity: str) -> "LabelEntityPair":
        return tuple.__new__(cls, (label.strip(), entity.strip()))

    @classmethod
    def _make(cls, iterable) -> "LabelEntityPair":
        return cls(*iterable)

    def to_dict(self) -> dict:
        return {"label": self.label, "entity": self.entity}

    @classmethod
    def from_dict(cls, data: object) -> "LabelEntityPair":
        if not isinstance(data, dict):
            raise DataError(f"must be an object, got {data!r}")
        return cls(_field(data, "label"), _field(data, "entity"))


def _checked_pairs(raw: list) -> list[LabelEntityPair]:
    """The pairs of ``raw``, checked one at a time so that the first bad one is named."""
    pairs = []
    for i, pair in enumerate(raw):
        try:
            pairs.append(LabelEntityPair.from_dict(pair))
        except DataError as exc:
            raise DataError(f"pairs[{i}]: {exc}") from exc
    return pairs


class MreRecord(namedtuple("MreRecord", "id text text_label pairs")):
    """One dataset example: text, its text-level label, and its word-level pairs.

    A record is an immutable ``(id, text, text_label, pairs)`` tuple, equal
    to the plain tuple of its fields. ``pairs`` is stored as a tuple by every
    constructor (``_make`` and ``_replace`` included); it preserves source
    order and may contain duplicates, since whether duplicates earn or lose
    credit is an evaluation decision, not an ingestion one.
    """

    __slots__ = ()

    def __new__(cls, id: str, text: str, text_label: str,
                pairs: Iterable[LabelEntityPair] = ()) -> "MreRecord":
        return _new_tuple(cls, (id, text, text_label, tuple(pairs)))

    @classmethod
    def _make(cls, iterable) -> "MreRecord":
        return cls(*iterable)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "text_label": self.text_label,
            "pairs": [p.to_dict() for p in self.pairs],
        }

    @classmethod
    def from_dict(cls, data: object) -> "MreRecord":
        """The record of a JSON document. Any shape error (a missing field, a
        field of the wrong JSON type) is a DataError naming the field."""
        if not isinstance(data, dict):
            raise DataError(f"expected an object, got {data!r}")
        rid, text, text_label = _field(data, "id"), _field(data, "text"), _field(data, "text_label")
        raw = _field(data, "pairs", list)
        # All pairs at C speed. ``str.strip`` refuses what is not a string, and
        # a pair that is not a dict is skipped; either way the checked walk
        # runs instead, and names the first bad pair.
        try:
            pairs = [_new_tuple(LabelEntityPair, (_strip(p["label"]), _strip(p["entity"])))
                     for p in raw if type(p) is dict]
        except (KeyError, TypeError):
            pairs = []
        if len(pairs) != len(raw):
            pairs = _checked_pairs(raw)
        return _new_tuple(cls, (rid, text, text_label, tuple(pairs)))


@dataclass(frozen=True)
class LabelSchema:
    """Text-level and word-level label inventories for one dataset.

    When ``open_domain`` is true the lists are an advisory subset: records
    may carry labels outside them.
    """

    text_labels: tuple[str, ...]
    word_labels: tuple[str, ...]
    open_domain: bool = False
    text_label_set: frozenset[str] = field(init=False, repr=False, compare=False)
    word_label_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text_labels", tuple(self.text_labels))
        object.__setattr__(self, "word_labels", tuple(self.word_labels))
        object.__setattr__(self, "text_label_set", frozenset(self.text_labels))
        object.__setattr__(self, "word_label_set", frozenset(self.word_labels))
        for side, labels in (("text", self.text_labels), ("word", self.word_labels)):
            if any(not lbl or not lbl.strip() for lbl in labels):
                raise SchemaError(f"{side}-level schema contains an empty label")
            if len(set(labels)) != len(labels):
                raise SchemaError(f"{side}-level schema contains duplicate labels")


@dataclass(frozen=True)
class DatasetDescriptor:
    """Identifies one of the 21 sub-datasets: family, language, and schema."""

    family: str
    language: str
    schema: LabelSchema

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise SchemaError(f"unknown dataset family: {self.family!r}")
        if self.language not in LANGUAGES:
            raise SchemaError(f"unknown language: {self.language!r}")
        if (self.family in OPEN_DOMAIN_FAMILIES) != self.schema.open_domain:
            raise SchemaError(
                f"{self.family} requires open_domain={self.family in OPEN_DOMAIN_FAMILIES}"
            )

    @classmethod
    def builtin(cls, family: str, language: str) -> "DatasetDescriptor":
        family = normalize_family(family)
        return cls(family=family, language=language, schema=builtin_schema(family, language))

    @property
    def slug(self) -> str:
        return f"{family_slug(self.family)}_{self.language}"


@dataclass(frozen=True)
class Violation:
    """One failed validation rule, naming the offending field."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def validate_record(record: MreRecord, desc: DatasetDescriptor) -> list[Violation]:
    """Check a record against its dataset's schema; violations are data, not errors.

    The whole record is checked first with set and ``map`` operations; only a
    record that fails it is walked field by field to name its violations.
    The two agree because schema labels are never blank and pair fields are
    trimmed: a label in the schema is non-empty, and a pair whose fields are
    both truthy has no empty field.
    """
    schema = desc.schema
    pairs = record.pairs
    if record.text.strip() and all(map(all, pairs)) and (
            record.text_label.strip() if schema.open_domain
            else record.text_label in schema.text_label_set
            and schema.word_label_set.issuperset(map(_label_of, pairs))):
        return []
    out: list[Violation] = []
    if not record.text.strip():
        out.append(Violation("text", "must be non-empty"))
    if not record.text_label.strip():
        out.append(Violation("text_label", "must be non-empty"))
    elif not schema.open_domain and record.text_label not in schema.text_labels:
        out.append(
            Violation(
                "text_label",
                f"{record.text_label!r} is not in the text-level schema",
            )
        )
    for i, pair in enumerate(pairs):
        if not pair.entity:
            out.append(Violation(f"pairs[{i}].entity", "must be non-empty"))
        if not pair.label:
            out.append(Violation(f"pairs[{i}].label", "must be non-empty"))
        elif not schema.open_domain and pair.label not in schema.word_label_set:
            out.append(
                Violation(
                    f"pairs[{i}].label",
                    f"{pair.label!r} is not in the word-level schema",
                )
            )
    return out


# -- schema file ------------------------------------------------------------
#
# Line format (see data/schemas.txt):
#   <FAMILY>.<language>.<text|word> = label | label | ...
# '#' starts a comment; blank lines are ignored. Every (family, language)
# must define both levels.

_LEVELS = ("text", "word")


def parse_schema_document(text: str, source: str = "<schema>") -> dict[tuple[str, str], LabelSchema]:
    entries: dict[tuple[str, str, str], tuple[str, ...]] = {}
    # lines as a file has them: ``splitlines`` would also break at U+2028 or
    # U+0085, say inside a comment, and misnumber every later line
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{source}: line {lineno}: expected 'key = labels'")
        key, value = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        if len(parts) != 3:
            raise SchemaError(f"{source}: line {lineno}: key must be family.language.level")
        family, language, level = parts
        if family not in FAMILIES:
            raise SchemaError(f"{source}: line {lineno}: unknown dataset family: {family!r}")
        if language not in LANGUAGES:
            raise SchemaError(f"{source}: line {lineno}: unknown language: {language!r}")
        if level not in _LEVELS:
            raise SchemaError(f"{source}: line {lineno}: level must be 'text' or 'word'")
        if (family, language, level) in entries:
            raise SchemaError(f"{source}: line {lineno}: duplicate key {key}")
        labels = tuple(lbl.strip() for lbl in value.split("|"))
        if any(not lbl for lbl in labels):
            raise SchemaError(f"{source}: line {lineno}: empty label in {key}")
        if len(set(labels)) != len(labels):
            repeated = next(lbl for i, lbl in enumerate(labels) if lbl in labels[:i])
            raise SchemaError(f"{source}: line {lineno}: duplicate label {repeated!r} in {key}")
        entries[(family, language, level)] = labels

    registry: dict[tuple[str, str], LabelSchema] = {}
    for family in FAMILIES:
        for language in LANGUAGES:
            try:
                text_labels = entries[(family, language, "text")]
                word_labels = entries[(family, language, "word")]
            except KeyError as exc:
                raise SchemaError(
                    f"{source}: missing schema entry for {family}.{language}"
                ) from exc
            registry[(family, language)] = LabelSchema(
                text_labels=text_labels,
                word_labels=word_labels,
                open_domain=family in OPEN_DOMAIN_FAMILIES,
            )
    return registry


def load_schema_file(path: str | Path) -> dict[tuple[str, str], LabelSchema]:
    """Load a complete schema registry from a file in the bundled format."""
    path = Path(path)
    with open_text(path) as fh:
        text = fh.read()
    return parse_schema_document(text, source=str(path))


_BUILTIN_REGISTRY: dict[tuple[str, str], LabelSchema] | None = None


def _builtin_registry() -> dict[tuple[str, str], LabelSchema]:
    global _BUILTIN_REGISTRY
    if _BUILTIN_REGISTRY is None:
        text = resources.files("mremix").joinpath("data/schemas.txt").read_text("utf-8")
        _BUILTIN_REGISTRY = parse_schema_document(text, source="data/schemas.txt")
    return _BUILTIN_REGISTRY


def builtin_schema(family: str, language: str) -> LabelSchema:
    """The bundled label schema for one (family, language). Pure: cached."""
    family = normalize_family(family)
    if language not in LANGUAGES:
        raise SchemaError(f"unknown language: {language!r}")
    return _builtin_registry()[(family, language)]

