"""Tolerant parsing of model generations back into structured predictions.

Evaluation must never crash on a malformed generation, so every parse
returns a result plus a flag:

* CLEAN - the string matches the canonical grammar exactly (re-serializing
  the parse reproduces it byte for byte);
* RECOVERED - a near-miss was repaired (whitespace trimmed, missing space
  after a colon tolerated, empty or junk segments dropped, label matched
  case-insensitively or by unique prefix);
* UNPARSEABLE - nothing usable; such predictions carry no pairs and no
  label and earn zero credit downstream.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional

from .core import LabelEntityPair, LabelSchema, _field
from .errors import DataError
from .formats import LAYOUT, FormatTag, split_target
from .jsonio import read_jsonl_numbered
from .pairs import parse_canonical, parse_tolerant


class ParseFlag(str, Enum):
    CLEAN = "CLEAN"
    RECOVERED = "RECOVERED"
    UNPARSEABLE = "UNPARSEABLE"

    def __str__(self) -> str:
        return self.value


class ParsedPairs(NamedTuple):
    pairs: tuple[LabelEntityPair, ...]
    flag: ParseFlag


class ParsedLabel(NamedTuple):
    label: Optional[str]
    flag: ParseFlag


class ParsedPrediction(NamedTuple):
    """A generation parsed at whichever level(s) its format targets."""

    text_label: Optional[str]
    pairs: tuple[LabelEntityPair, ...]
    flag: ParseFlag


def parse_pairs(s: str) -> ParsedPairs:
    """Inverse of serialize_pairs on canonical strings; tolerant otherwise.

    Never raises: malformation is reported through the flag.
    """
    pairs = parse_canonical(s)
    if pairs is not None:
        return ParsedPairs(pairs, ParseFlag.CLEAN)
    pairs = parse_tolerant(s)
    if pairs is not None:
        return ParsedPairs(pairs, ParseFlag.RECOVERED)
    return ParsedPairs((), ParseFlag.UNPARSEABLE)


_MIN_PREFIX = 3  # unique-prefix label matching needs at least this many chars


def parse_text_label(s: str, schema: LabelSchema) -> ParsedLabel:
    """Match a generated string against the text-level schema.

    Exact match is CLEAN; trimming, case-insensitive, and unique-prefix
    matches are RECOVERED. Open-domain schemas accept any non-empty string.
    Never raises.
    """
    trimmed = s.strip()
    if schema.open_domain:
        if not trimmed:
            return ParsedLabel(None, ParseFlag.UNPARSEABLE)
        flag = ParseFlag.CLEAN if s == trimmed else ParseFlag.RECOVERED
        return ParsedLabel(trimmed, flag)

    if s in schema.text_labels:
        return ParsedLabel(s, ParseFlag.CLEAN)
    if not trimmed:
        return ParsedLabel(None, ParseFlag.UNPARSEABLE)
    if trimmed in schema.text_labels:
        return ParsedLabel(trimmed, ParseFlag.RECOVERED)

    folded = trimmed.casefold()
    ci_matches = [lbl for lbl in schema.text_labels if lbl.casefold() == folded]
    if len(ci_matches) == 1:
        return ParsedLabel(ci_matches[0], ParseFlag.RECOVERED)

    if len(folded) >= _MIN_PREFIX:
        prefix_matches = [
            lbl for lbl in schema.text_labels if lbl.casefold().startswith(folded)
        ]
        if len(prefix_matches) == 1:
            return ParsedLabel(prefix_matches[0], ParseFlag.RECOVERED)

    return ParsedLabel(None, ParseFlag.UNPARSEABLE)


# parse_prediction runs once per generation; reading a member off an enum class
# costs more than the rest of its flag arithmetic, so it reads these names.
_CLEAN, _RECOVERED, _UNPARSEABLE = ParseFlag
_NO_LABEL = ParsedLabel(None, _CLEAN)  # a word-level target carries none
# A missing pairs part: none to parse for a text-level format, an unusable part
# for a joint one (a joint generation without the separator).
_NO_PAIRS = {tag: ParsedPairs((), _CLEAN if level == "text" else _UNPARSEABLE)
             for tag, (_, level) in LAYOUT.items()}


def parse_prediction(s: str, tag: FormatTag, schema: LabelSchema) -> ParsedPrediction:
    """Parse each part of a generation that ``split_target`` finds for the
    format. The flag is CLEAN if every part the target carries is CLEAN,
    UNPARSEABLE if no part is usable, and RECOVERED otherwise."""
    label_part, pairs_part = split_target(s, tag)
    label = _NO_LABEL if label_part is None else parse_text_label(label_part, schema)
    pairs = _NO_PAIRS[tag] if pairs_part is None else parse_pairs(pairs_part)
    if label.flag is _CLEAN and pairs.flag is _CLEAN:
        flag = _CLEAN
    elif label.label is None and (pairs_part is None or pairs.flag is _UNPARSEABLE):
        flag = _UNPARSEABLE
    else:
        flag = _RECOVERED
    return ParsedPrediction(label.label, pairs.pairs, flag)


class GenerationRow(NamedTuple):
    record_id: Optional[str]
    output: str

    @classmethod
    def from_dict(cls, data: object) -> "GenerationRow":
        """The row of a JSON document; a shape error names the field."""
        if type(data) is dict:  # string fields: built as they are
            output, rid = data.get("output"), data.get("record_id")
            if type(output) is str and (rid is None or type(rid) is str):
                return tuple.__new__(cls, (rid, output))
        if not isinstance(data, dict) or "output" not in data:
            raise DataError("expected an object with an 'output' field")
        rid = None if data.get("record_id") is None else _field(data, "record_id")
        return cls(rid, _field(data, "output"))


def read_generations(path: str | Path) -> list[GenerationRow]:
    """Read a generation file: JSONL with an ``output`` field per test example.

    ``output`` must be a string. ``record_id`` is optional (null counts as
    absent); when present it must be a string, and the evaluator checks it
    against the draw manifest.
    """
    out: list[GenerationRow] = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            out.append(GenerationRow.from_dict(row))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return out
