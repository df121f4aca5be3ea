"""The word-level pair grammar: one serializer and its two parsers.

Pairs are written as

    label: entity; label: entity

with ``NONE`` for an empty pair list. Backslash escapes ``;`` and itself,
which keeps the grammar lossless for arbitrary entity strings; a label
containing the literal ``": "`` boundary cannot be represented and is
rejected. Any other backslash is a literal character.

``parse_canonical`` accepts exactly the strings ``serialize_pairs`` can
produce; ``parse_tolerant`` repairs near-misses (whitespace trimmed, a bare
``;`` or ``:`` accepted, empty or junk segments dropped).
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .core import LabelEntityPair, _new_tuple
from .errors import SerializationError

EMPTY_PAIRS_TOKEN = "NONE"

# One segment up to the next unescaped separator: an escape pair, any other
# character, a lone backslash, or (for "; ") a ';' not followed by a space.
_SEGMENT = {
    "; ": re.compile(r"(?:\\[\\;]|[^\\;]|\\|;(?! ))*"),
    ";": re.compile(r"(?:\\[\\;]|[^\\;]|\\)*"),
}
_ESCAPED = re.compile(r"\\([\\;])")


def serialize_pairs(pairs: Sequence[LabelEntityPair]) -> str:
    """Render pairs in the canonical grammar; empty list becomes ``NONE``."""
    if not pairs:
        return EMPTY_PAIRS_TOKEN
    parts = []
    for pair in pairs:
        if ": " in pair.label:
            raise SerializationError(
                f"label {pair.label!r} contains ': ' and cannot be serialized"
            )
        part = pair.label + ": " + pair.entity
        if "\\" in part or ";" in part:
            part = part.replace("\\", "\\\\").replace(";", "\\;")
        parts.append(part)
    return "; ".join(parts)


def _split(s: str, sep: str) -> list[str]:
    """Split on unescaped ``sep``, keeping the escapes in the segments."""
    if "\\" not in s:  # nothing is escaped, so every ``sep`` is a separator
        return s.split(sep)
    segment = _SEGMENT[sep]
    segments = []
    pos = 0
    while True:
        end = segment.match(s, pos).end()
        segments.append(s[pos:end])
        if end == len(s):
            return segments
        pos = end + len(sep)


def _decode(s: str) -> str:
    return _ESCAPED.sub(r"\1", s) if "\\" in s else s


def parse_canonical(s: str) -> Optional[tuple[LabelEntityPair, ...]]:
    """The pairs of ``s`` if ``serialize_pairs`` renders them back to ``s``, else None.

    Without a backslash nothing is escaped, so ``s`` is canonical exactly when
    each ``"; "``-segment holds a ``": "`` and no other ``;``, and its label and
    entity are already trimmed; a string with escapes is checked by rendering
    its pairs back.
    """
    if s == EMPTY_PAIRS_TOKEN:
        return ()
    if "\\" not in s:
        if s.count(";") != s.count("; "):  # a ';' outside a separator
            return None
        pairs = []
        for segment in s.split("; "):
            label, boundary, entity = segment.partition(": ")
            if not boundary or label.strip() != label or entity.strip() != entity:
                return None
            pairs.append(_new_tuple(LabelEntityPair, (label, entity)))
        return tuple(pairs)
    pairs = []
    for segment in _split(s, "; "):
        label, boundary, entity = segment.partition(": ")
        if not boundary:
            return None
        pairs.append(LabelEntityPair(_decode(label), _decode(entity)))
    # a label is cut at the first ': ', so it can never hold one and this cannot raise
    return tuple(pairs) if serialize_pairs(pairs) == s else None


def parse_tolerant(s: str) -> Optional[tuple[LabelEntityPair, ...]]:
    """Recovery path: returns pairs (possibly empty) or None when nothing is usable."""
    pairs = []
    saw_empty_marker = False
    for segment in _split(s, ";"):
        segment = segment.strip()
        if not segment:
            continue
        if segment == EMPTY_PAIRS_TOKEN:
            saw_empty_marker = True
            continue
        # prefer the canonical ': ' boundary; fall back to a bare colon
        boundary = segment.find(": ")
        if boundary > 0:
            label_raw, entity_raw = segment[:boundary], segment[boundary + 2 :]
        else:
            idx = segment.find(":")
            if idx <= 0:
                continue  # junk segment: no colon, or no label before it
            label_raw, entity_raw = segment[:idx], segment[idx + 1 :]
        label = _decode(label_raw).strip()
        entity = _decode(entity_raw).strip()
        if not label or not entity:
            continue
        pairs.append(LabelEntityPair(label, entity))
    if pairs or saw_empty_marker:
        return tuple(pairs)
    return None
