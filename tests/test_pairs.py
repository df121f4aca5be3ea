"""The pair-grammar codec against a character-by-character reference.

The reference below is the original scanner implementation of the grammar
(escape, split, unescape one character at a time). ``mremix.pairs`` must
agree with it on every string: the same pairs and the same parse flag.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import LabelEntityPair, parse_pairs, serialize_pairs
from mremix.errors import SerializationError
from mremix.pairs import _split, parse_canonical, parse_tolerant
from mremix.parsing import ParseFlag


# -- reference implementation ---------------------------------------------------


def _ref_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace(";", "\\;")


def ref_serialize(pairs) -> str:
    if not pairs:
        return "NONE"
    parts = []
    for pair in pairs:
        if ": " in pair.label:
            raise SerializationError(pair.label)
        parts.append(f"{_ref_escape(pair.label)}: {_ref_escape(pair.entity)}")
    return "; ".join(parts)


def _ref_split(s: str, require_space: bool) -> list[str]:
    segments: list[str] = []
    buf: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n and s[i + 1] in "\\;":
            buf.append(c)
            buf.append(s[i + 1])
            i += 2
            continue
        if c == ";":
            if require_space:
                if i + 1 < n and s[i + 1] == " ":
                    segments.append("".join(buf))
                    buf = []
                    i += 2
                    continue
            else:
                segments.append("".join(buf))
                buf = []
                i += 1
                continue
        buf.append(c)
        i += 1
    segments.append("".join(buf))
    return segments


def _ref_unescape(s: str) -> str:
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n and s[i + 1] in "\\;":
            out.append(s[i + 1])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def ref_canonical(s: str) -> Optional[tuple[LabelEntityPair, ...]]:
    if s == "NONE":
        return ()
    pairs = []
    for segment in _ref_split(s, require_space=True):
        if ": " not in segment:
            return None
        label_raw, entity_raw = segment.split(": ", 1)
        pairs.append(LabelEntityPair(_ref_unescape(label_raw), _ref_unescape(entity_raw)))
    try:
        clean = ref_serialize(pairs) == s
    except SerializationError:
        clean = False
    return tuple(pairs) if clean else None


def ref_tolerant(s: str) -> Optional[tuple[LabelEntityPair, ...]]:
    pairs = []
    saw_empty_marker = False
    for segment in _ref_split(s, require_space=False):
        segment = segment.strip()
        if not segment:
            continue
        if segment == "NONE":
            saw_empty_marker = True
            continue
        boundary = segment.find(": ")
        if boundary > 0:
            label_raw, entity_raw = segment[:boundary], segment[boundary + 2 :]
        else:
            idx = segment.find(":")
            if idx <= 0:
                continue
            label_raw, entity_raw = segment[:idx], segment[idx + 1 :]
        label = _ref_unescape(label_raw).strip()
        entity = _ref_unescape(entity_raw).strip()
        if not label or not entity:
            continue
        pairs.append(LabelEntityPair(label, entity))
    if pairs or saw_empty_marker:
        return tuple(pairs)
    return None


def ref_parse_pairs(s: str) -> tuple[tuple[LabelEntityPair, ...], ParseFlag]:
    canonical = ref_canonical(s)
    if canonical is not None:
        return canonical, ParseFlag.CLEAN
    recovered = ref_tolerant(s)
    if recovered is not None:
        return recovered, ParseFlag.RECOVERED
    return (), ParseFlag.UNPARSEABLE


# -- properties -----------------------------------------------------------------

_PIECES = ["\\", ";", "; ", ": ", ":", " ", "\t", "　", "NONE", "a", "b", "x"]

grammar_strings = st.one_of(
    st.lists(st.sampled_from(_PIECES) | st.text(max_size=2), max_size=16).map("".join),
    st.text(),
)

pair_lists = st.lists(
    st.builds(
        LabelEntityPair,
        st.lists(st.sampled_from(_PIECES), max_size=4).map("".join),
        st.lists(st.sampled_from(_PIECES) | st.text(max_size=2), max_size=6).map("".join),
    ),
    max_size=4,
)


@settings(max_examples=1000, deadline=None)
@given(grammar_strings)
def test_parse_pairs_equals_reference(s):
    # a bare ';' makes a string non-canonical whichever way "; " splits it,
    # so the splitter is checked on its own as well
    assert _split(s, "; ") == _ref_split(s, require_space=True)
    assert _split(s, ";") == _ref_split(s, require_space=False)
    parsed = parse_pairs(s)
    assert (parsed.pairs, parsed.flag) == ref_parse_pairs(s)
    assert parse_canonical(s) == ref_canonical(s)
    assert parse_tolerant(s) == ref_tolerant(s)


@settings(max_examples=300, deadline=None)
@given(pair_lists)
def test_serialize_equals_reference_and_round_trips(pairs):
    if any(": " in pair.label for pair in pairs):
        with pytest.raises(SerializationError):
            serialize_pairs(pairs)
        return
    s = serialize_pairs(pairs)
    assert s == ref_serialize(pairs)
    assert parse_canonical(s) == tuple(pairs)
    assert parse_tolerant(s) == ref_tolerant(s)


def test_escaped_separators_stay_in_segment():
    s = "l: a\\; b; m: c\\\\; n: x\\;y;z\\"
    assert parse_canonical(s) is None  # serialization never leaves a bare ';'
    assert parse_pairs(s).pairs == (
        LabelEntityPair("l", "a; b"),
        LabelEntityPair("m", "c\\"),
        LabelEntityPair("n", "x;y"),
    )
    assert parse_canonical("l: a\\; b; m: c\\\\") == (
        LabelEntityPair("l", "a; b"),
        LabelEntityPair("m", "c\\"),
    )
