"""Differential tests of the two fast record checks against their reference loops.

``MreRecord.from_dict`` builds all of a record's pairs in one comprehension,
and ``validate_record`` passes a whole record with set and ``map``
operations; each falls back to a field-by-field walk only to name what is
wrong. The references below are those walks as they stood before the fast
paths, copied verbatim: for every input, the fast code must give the same
record (or a ``DataError`` with the same text) and the same ``Violation``
list.
"""

from __future__ import annotations

from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import DatasetDescriptor, LabelEntityPair, LabelSchema, MreRecord, validate_record
from mremix.core import LANGUAGES, Violation, _field
from mremix.errors import DataError


def reference_validate(record: MreRecord, desc: DatasetDescriptor) -> list[Violation]:
    schema = desc.schema
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
    for i, pair in enumerate(record.pairs):
        if not pair.entity:
            out.append(Violation(f"pairs[{i}].entity", "must be non-empty"))
        if not pair.label:
            out.append(Violation(f"pairs[{i}].label", "must be non-empty"))
        elif not schema.open_domain and pair.label not in schema.word_labels:
            out.append(
                Violation(
                    f"pairs[{i}].label",
                    f"{pair.label!r} is not in the word-level schema",
                )
            )
    return out


def reference_pair_from_dict(data: object) -> LabelEntityPair:
    if not isinstance(data, dict):
        raise DataError(f"must be an object, got {data!r}")
    return LabelEntityPair(_field(data, "label"), _field(data, "entity"))


def reference_from_dict(data: object) -> MreRecord:
    if not isinstance(data, dict):
        raise DataError(f"expected an object, got {data!r}")
    rid, text, text_label = _field(data, "id"), _field(data, "text"), _field(data, "text_label")
    pairs = []
    for i, pair in enumerate(_field(data, "pairs", list)):
        try:
            pairs.append(reference_pair_from_dict(pair))
        except DataError as exc:
            raise DataError(f"pairs[{i}]: {exc}") from exc
    return MreRecord(rid, text, text_label, pairs)


# -- validate_record ----------------------------------------------------------

_BLANKS = ["", " ", "\t", " \n "]
_LABEL = st.text(alphabet="ab :東", min_size=1, max_size=4).filter(str.strip)


@st.composite
def _descriptors(draw) -> DatasetDescriptor:
    """A bundled SCNM or TCONER descriptor, or one with drawn labels (possibly
    with surrounding whitespace, which no trimmed pair label can match)."""
    family = draw(st.sampled_from(["SCNM", "TCONER"]))
    language = draw(st.sampled_from(LANGUAGES))
    if draw(st.booleans()):
        return DatasetDescriptor.builtin(family, language)
    labels = st.lists(_LABEL, min_size=1, max_size=4, unique=True)
    schema = LabelSchema(draw(labels), draw(labels), open_domain=family == "TCONER")
    return DatasetDescriptor(family, language, schema)


def _off(labels: tuple[str, ...]) -> st.SearchStrategy[str]:
    """Blank, padded and off-schema labels."""
    return st.one_of(st.sampled_from(_BLANKS + ["Bogus", "a: b"]), st.text(max_size=3),
                     st.sampled_from(labels).map(" {} ".format))


@st.composite
def _records_for(draw, desc: DatasetDescriptor) -> MreRecord:
    """A valid record of ``desc``, then up to two of its fields spoiled."""
    schema = desc.schema
    solid = st.text(alphabet="xy 東", max_size=4).filter(str.strip)
    pairs = draw(st.lists(st.tuples(st.sampled_from(schema.word_labels), solid), max_size=4))
    fields = {"text": draw(solid), "text_label": draw(st.sampled_from(schema.text_labels))}
    for _ in range(draw(st.integers(0, 2))):
        spot = draw(st.sampled_from(["text", "text_label"] + ["pair"] * bool(pairs)))
        if spot == "text":
            fields["text"] = draw(st.sampled_from(_BLANKS))
        elif spot == "text_label":
            fields["text_label"] = draw(_off(schema.text_labels))
        else:
            i = draw(st.integers(0, len(pairs) - 1))
            label, entity = pairs[i]
            if draw(st.booleans()):
                pairs[i] = (draw(_off(schema.word_labels)), entity)
            else:
                pairs[i] = (label, draw(st.sampled_from(_BLANKS)))
    return MreRecord("r", fields["text"], fields["text_label"],
                     [LabelEntityPair(label, entity) for label, entity in pairs])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), desc=_descriptors())
def test_validate_record_matches_reference(data, desc):
    record = data.draw(_records_for(desc))
    assert validate_record(record, desc) == reference_validate(record, desc)


def test_validate_record_fast_path_edges(scnm_en, tconer_en, make_record):
    # each of these passes one part of the fast check and fails another
    cases = [
        (tconer_en, make_record("r", label=" ", pairs=[("anything", "x")])),
        (tconer_en, make_record("r", text="\t", label="Free", pairs=[("anything", "x")])),
        (tconer_en, make_record("r", label="Free", pairs=[("anything", " ")])),
        (tconer_en, make_record("r", label="Free", pairs=[(" ", "x")])),
        (scnm_en, make_record("r", text=" ", pairs=[("people", "x")])),
        (scnm_en, make_record("r", label=" Society", pairs=[("people", "x")])),
        (scnm_en, make_record("r", pairs=[("people", "x"), ("Bogus", "y")])),
        (scnm_en, make_record("r", pairs=[("people", "")])),
    ]
    for desc, record in cases:
        violations = validate_record(record, desc)
        assert violations and violations == reference_validate(record, desc)
    assert validate_record(make_record("r", label="Free", pairs=[("anything", "x")]),
                           tconer_en) == []


# -- MreRecord.from_dict -------------------------------------------------------

_STRINGS = st.text(alphabet="ab \t東", max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _STRINGS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_STRINGS, inner, max_size=2),
    max_leaves=4,
)
_MAYBE_STRING = st.one_of(_STRINGS, _STRINGS, _JSON)


@st.composite
def _pair_values(draw) -> object:
    """A JSON pair object with each field present or not, a string or not, or
    any other JSON value."""
    if draw(st.integers(0, 5)) == 0:
        return draw(_JSON)
    pair = draw(st.dictionaries(_STRINGS, _JSON, max_size=1))
    for key in ("label", "entity"):
        if draw(st.integers(0, 7)):
            pair[key] = draw(_MAYBE_STRING)
    return pair


@settings(max_examples=200, deadline=None)
@given(pairs=st.one_of(_JSON, st.lists(_pair_values(), max_size=4)))
def test_from_dict_matches_reference(pairs):
    doc = {"id": "r", "text": "t", "text_label": "Society", "pairs": pairs}
    try:
        expected = reference_from_dict(doc)
    except DataError as exc:
        expected = str(exc)
    try:
        got = MreRecord.from_dict(doc)
    except DataError as exc:
        got = str(exc)
    assert got == expected
    if isinstance(got, MreRecord):
        assert all(type(pair) is LabelEntityPair for pair in got.pairs)


def test_from_dict_names_the_first_bad_pair():
    def error(pairs: object) -> str:
        try:
            MreRecord.from_dict({"id": "r", "text": "t", "text_label": "x", "pairs": pairs})
        except DataError as exc:
            return str(exc)
        raise AssertionError("no DataError")

    good = {"label": "a", "entity": "b"}
    assert error([good, {"entity": "b"}]) == "pairs[1]: missing field 'label'"
    assert error(["x", {"label": 3}]) == "pairs[0]: must be an object, got 'x'"
    assert error([{"label": "a", "entity": 3}]) == "pairs[0]: 'entity' must be a string, got 3"
    assert error([good, good, [1]]) == "pairs[2]: must be an object, got [1]"
    # a mapping that is not a JSON object is refused as the reference refuses it
    proxy = MappingProxyType(good)
    assert error([proxy]) == f"pairs[0]: must be an object, got {proxy!r}"
