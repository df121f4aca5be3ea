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

import pickle
from dataclasses import dataclass
from types import MappingProxyType

from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import DatasetDescriptor, LabelEntityPair, LabelSchema, MreRecord, validate_record
from mremix.core import LANGUAGES, Violation, _checked_pairs, _field, _new_tuple, _strip
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


# -- MreRecord as a named tuple ---------------------------------------------------


@dataclass(frozen=True)
class ReferenceRecord:
    id: str
    text: str
    text_label: str
    pairs: tuple[LabelEntityPair, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))

    @classmethod
    def from_dict(cls, data: object) -> "ReferenceRecord":
        if not isinstance(data, dict):
            raise DataError(f"expected an object, got {data!r}")
        rid, text, text_label = _field(data, "id"), _field(data, "text"), _field(data, "text_label")
        raw = _field(data, "pairs", list)
        try:
            pairs = [_new_tuple(LabelEntityPair, (_strip(p["label"]), _strip(p["entity"])))
                     for p in raw if type(p) is dict]
        except (KeyError, TypeError):
            pairs = []
        if len(pairs) != len(raw):
            pairs = _checked_pairs(raw)
        return cls(rid, text, text_label, pairs)


_GOOD_PAIR = {"label": " people", "entity": "Tanaka "}


@st.composite
def _any_pair(draw) -> object:
    """A pair as a dict (maybe missing a key, maybe with a non-string field), a
    list, a string or a read-only mapping."""
    kind = draw(st.sampled_from(["dict", "dict", "list", "string", "mapping"]))
    if kind == "list":
        return draw(st.lists(_STRINGS, max_size=2))
    if kind == "string":
        return draw(_STRINGS)
    if kind == "mapping":
        return MappingProxyType(dict(_GOOD_PAIR))
    return draw(_pair_values())


@st.composite
def _record_documents(draw) -> object:
    """A record document with each field present or missing, a string or any
    other JSON value; ``pairs`` a list of pairs of any kind, or not a list."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = {}
    for key in ("id", "text", "text_label"):
        if draw(st.integers(0, 9)):
            doc[key] = draw(_MAYBE_STRING)
    if draw(st.integers(0, 9)):
        doc["pairs"] = draw(st.one_of(st.lists(_any_pair(), max_size=4),
                                      st.lists(st.just(_GOOD_PAIR), max_size=3), _JSON))
    return doc


def _fields_or_error(build, doc) -> object:
    try:
        record = build(doc)
    except DataError as exc:
        return str(exc)
    assert type(record.pairs) is tuple
    assert all(type(pair) is LabelEntityPair for pair in record.pairs)
    return record.id, record.text, record.text_label, record.pairs


@settings(max_examples=300, deadline=None)
@given(doc=_record_documents())
def test_from_dict_matches_the_dataclass_record(doc):
    assert _fields_or_error(MreRecord.from_dict, doc) == _fields_or_error(
        ReferenceRecord.from_dict, doc)


def test_record_is_a_named_tuple_storing_pairs_as_a_tuple():
    pairs = [LabelEntityPair("people", "Tanaka"), LabelEntityPair("places", "Tokyo")]
    made = [MreRecord("r", "t", "Society", list(pairs)),
            MreRecord(id="r", text="t", text_label="Society", pairs=iter(pairs)),
            MreRecord._make(["r", "t", "Society", list(pairs)]),
            MreRecord("r", "t", "Society")._replace(pairs=list(pairs))]
    for record in made:
        assert type(record.pairs) is tuple and record == ("r", "t", "Society", tuple(pairs))
        assert hash(record) == hash(made[0])
    assert MreRecord("r", "t", "Society").pairs == ()
    assert made[0]._replace(text="u").pairs is made[0].pairs


def test_record_survives_a_pickle_round_trip():
    record = MreRecord.from_dict({"id": "r", "text": "t", "text_label": "Society",
                                  "pairs": [_GOOD_PAIR, _GOOD_PAIR]})
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is MreRecord and hash(copy) == hash(record)
    assert all(type(pair) is LabelEntityPair for pair in copy.pairs)
