from __future__ import annotations

import copy
import pickle

import pytest

from mremix import (
    DatasetDescriptor,
    LabelEntityPair,
    LabelSchema,
    MreRecord,
    builtin_schema,
    validate_record,
)
from mremix.core import (
    FAMILIES,
    LANGUAGES,
    family_slug,
    load_schema_file,
    normalize_family,
    parse_schema_document,
)
from mremix.errors import DataError, SchemaError
from mremix.rng import SplitMix64

EXPECTED_SIZES = {
    "SCNM": (5, 8),
    "SCPOS:RW": (2, 3),
    "SCPOS:N": (2, 3),
    "SCPOS:Adj": (2, 2),
    "SCPOS:N&Adj": (2, 3),
    "TCREE": (5, 13),
    "TCONER": (10, 11),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("language", LANGUAGES)
def test_builtin_schema_sizes(family, language):
    schema = builtin_schema(family, language)
    n_text, n_word = EXPECTED_SIZES[family]
    assert len(schema.text_labels) == n_text
    assert len(schema.word_labels) == n_word
    assert schema.open_domain == (family == "TCONER")


def test_scnm_text_labels_verbatim():
    schema = builtin_schema("SCNM", "en")
    assert schema.text_labels == ("Society", "Literature", "Academia", "Technology", "Nature")
    assert "people" in schema.word_labels


def test_scpos_adj_schema():
    schema = builtin_schema("SCPOS:Adj", "en")
    assert set(schema.text_labels) == {"positive", "negative"}
    assert set(schema.word_labels) == {"positive", "negative"}


def test_builtin_schema_is_pure():
    a = builtin_schema("TCREE", "ja")
    b = builtin_schema("TCREE", "ja")
    assert a == b
    assert a.text_labels == b.text_labels


def test_unknown_family_and_language():
    with pytest.raises(SchemaError, match="unknown dataset family"):
        builtin_schema("SCXX", "en")
    with pytest.raises(SchemaError, match="unknown language"):
        builtin_schema("SCNM", "fr")


def test_family_slugs_roundtrip():
    assert [family_slug(family) for family in FAMILIES] == [
        "scnm", "scpos-rw", "scpos-n", "scpos-adj", "scpos-nadj", "tcree", "tconer"]
    for family in FAMILIES:
        assert normalize_family(family_slug(family)) == family
        assert normalize_family(family.lower()) == family


def test_all_descriptors_has_21():
    descs = [DatasetDescriptor.builtin(f, lang) for f in FAMILIES for lang in LANGUAGES]
    assert len(descs) == len({(d.family, d.language) for d in descs}) == 21
    assert sum(1 for d in descs if d.schema.open_domain) == 3


def test_descriptor_open_domain_invariant():
    fixed = LabelSchema(text_labels=("a",), word_labels=("b",), open_domain=False)
    with pytest.raises(SchemaError):
        DatasetDescriptor(family="TCONER", language="en", schema=fixed)
    open_schema = LabelSchema(text_labels=("a",), word_labels=("b",), open_domain=True)
    with pytest.raises(SchemaError):
        DatasetDescriptor(family="SCNM", language="en", schema=open_schema)


def test_schema_rejects_duplicates_and_empties():
    with pytest.raises(SchemaError):
        LabelSchema(text_labels=("a", "a"), word_labels=("b",))
    with pytest.raises(SchemaError):
        LabelSchema(text_labels=("a",), word_labels=("", "b"))


def test_pair_trims_surfaces():
    pair = LabelEntityPair("  people ", " Tanaka\n")
    assert pair.label == "people"
    assert pair.entity == "Tanaka"
    for same in (LabelEntityPair(entity="Tanaka ", label=" people"),
                 LabelEntityPair.from_dict({"label": "people\t", "entity": " Tanaka"}),
                 pair._replace(entity="  Tanaka"),
                 LabelEntityPair._make([" people", "Tanaka\n"]),
                 copy.deepcopy(pair),
                 pickle.loads(pickle.dumps(pair))):
        assert type(same) is LabelEntityPair
        assert same == pair and hash(same) == hash(pair)
    assert pair._replace(label=" x ") == ("x", "Tanaka")
    # a pair is a plain (label, entity) tuple underneath
    assert pair == ("people", "Tanaka") and hash(pair) == hash(("people", "Tanaka"))
    assert repr(pair) == "LabelEntityPair(label='people', entity='Tanaka')"
    with pytest.raises(AttributeError):
        pair.label = "x"
    with pytest.raises(AttributeError):
        pair.extra = "x"


def test_validate_accepts_valid_scnm_record(scnm_en, scnm_record):
    assert validate_record(scnm_record, scnm_en) == []


def test_validate_flags_empty_text(scnm_en, make_record):
    violations = validate_record(make_record("r", text="   "), scnm_en)
    assert len(violations) == 1
    assert violations[0].field == "text"


def test_validate_flags_off_schema_text_label(scnm_en, make_record):
    violations = validate_record(make_record("r", label="Sports"), scnm_en)
    assert len(violations) == 1
    assert violations[0].field == "text_label"
    assert "Sports" in violations[0].message


def test_validate_flags_bad_pairs(scnm_en, make_record):
    record = make_record("r", pairs=[("people", "  "), ("nonsense", "Tokyo")])
    fields = {v.field for v in validate_record(record, scnm_en)}
    assert "pairs[0].entity" in fields
    assert "pairs[1].label" in fields


def test_validate_open_domain_accepts_any_labels(tconer_en, make_record):
    record = make_record("r", label="Cooking", pairs=[("ingredient", "salt")])
    assert validate_record(record, tconer_en) == []


def test_validate_open_domain_still_requires_content(tconer_en, make_record):
    record = make_record("r", label=" ", pairs=[("x", " ")])
    fields = {v.field for v in validate_record(record, tconer_en)}
    assert fields == {"text_label", "pairs[0].entity"}


def test_validate_matches_membership_enumeration(scnm_en):
    # validation must accept a record iff every carried label is a schema member
    schema = scnm_en.schema
    rng = SplitMix64(2024)
    text_pool = list(schema.text_labels) + ["Sports", "Weather", ""]
    word_pool = list(schema.word_labels) + ["verbs", "x"]
    for i in range(300):
        text_label = text_pool[rng.randbelow(len(text_pool))]
        pairs = tuple(
            LabelEntityPair(word_pool[rng.randbelow(len(word_pool))], f"e{j}")
            for j in range(rng.randbelow(4))
        )
        record = MreRecord(id=f"r{i}", text="t", text_label=text_label, pairs=pairs)
        expected_ok = (
            text_label.strip() != ""
            and text_label in schema.text_labels
            and all(p.label in schema.word_labels for p in pairs)
        )
        assert (validate_record(record, scnm_en) == []) == expected_ok


def test_parse_schema_document_errors():
    with pytest.raises(SchemaError, match="line 1"):
        parse_schema_document("not a key value line")
    with pytest.raises(SchemaError, match="family.language.level"):
        parse_schema_document("SCNM.en = a | b")
    with pytest.raises(SchemaError, match="duplicate"):
        parse_schema_document("SCNM.en.text = a\nSCNM.en.text = b")
    with pytest.raises(SchemaError, match="missing schema entry"):
        parse_schema_document("SCNM.en.text = a | b")


def test_from_dict_rejects_non_string_fields():
    row = {"id": "a", "text": "t", "text_label": "Society",
           "pairs": [{"label": "people", "entity": "Tanaka"}]}
    assert MreRecord.from_dict(row).text == "t"
    for key, value in (("text", None), ("id", 1), ("text_label", 2.0)):
        with pytest.raises(DataError, match=f"'{key}' must be a string"):
            MreRecord.from_dict({**row, key: value})
    with pytest.raises(DataError, match="'entity' must be a string"):
        LabelEntityPair.from_dict({"label": "people", "entity": None})


@pytest.mark.parametrize("change, message", [
    ({"pairs": "x"}, "'pairs' must be a list, got 'x'"),
    ({"pairs": [{"label": "people", "entity": "T"}, "x"]}, "pairs[1]: must be an object, got 'x'"),
    ({"pairs": [{"label": "people", "entity": "T"}, {}]}, "pairs[1]: missing field 'label'"),
    ({"pairs": [{"label": 1, "entity": "T"}]}, "pairs[0]: 'label' must be a string, got 1"),
    ({"pairs": [{"label": "people"}]}, "pairs[0]: missing field 'entity'"),
    ({"text": None}, "'text' must be a string, got None"),
])
def test_from_dict_errors_name_the_field(change, message):
    row = {"id": "a", "text": "t", "text_label": "Society", "pairs": []}
    with pytest.raises(DataError) as caught:
        MreRecord.from_dict({**row, **change})
    assert str(caught.value) == message


def test_from_dict_names_a_missing_field_and_rejects_a_non_object():
    row = {"id": "a", "text": "t", "text_label": "Society", "pairs": []}
    for key in row:
        with pytest.raises(DataError, match=f"^missing field '{key}'$"):
            MreRecord.from_dict({k: v for k, v in row.items() if k != key})
    with pytest.raises(DataError, match=r"^expected an object, got \['a'\]$"):
        MreRecord.from_dict(["a"])


def test_non_utf8_schema_file_names_file(tmp_path):
    path = tmp_path / "schemas.txt"
    path.write_bytes(b"SCNM.en.text = Society\n\xff\n")
    with pytest.raises(DataError, match="schemas.txt: not valid UTF-8"):
        load_schema_file(path)
