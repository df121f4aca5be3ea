from __future__ import annotations

import json

import pytest

from mremix import (
    SEPARATOR,
    FormatTag,
    LabelEntityPair,
    MreRecord,
    build_corpus,
    build_example,
    serialize_pairs,
)
from mremix.errors import DataError, SerializationError
from mremix.formats import (
    TAG_ALIASES,
    corpus_filename,
    read_examples,
    split_target,
    target_level,
    write_examples,
)
from mremix.jsonio import write_jsonl
from mremix.parsing import ParseFlag, parse_pairs
from mremix.rng import SplitMix64

from synth import planted_splits


class TestSerializePairs:
    def test_two_pairs(self):
        pairs = [LabelEntityPair("people", "Tanaka"), LabelEntityPair("places", "Tokyo")]
        assert serialize_pairs(pairs) == "people: Tanaka; places: Tokyo"

    def test_empty_list(self):
        assert serialize_pairs([]) == "NONE"

    def test_singleton(self):
        assert serialize_pairs([LabelEntityPair("positive", "fun")]) == "positive: fun"

    def test_escapes_semicolon_and_backslash(self):
        assert serialize_pairs([LabelEntityPair("l", "a; b")]) == "l: a\\; b"
        assert serialize_pairs([LabelEntityPair("l", "a\\b")]) == "l: a\\\\b"
        assert serialize_pairs([LabelEntityPair("l;x", "e")]) == "l\\;x: e"

    def test_label_with_boundary_is_unescapable(self):
        with pytest.raises(SerializationError, match="cannot be serialized"):
            serialize_pairs([LabelEntityPair("bad: label", "e")])

    def test_entity_with_colon_space_roundtrips(self):
        pairs = (LabelEntityPair("l", "time: 3pm"),)
        s = serialize_pairs(pairs)
        parsed = parse_pairs(s)
        assert parsed.pairs == pairs
        assert parsed.flag is ParseFlag.CLEAN


class TestBuildExample:
    def test_with_wli_to_tli(self, scnm_en, make_record):
        record = make_record("r", text="The X1 launched.", label="Technology",
                             pairs=[("products", "X1")])
        ex = build_example(record, FormatTag.WITH_WLI_TO_TLI, scnm_en)
        assert ex.input == "The X1 launched." + SEPARATOR + "products: X1"
        assert ex.input.endswith("products: X1")
        assert ex.target == "Technology"

    def test_with_tli_to_wli(self, scnm_en, make_record):
        record = make_record("r", text="The X1 launched.", label="Technology",
                             pairs=[("products", "X1")])
        ex = build_example(record, FormatTag.WITH_TLI_TO_WLI, scnm_en)
        assert ex.input.endswith("Technology")
        assert ex.target == "products: X1"

    def test_empty_pairs_render_none_in_input(self, scnm_en, make_record):
        record = make_record("r", text="Plain text.", label="Nature")
        ex = build_example(record, FormatTag.WITH_WLI_TO_TLI, scnm_en)
        assert ex.input.endswith(SEPARATOR + "NONE")

    def test_traditional_formats(self, scnm_en, scnm_record):
        word = build_example(scnm_record, FormatTag.TRAD_WORD, scnm_en)
        assert word.input == scnm_record.text
        assert word.target == "people: Tanaka; places: Tokyo"
        text = build_example(scnm_record, FormatTag.TRAD_TEXT, scnm_en)
        assert text.input == scnm_record.text
        assert text.target == "Society"

    def test_joint_target_order_label_first(self, scnm_en, scnm_record):
        ex = build_example(scnm_record, FormatTag.JOINT_MRE, scnm_en)
        assert ex.input == scnm_record.text
        assert ex.target == "Society" + SEPARATOR + "people: Tanaka; places: Tokyo"

    def test_aliases_byte_identical(self, scnm_en, scnm_record):
        for alias, base in TAG_ALIASES.items():
            a = build_example(scnm_record, alias, scnm_en)
            b = build_example(scnm_record, base, scnm_en)
            assert (a.input, a.target) == (b.input, b.target)
            assert a.tag is alias  # bookkeeping identity is preserved

    def test_invalid_record_rejected_with_id(self, scnm_en, make_record):
        record = make_record("bad-one", label="Sports")
        with pytest.raises(DataError, match="bad-one"):
            build_example(record, FormatTag.TRAD_TEXT, scnm_en)

    def test_newline_text_label_rejected_for_joint(self, tconer_en, make_record):
        record = make_record("r", label="A\nB", pairs=[("x", "y")])
        with pytest.raises(SerializationError, match="separator"):
            build_example(record, FormatTag.JOINT_MRE, tconer_en)


def _random_record(rng: SplitMix64, schema, i: int) -> MreRecord:
    text_chars = "abc XY日本語中文字 .,:;\\\n"
    entity_chars = "ab 東京;:\\良"
    text = "".join(text_chars[rng.randbelow(len(text_chars))] for _ in range(1 + rng.randbelow(30)))
    if not text.strip():
        text = "t" + text
    pairs = []
    for _ in range(rng.randbelow(5)):
        label = schema.word_labels[rng.randbelow(len(schema.word_labels))]
        entity = "".join(
            entity_chars[rng.randbelow(len(entity_chars))] for _ in range(1 + rng.randbelow(8))
        )
        if not entity.strip():
            entity = "e" + entity
        pairs.append(LabelEntityPair(label, entity))
    text_label = schema.text_labels[rng.randbelow(len(schema.text_labels))]
    return MreRecord(id=f"rand-{i}", text=text, text_label=text_label, pairs=tuple(pairs))


class TestFormatLaws:
    def test_input_prefix_and_no_template_laws(self, scnm_en):
        rng = SplitMix64(99)
        for i in range(300):
            record = _random_record(rng, scnm_en.schema, i)
            wli = serialize_pairs(record.pairs)
            for tag in FormatTag:
                ex = build_example(record, tag, scnm_en)
                assert ex.input.startswith(record.text)
                # input is exactly text, or text + separator + one level's info
                assert ex.input in (
                    record.text,
                    record.text + SEPARATOR + record.text_label,
                    record.text + SEPARATOR + wli,
                )

    def test_round_trip_through_grammar(self, scnm_en):
        rng = SplitMix64(123)
        for i in range(500):
            record = _random_record(rng, scnm_en.schema, i)
            parsed = parse_pairs(serialize_pairs(record.pairs))
            assert parsed.pairs == record.pairs
            assert parsed.flag is ParseFlag.CLEAN


class TestCorpus:
    def test_order_preserved(self, scnm_en):
        _, train, _, _ = planted_splits(n_train_per_label=2, n_test_per_label=1)
        lines = build_corpus(train.records, FormatTag.JOINT_MRE, scnm_en)
        assert [json.loads(line)["record_id"] for line in lines] == train.ids()

    def test_lines_decode_to_the_examples(self, scnm_en):
        _, train, _, _ = planted_splits(n_train_per_label=2, n_test_per_label=1)
        for tag in FormatTag:
            lines = build_corpus(train.records, tag, scnm_en)
            assert [json.loads(line) for line in lines] == [
                build_example(record, tag, scnm_en).to_dict() for record in train.records]

    def test_error_names_offending_record(self, scnm_en, make_record):
        records = [make_record("ok"), make_record("broken", label="Sports")]
        with pytest.raises(DataError, match="broken"):
            build_corpus(records, FormatTag.TRAD_TEXT, scnm_en)

    def test_write_read_roundtrip(self, tmp_path, scnm_en):
        _, train, _, _ = planted_splits(n_train_per_label=2, n_test_per_label=1)
        lines = build_corpus(train.records, FormatTag.WITH_TLI_TO_WLI, scnm_en)
        path = tmp_path / corpus_filename(scnm_en, FormatTag.WITH_TLI_TO_WLI, "train")
        write_examples(path, lines)
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
        assert read_examples(path) == [build_example(record, FormatTag.WITH_TLI_TO_WLI, scnm_en)
                                       for record in train.records]

    @pytest.mark.parametrize("key", ["input", "target", "record_id"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_non_string_field_names_line(self, tmp_path, scnm_en, key, value):
        _, train, _, _ = planted_splits(n_train_per_label=1, n_test_per_label=1)
        rows = list(map(json.loads, build_corpus(train.records[:2], FormatTag.TRAD_TEXT, scnm_en)))
        rows[1][key] = value
        path = tmp_path / "examples.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match=rf"examples.jsonl: line 2: .*{key!r} must be a string"):
            read_examples(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: [1], "line 2: not a formatted example (expected an object, got [1])"),
        (lambda row: {k: v for k, v in row.items() if k != "tag"},
         "line 2: not a formatted example (missing field 'tag')"),
        (lambda row: {**row, "tag": "trad_text"},
         "line 2: not a formatted example ('tag' must be one of ("),
    ])
    def test_malformed_line_names_the_field(self, tmp_path, scnm_en, edit, message):
        _, train, _, _ = planted_splits(n_train_per_label=1, n_test_per_label=1)
        rows = list(map(json.loads, build_corpus(train.records[:2], FormatTag.TRAD_TEXT, scnm_en)))
        rows[1] = edit(rows[1])
        path = tmp_path / "examples.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError) as caught:
            read_examples(path)
        assert str(caught.value).startswith(f"{path}: {message}")

    def test_filename_convention(self, scnm_en):
        name = corpus_filename(scnm_en, FormatTag.WITH_WLI_TO_TLI, "train")
        assert name == "scnm_en_with_wli_to_tli.train.jsonl"
        name = corpus_filename(scnm_en, FormatTag.TRAD_TEXT, "test", 2)
        assert name == "scnm_en_trad_text.test.draw2.jsonl"


def test_target_level_routing():
    assert target_level(FormatTag.TRAD_WORD) == "word"
    assert target_level(FormatTag.WO_TLI_TO_WLI) == "word"
    assert target_level(FormatTag.WITH_TLI_TO_WLI) == "word"
    assert target_level(FormatTag.TRAD_TEXT) == "text"
    assert target_level(FormatTag.WO_WLI_TO_TLI) == "text"
    assert target_level(FormatTag.WITH_WLI_TO_TLI) == "text"
    assert target_level(FormatTag.JOINT_MRE) == "joint"


def test_split_target_of_a_joint_target_without_the_separator():
    assert split_target("Society", FormatTag.JOINT_MRE) == ("Society", None)
    assert split_target("Society\n", FormatTag.JOINT_MRE) == ("Society", "")
    assert split_target("a\nb\nc", FormatTag.JOINT_MRE) == ("a", "b\nc")
