from __future__ import annotations

import pytest

from mremix import FormatTag, LabelEntityPair, parse_pairs, parse_prediction, parse_text_label
from mremix.errors import DataError
from mremix.formats import serialize_pairs
from mremix.pairs import parse_tolerant
from mremix.parsing import ParseFlag, read_generations
from mremix.jsonio import write_jsonl
from mremix.rng import SplitMix64


class TestParsePairs:
    def test_canonical_clean(self):
        parsed = parse_pairs("people: Tanaka; places: Tokyo")
        assert parsed.pairs == (
            LabelEntityPair("people", "Tanaka"),
            LabelEntityPair("places", "Tokyo"),
        )
        assert parsed.flag is ParseFlag.CLEAN

    def test_recovery_of_near_miss(self):
        parsed = parse_pairs("people:Tanaka ;places: Tokyo ")
        assert parsed.pairs == (
            LabelEntityPair("people", "Tanaka"),
            LabelEntityPair("places", "Tokyo"),
        )
        assert parsed.flag is ParseFlag.RECOVERED

    def test_junk_is_unparseable(self):
        parsed = parse_pairs("lorem ipsum")
        assert parsed.pairs == ()
        assert parsed.flag is ParseFlag.UNPARSEABLE

    def test_none_token(self):
        assert parse_pairs("NONE").flag is ParseFlag.CLEAN
        assert parse_pairs("NONE").pairs == ()
        padded = parse_pairs(" NONE ")
        assert padded.pairs == ()
        assert padded.flag is ParseFlag.RECOVERED

    def test_empty_string_unparseable(self):
        assert parse_pairs("").flag is ParseFlag.UNPARSEABLE
        assert parse_pairs("   ").flag is ParseFlag.UNPARSEABLE

    def test_partial_salvage_is_recovered(self):
        parsed = parse_pairs("people: Tanaka; complete gibberish")
        assert parsed.pairs == (LabelEntityPair("people", "Tanaka"),)
        assert parsed.flag is ParseFlag.RECOVERED

    def test_escaped_content_roundtrips(self):
        pairs = (LabelEntityPair("l", "a; b"), LabelEntityPair("m", "c\\d"))
        parsed = parse_pairs(serialize_pairs(pairs))
        assert parsed.pairs == pairs
        assert parsed.flag is ParseFlag.CLEAN

    def test_dropped_empty_segments(self):
        parsed = parse_pairs("; people: Tanaka;; ;")
        assert parsed.pairs == (LabelEntityPair("people", "Tanaka"),)
        assert parsed.flag is ParseFlag.RECOVERED

    def test_duplicates_preserved(self):
        parsed = parse_pairs("l: e; l: e")
        assert parsed.pairs == (LabelEntityPair("l", "e"), LabelEntityPair("l", "e"))

    def test_recovery_monotonicity(self):
        # every CLEAN string must be accepted unchanged by the recovery path
        rng = SplitMix64(314)
        chars = "ab 東;:\\x"
        for _ in range(400):
            pairs = tuple(
                LabelEntityPair(
                    "label" + str(rng.randbelow(3)),
                    "".join(chars[rng.randbelow(len(chars))] for _ in range(1 + rng.randbelow(6)))
                    or "e",
                )
                for _ in range(rng.randbelow(4))
            )
            pairs = tuple(p for p in pairs if p.entity)
            s = serialize_pairs(pairs)
            assert parse_pairs(s).flag is ParseFlag.CLEAN
            assert parse_tolerant(s) == pairs or (not pairs and parse_tolerant(s) is None)

    def test_totality_never_raises(self):
        rng = SplitMix64(2718)
        alphabet = "a;:\\ \n\tNONE漢{}[]\"'"
        for _ in range(1000):
            s = "".join(
                alphabet[rng.randbelow(len(alphabet))] for _ in range(rng.randbelow(24))
            )
            parsed = parse_pairs(s)  # must not raise
            if parsed.flag is ParseFlag.UNPARSEABLE:
                assert parsed.pairs == ()


class TestParseTextLabel:
    def test_exact_clean(self, scnm_en):
        parsed = parse_text_label("Technology", scnm_en.schema)
        assert parsed.label == "Technology"
        assert parsed.flag is ParseFlag.CLEAN

    def test_trim_recovers(self, scpos_adj_en):
        parsed = parse_text_label(" negative\n", scpos_adj_en.schema)
        assert parsed.label == "negative"
        assert parsed.flag is ParseFlag.RECOVERED

    def test_case_insensitive_recovers(self, scnm_en):
        parsed = parse_text_label("technology", scnm_en.schema)
        assert parsed.label == "Technology"
        assert parsed.flag is ParseFlag.RECOVERED

    def test_unique_prefix_recovers(self, scnm_en):
        parsed = parse_text_label("Tech", scnm_en.schema)
        assert parsed.label == "Technology"
        assert parsed.flag is ParseFlag.RECOVERED

    def test_prefix_needs_three_chars(self, scnm_en):
        assert parse_text_label("Te", scnm_en.schema).label is None

    def test_ambiguous_prefix_fails(self):
        from mremix import builtin_schema

        schema = builtin_schema("SCPOS:RW", "en")  # positive / negative / neutral at word level
        # text labels are positive/negative: 'neg' is unique, 'n' too short,
        # and an ambiguous prefix across labels must fail
        assert parse_text_label("neg", schema).label == "negative"
        from mremix.core import LabelSchema

        two = LabelSchema(text_labels=("Nature", "Nation"), word_labels=("x",))
        assert parse_text_label("Nat", two).label is None

    def test_open_domain_verbatim(self, tconer_en):
        parsed = parse_text_label("Cooking", tconer_en.schema)
        assert parsed.label == "Cooking"
        assert parsed.flag is ParseFlag.CLEAN
        padded = parse_text_label(" Cooking ", tconer_en.schema)
        assert padded.label == "Cooking"
        assert padded.flag is ParseFlag.RECOVERED

    def test_garbage_unparseable(self, scnm_en):
        assert parse_text_label("Quantum", scnm_en.schema).label is None
        assert parse_text_label("", scnm_en.schema).label is None


class TestParsePrediction:
    def test_word_side(self, scnm_en):
        pred = parse_prediction("people: Tanaka", FormatTag.TRAD_WORD, scnm_en.schema)
        assert pred.pairs == (LabelEntityPair("people", "Tanaka"),)
        assert pred.text_label is None
        assert pred.flag is ParseFlag.CLEAN

    def test_text_side(self, scnm_en):
        pred = parse_prediction("Nature", FormatTag.WITH_WLI_TO_TLI, scnm_en.schema)
        assert pred.text_label == "Nature"
        assert pred.pairs == ()

    def test_joint_canonical(self, scnm_en):
        pred = parse_prediction(
            "Society\npeople: Tanaka", FormatTag.JOINT_MRE, scnm_en.schema
        )
        assert pred.text_label == "Society"
        assert pred.pairs == (LabelEntityPair("people", "Tanaka"),)
        assert pred.flag is ParseFlag.CLEAN

    def test_joint_partial_label_only(self, scnm_en):
        pred = parse_prediction("Society", FormatTag.JOINT_MRE, scnm_en.schema)
        assert pred.text_label == "Society"
        assert pred.pairs == ()
        assert pred.flag is ParseFlag.RECOVERED

    def test_joint_total_garbage(self, scnm_en):
        pred = parse_prediction("???", FormatTag.JOINT_MRE, scnm_en.schema)
        assert pred.text_label is None
        assert pred.pairs == ()
        assert pred.flag is ParseFlag.UNPARSEABLE

    def test_unparseable_invariant(self, scnm_en):
        # UNPARSEABLE implies no pairs and no label, for every target side
        for tag in FormatTag:
            pred = parse_prediction("", tag, scnm_en.schema)
            if pred.flag is ParseFlag.UNPARSEABLE:
                assert pred.pairs == ()
                assert pred.text_label is None


class TestReadGenerations:
    def test_reads_rows(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        write_jsonl(path, [{"record_id": "a", "output": "Nature"}, {"output": "x"}])
        rows = read_generations(path)
        assert rows[0].record_id == "a"
        assert rows[0].output == "Nature"
        assert rows[1].record_id is None

    def test_missing_output_field(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        write_jsonl(path, [{"text": "no output here"}])
        with pytest.raises(DataError, match="output"):
            read_generations(path)

    def test_joint_output_with_newline_survives(self, tmp_path, scnm_en):
        path = tmp_path / "gen.jsonl"
        write_jsonl(path, [{"output": "Society\npeople: Tanaka"}])
        (row,) = read_generations(path)
        pred = parse_prediction(row.output, FormatTag.JOINT_MRE, scnm_en.schema)
        assert pred.text_label == "Society"
        assert pred.pairs
