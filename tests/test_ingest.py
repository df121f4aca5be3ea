from __future__ import annotations

import json

import pytest

from mremix import LabelEntityPair, few_shot_sample, ingest, load_split, repeated_test_sample
from mremix.errors import DataError
from mremix.ingest import Split, save_split
from mremix.rng import SplitMix64, derive_seed

from synth import planted_splits


def _write_jsonl(path, rows):
    path.write_text(
        "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", encoding="utf-8"
    )


ROW1 = {
    "id": "a",
    "text": "Tanaka visited Tokyo.",
    "text_label": "Society",
    "pairs": [{"label": "people", "entity": "Tanaka"}],
}
ROW2 = {"id": "b", "text": "New phone released.", "text_label": "Technology", "pairs": []}


class TestLoadSplit:
    def test_loads_wellformed_lines(self, tmp_path, scnm_en):
        path = tmp_path / "data.jsonl"
        _write_jsonl(path, [ROW1, ROW2])
        split = load_split(path, scnm_en, "train")
        assert len(split) == 2
        assert split.records[0].pairs[0] == LabelEntityPair("people", "Tanaka")

    def test_strict_rejects_bad_label_naming_line(self, tmp_path, scnm_en):
        path = tmp_path / "data.jsonl"
        _write_jsonl(path, [ROW1, {**ROW2, "text_label": "Sports"}])
        with pytest.raises(DataError, match="line 2"):
            load_split(path, scnm_en, "train")

    def test_lenient_keeps_bad_records_with_warning(self, tmp_path, scnm_en, caplog):
        path = tmp_path / "data.jsonl"
        _write_jsonl(path, [{**ROW2, "text_label": "Sports"}])
        with caplog.at_level("WARNING"):
            split = load_split(path, scnm_en, "train", strict=False)
        assert len(split) == 1
        assert any("Sports" in message for message in caplog.messages)

    def test_empty_file_warns(self, tmp_path, scnm_en, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            split = load_split(path, scnm_en, "train")
        assert len(split) == 0
        assert any("no records" in message for message in caplog.messages)

    def test_malformed_json_names_line(self, tmp_path, scnm_en):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(ROW1) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_split(path, scnm_en, "train")

    def test_missing_field_names_line(self, tmp_path, scnm_en):
        path = tmp_path / "bad.jsonl"
        _write_jsonl(path, [{"id": "a", "text": "t", "pairs": []}])
        with pytest.raises(DataError, match="text_label"):
            load_split(path, scnm_en, "train")

    @pytest.mark.parametrize("field, value", [
        ("text", None), ("id", 7), ("text_label", ["Society"]),
        ("pairs", [{"label": "people", "entity": None}]),
        ("pairs", [{"label": 1, "entity": "Tanaka"}]),
    ])
    def test_non_string_field_names_line(self, tmp_path, scnm_en, field, value):
        path = tmp_path / "bad.jsonl"
        _write_jsonl(path, [ROW2, {**ROW1, field: value}])
        with pytest.raises(DataError, match="line 2: malformed record .*must be a string"):
            load_split(path, scnm_en, "train")

    def test_schema_error_before_bad_json_is_reported_first(self, tmp_path, scnm_en):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(ROW1) + "\n" + json.dumps({**ROW2, "text": ""}) + "\n{bad\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"bad.jsonl: line 2: record 'b': text: must be non-empty$"):
            load_split(path, scnm_en, "train")

    def test_tsv_schema_error_before_non_canonical_pairs_is_reported_first(self, tmp_path, scnm_en):
        path = tmp_path / "legacy.tsv"
        path.write_text("a\tTanaka visited Tokyo.\tSports\tNONE\n"
                        "b\tNew phone released.\tTechnology\tpeople:Tanaka\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"legacy.tsv: line 1: record 'a': text_label: 'Sports'"):
            load_split(path, scnm_en, "train", fmt="tsv")

    @pytest.mark.parametrize("pair, detail", [
        ({}, "pairs[0]: missing field 'label'"), ("x", "pairs[0]: must be an object, got 'x'"),
    ])
    def test_malformed_pair_names_its_field(self, tmp_path, scnm_en, pair, detail):
        path = tmp_path / "bad.jsonl"
        _write_jsonl(path, [ROW2, {**ROW1, "pairs": [pair]}])
        with pytest.raises(DataError) as caught:
            load_split(path, scnm_en, "train")
        assert str(caught.value) == f"{path}: line 2: malformed record ({detail})"

    def test_non_utf8_names_file(self, tmp_path, scnm_en):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps(ROW1).encode() + b"\n\xff\n")
        with pytest.raises(DataError, match="bad.jsonl: line 2: not valid UTF-8"):
            load_split(path, scnm_en, "train")

    def test_bad_line_ahead_of_a_non_utf8_byte_is_reported(self, tmp_path, scnm_en):
        path = tmp_path / "bad.jsonl"
        rows = [ROW1, {**ROW2, "text": ""}, *({**ROW1, "id": f"r{i}"} for i in (3, 4))]
        path.write_bytes(b"".join(json.dumps(r).encode() + b"\n" for r in rows) + b"\xff\n")
        with pytest.raises(DataError) as caught:
            load_split(path, scnm_en, "train")
        assert str(caught.value).startswith(f"{path}: line 2: record ")
        assert str(caught.value).endswith("text: must be non-empty")

    def test_duplicate_id_rejected(self, tmp_path, scnm_en):
        path = tmp_path / "dup.jsonl"
        _write_jsonl(path, [ROW1, {**ROW2, "id": "a"}])
        with pytest.raises(DataError, match="duplicate record id"):
            load_split(path, scnm_en, "train")

    def test_duplicate_id_names_both_lines(self, tmp_path, scnm_en):
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(ROW1) + "\n\n" + json.dumps({**ROW2, "id": "a"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_split(path, scnm_en, "train", strict=False)
        assert str(caught.value) == f"{path}: line 3: duplicate record id 'a' (first on line 1)"
        tsv = tmp_path / "dup.tsv"
        tsv.write_text("b\tt\tSociety\tNONE\na\tt\tSociety\tNONE\na\tu\tSociety\tNONE\n",
                       encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_split(tsv, scnm_en, "train", fmt="tsv")
        assert str(caught.value) == f"{tsv}: line 3: duplicate record id 'a' (first on line 2)"

    @pytest.mark.parametrize("fmt, reader", [("jsonl", "read_jsonl_numbered"),
                                             ("tsv", "read_lines_numbered")])
    def test_duplicate_id_reads_the_file_once(self, tmp_path, scnm_en, monkeypatch, fmt, reader):
        path = tmp_path / f"dup.{fmt}"
        if fmt == "jsonl":
            _write_jsonl(path, [ROW2, ROW1, {**ROW2, "id": "a"}])
        else:
            path.write_text("b\tt\tSociety\tNONE\na\tt\tSociety\tNONE\na\tu\tSociety\tNONE\n",
                            encoding="utf-8")
        read = getattr(ingest, reader)
        opened = []

        def counted(*args, **kwargs):
            opened.append(args)
            return read(*args, **kwargs)

        monkeypatch.setattr(ingest, reader, counted)
        with pytest.raises(DataError) as caught:
            load_split(path, scnm_en, "train", fmt=fmt)
        assert str(caught.value) == f"{path}: line 3: duplicate record id 'a' (first on line 2)"
        assert len(opened) == 1

    def test_tsv_legacy_layout(self, tmp_path, scnm_en):
        path = tmp_path / "legacy.tsv"
        path.write_text(
            "a\tTanaka visited Tokyo.\tSociety\tpeople: Tanaka; places: Tokyo\n"
            "b\tNew phone released.\tTechnology\tNONE\n",
            encoding="utf-8",
        )
        split = load_split(path, scnm_en, "train", fmt="tsv")
        assert len(split) == 2
        assert split.records[0].pairs == (
            LabelEntityPair("people", "Tanaka"),
            LabelEntityPair("places", "Tokyo"),
        )
        assert split.records[1].pairs == ()

    def test_line_of_ideographic_space_is_a_malformed_record(self, tmp_path, scnm_en):
        path = tmp_path / "legacy.tsv"
        path.write_text("b\tt\tSociety\tNONE\n \t\n\u3000\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_split(path, scnm_en, "train", fmt="tsv")
        assert str(caught.value).startswith(f"{path}: line 3: malformed record")

    def test_tsv_wrong_columns(self, tmp_path, scnm_en):
        path = tmp_path / "legacy.tsv"
        path.write_text("a\tonly three\tcolumns\n", encoding="utf-8")
        with pytest.raises(DataError, match="4 tab-separated columns"):
            load_split(path, scnm_en, "train", fmt="tsv")

    def test_save_load_roundtrip(self, tmp_path, scnm_en):
        _, train, _, _ = planted_splits(n_train_per_label=3, n_test_per_label=1)
        path = tmp_path / "round.jsonl"
        save_split(path, train)
        loaded = load_split(path, scnm_en, "train")
        assert loaded.records == train.records


class TestFewShot:
    def test_twenty_per_label_gives_hundred(self):
        desc, train, _, _ = planted_splits(n_train_per_label=25)
        sampled = few_shot_sample(train, desc, 20, seed=3)
        assert len(sampled) == 100
        for label in desc.schema.text_labels:
            assert sum(1 for r in sampled.records if r.text_label == label) == 20

    def test_minimal_k(self):
        desc, train, _, _ = planted_splits(n_train_per_label=1)
        sampled = few_shot_sample(train, desc, 1, seed=3)
        assert len(sampled) == 5

    def test_determinism(self):
        desc, train, _, _ = planted_splits(n_train_per_label=30)
        a = few_shot_sample(train, desc, 5, seed=42)
        b = few_shot_sample(train, desc, 5, seed=42)
        assert a.ids() == b.ids()
        c = few_shot_sample(train, desc, 5, seed=43)
        assert a.ids() != c.ids()

    def test_insufficient_label_names_label_and_count(self):
        desc, train, _, _ = planted_splits(n_train_per_label=4)
        with pytest.raises(DataError, match=r"'Society' has 4 records"):
            few_shot_sample(train, desc, 5, seed=0)

    def test_open_domain_takes_the_observed_labels_sorted(self, tconer_en, make_record):
        labels = ["person", "Book", "person", "city", "Book", "city", "person"]
        train = Split(records=tuple(make_record(f"r{i}", label=label)
                                    for i, label in enumerate(labels)), role="train")
        sampled = few_shot_sample(train, tconer_en, 2, seed=1)
        assert [r.text_label for r in sampled.records] == ["Book", "Book", "city", "city",
                                                            "person", "person"]
        assert [r.id for r in sampled.records][:4] == ["r1", "r4", "r3", "r5"]
        with pytest.raises(DataError, match=r"^label 'Book' has 2 records, fewer than .* k=3$"):
            few_shot_sample(train, tconer_en, 3, seed=1)

    def test_requires_train_role(self):
        desc, _, test, _ = planted_splits()
        with pytest.raises(DataError, match="train split"):
            few_shot_sample(test, desc, 1, seed=0)


class TestRepeatedTestSample:
    def test_protocol_shape(self):
        desc, _, test, _ = planted_splits(n_test_per_label=1000 // 5 + 210)
        assert len(test) >= 1000
        draws = repeated_test_sample(test, 1000, 3, seed=9)
        assert len(draws) == 3
        assert all(len(d) == 1000 for d in draws)

    def test_no_duplicates_within_draw(self):
        _, _, test, _ = planted_splits(n_test_per_label=50)
        for draw in repeated_test_sample(test, 100, 3, seed=1):
            assert len(set(draw.ids())) == 100

    def test_full_size_draw_is_permutation(self):
        _, _, test, _ = planted_splits(n_test_per_label=20)
        (draw,) = repeated_test_sample(test, len(test), 1, seed=5)
        assert sorted(draw.ids()) == sorted(test.ids())

    def test_sub_seed_determinism_per_draw(self):
        _, _, test, _ = planted_splits(n_test_per_label=50)
        first = repeated_test_sample(test, 60, 3, seed=77)
        again = repeated_test_sample(test, 60, 3, seed=77)
        assert [d.ids() for d in first] == [d.ids() for d in again]
        # draw 2 in isolation is reproducible from its own sub-seed
        rng = SplitMix64(derive_seed(77, 2))
        direct = [r.id for r in rng.sample(test.records, 60)]
        assert direct == first[2].ids()

    def test_n_too_large(self):
        _, _, test, _ = planted_splits(n_test_per_label=2)
        with pytest.raises(DataError, match="exceeds test split size"):
            repeated_test_sample(test, len(test) + 1, 1, seed=0)

    def test_requires_test_role(self):
        _, train, _, _ = planted_splits()
        with pytest.raises(DataError, match="test split"):
            repeated_test_sample(train, 1, 1, seed=0)


class TestRng:
    def test_randbelow_bounds(self):
        rng = SplitMix64(1)
        values = [rng.randbelow(7) for _ in range(2000)]
        assert set(values) == set(range(7))

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(100))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_sample_distinct(self):
        rng = SplitMix64(5)
        picked = rng.sample(list(range(50)), 20)
        assert len(set(picked)) == 20

    def test_known_stream_is_stable(self):
        # pin the stream so cross-version drift is caught immediately
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]


def test_split_rejects_duplicate_ids(make_record):
    with pytest.raises(DataError, match="duplicate record id"):
        Split(records=(make_record("x"), make_record("x")), role="train")


def test_split_rejects_unknown_role(make_record):
    with pytest.raises(DataError, match="role"):
        Split(records=(make_record("x"),), role="dev")
