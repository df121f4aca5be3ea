from __future__ import annotations

import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mremix import build_from_wli, few_shot_sample, runner, save_kv, save_split, shuffle_words
from mremix.cli import main
from mremix.errors import ConfigError
from mremix.formats import FormatTag, read_examples
from mremix.jsonio import read_json, write_json, write_jsonl

from synth import planted_splits
from test_ablation_paths import reference_lines


def _setup_dataset(tmp_path, n_train=10, n_test=8, kv_k=10):
    desc, train, test, _ = planted_splits(
        n_train_per_label=n_train, n_test_per_label=n_test, pool_size=12
    )
    save_split(tmp_path / "train.jsonl", train)
    save_split(tmp_path / "test.jsonl", test)
    kv = build_from_wli(train, desc, k=kv_k)
    save_kv(shuffle_words(kv, seed=99), tmp_path / "origin_kv.txt")
    return desc, train, test


def _run_kv_args(tmp_path, out, **extra):
    args = [
        "run-kv",
        "--family", "SCNM",
        "--language", "en",
        "--train", str(tmp_path / "train.jsonl"),
        "--test", str(tmp_path / "test.jsonl"),
        "--external-kv", str(tmp_path / "origin_kv.txt"),
        "--seed", "3",
        "--few-shot-k", "5",
        "--test-n", "20",
        "--repeats", "2",
        "--kv-k", "10",
        "--out", str(out),
    ]
    for flag, value in extra.items():
        args.extend([flag, value])
    return args


def _put_mask_in_text(path, record_id):
    """Rewrite one record of a JSONL record file so that its text holds a mask slot."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if row["id"] == record_id:
            row["text"] += " {mask}"
    write_jsonl(path, rows)


class TestValidate:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        code = main(["validate", "--family", "SCNM", "--language", "en",
                     str(tmp_path / "train.jsonl")])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_label_exits_one_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "t", "text_label": "Society", "pairs": []},
            {"id": "b", "text": "t", "text_label": "Sports", "pairs": []},
        ])
        code = main(["validate", "--family", "SCNM", "--language", "en", str(path)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_id_names_file_and_lines(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "t", "text_label": "Society", "pairs": []},
            {"id": "a", "text": "u", "text_label": "Society", "pairs": []},
        ])
        code = main(["validate", "--family", "SCNM", "--language", "en", str(path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"data error: {path}: line 2: duplicate record id 'a' (first on line 1)\n")

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["validate", "--family", "SCNM", "--language", "en",
                     str(tmp_path / "nope.jsonl")])
        assert code == 2

    def test_missing_descriptor_is_config_error(self, tmp_path):
        _setup_dataset(tmp_path)
        code = main(["validate", str(tmp_path / "train.jsonl")])
        assert code == 3

    def test_unknown_flag_is_config_error(self):
        assert main(["validate", "--nonsense"]) == 3

    def test_non_utf8_file_is_data_error_naming_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'\xff{"id": "a"}\n')
        code = main(["validate", "--family", "SCNM", "--language", "en", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err == f"data error: {path}: line 1: not valid UTF-8 (invalid start byte)\n"

    def test_non_canonical_tsv_pairs_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tTanaka visited Tokyo.\tSociety\tpeople:Tanaka ;; junk\n",
                        encoding="utf-8")
        code = main(["validate", "--family", "SCNM", "--language", "en",
                     "--record-format", "tsv", str(path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "OK" not in out
        assert err == (f"data error: {path}: line 1: malformed record (pairs column is not "
                       "canonical: 'people:Tanaka ;; junk')\n")

    def test_lone_surrogate_escape_is_data_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "text": "bad \\ud800 text", "text_label": "Society", '
                        '"pairs": [{"label": "people", "entity": "Tanaka"}]}\n', encoding="utf-8")
        code = main(["validate", "--family", "SCNM", "--language", "en", str(path)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"data error: {path}: line 1: not valid Unicode (lone surrogate)\n")

    def test_escaped_surrogate_pair_and_escaped_backslash_load(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('\n{"id": "a", "text": "smile \\ud83d\\ude00 and \\\\ud800", '
                        '"text_label": "Society", "pairs": []}\n', encoding="utf-8")
        code = main(["validate", "--family", "SCNM", "--language", "en", str(path)])
        assert (code, capsys.readouterr().out) == (0, f"OK {path} (1 records)\n")

    def test_null_text_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "null.jsonl"
        write_jsonl(path, [{"id": "a", "text": None, "text_label": "Society", "pairs": []}])
        code = main(["validate", "--family", "SCNM", "--language", "en", str(path)])
        assert code == 1
        assert "line 1" in capsys.readouterr().err


def test_escaping_unicode_decode_error_is_data_error(monkeypatch, capsys):
    from mremix import cli

    def undecodable(args):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(cli, "cmd_report", undecodable)
    assert main(["report", "--inputs", "r.json", "--out", "o"]) == 1
    assert capsys.readouterr().err.startswith("data error: not valid UTF-8")


def test_non_utf8_external_kv_names_file(tmp_path, capsys):
    _setup_dataset(tmp_path)
    (tmp_path / "origin_kv.txt").write_bytes(b"[Society]\n\xe6\n")
    code = main(_run_kv_args(tmp_path, tmp_path / "out"))
    assert code == 1
    path = tmp_path / "origin_kv.txt"
    assert f"{path}: line 2: not valid UTF-8 (invalid continuation byte)" in capsys.readouterr().err


class TestBuildFormats:
    def test_all_tags_train(self, tmp_path):
        _setup_dataset(tmp_path)
        out = tmp_path / "formats"
        code = main(["build-formats", "--family", "SCNM", "--language", "en",
                     "--input", str(tmp_path / "train.jsonl"), "--role", "train",
                     "--tags", "all", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.glob("*.jsonl"))
        assert len(files) == 7
        manifest = read_json(out / "scnm_en_train_manifest.json")
        assert len(manifest["files"]) == 7
        assert manifest["config"]["few_shot_k"] == 20  # defaults echoed

    @pytest.mark.parametrize("role", ["train", "test"])
    def test_manifest_lists_each_file_and_each_record_set_once(self, tmp_path, role):
        _setup_dataset(tmp_path)
        out = tmp_path / "formats"
        code = main(["build-formats", "--family", "SCNM", "--language", "en",
                     "--input", str(tmp_path / f"{role}.jsonl"), "--role", role,
                     "--tags", "all", "--test-n", "15", "--repeats", "3", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        manifest = read_json(out / f"scnm_en_{role}_manifest.json")
        assert sorted(manifest) == ["config", "files", "record_ids", "role"]
        draws = [None] if role == "train" else [0, 1, 2]
        assert manifest["files"] == [  # no counts, no ids
            {"file": f"scnm_en_{tag.value.lower()}.{role}.jsonl", "tag": tag.value}
            if d is None else
            {"file": f"scnm_en_{tag.value.lower()}.test.draw{d}.jsonl", "tag": tag.value,
             "draw_index": d}
            for tag in FormatTag for d in draws]
        assert len(manifest["record_ids"]) == len(draws)
        for entry in manifest["files"]:
            ids = manifest["record_ids"][entry.get("draw_index", 0)]
            assert [e.record_id for e in read_examples(out / entry["file"])] == ids
        if role == "train":
            lines = (tmp_path / "train.jsonl").read_text(encoding="utf-8").splitlines()
            assert manifest["record_ids"] == [[json.loads(line)["id"] for line in lines]]

    def test_repeated_tag_is_config_error(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        out = tmp_path / "formats"
        code = main(["build-formats", "--family", "SCNM", "--language", "en",
                     "--input", str(tmp_path / "train.jsonl"),
                     "--tags", "TRAD_TEXT,trad_text", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "config error: format tag TRAD_TEXT is named more than once in --tags\n")
        assert not out.exists()

    def test_single_tag(self, tmp_path):
        _setup_dataset(tmp_path)
        out = tmp_path / "one"
        code = main(["build-formats", "--family", "SCNM", "--language", "en",
                     "--input", str(tmp_path / "train.jsonl"),
                     "--tags", "JOINT_MRE", "--out", str(out)])
        assert code == 0
        examples = read_examples(out / "scnm_en_joint_mre.train.jsonl")
        assert len(examples) == 50

    def test_test_role_emits_draws(self, tmp_path):
        _setup_dataset(tmp_path)
        out = tmp_path / "draws"
        code = main(["build-formats", "--family", "SCNM", "--language", "en",
                     "--input", str(tmp_path / "test.jsonl"), "--role", "test",
                     "--tags", "TRAD_TEXT", "--test-n", "15", "--repeats", "3",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        for d in range(3):
            assert len(read_examples(out / f"scnm_en_trad_text.test.draw{d}.jsonl")) == 15

    def test_overwrite_requires_force(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        out = tmp_path / "formats"
        args = ["build-formats", "--family", "SCNM", "--language", "en",
                "--input", str(tmp_path / "train.jsonl"),
                "--tags", "TRAD_TEXT", "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 2
        assert "--force" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_unknown_tag_is_config_error(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        code = main(["build-formats", "--family", "SCNM", "--language", "en",
                     "--input", str(tmp_path / "train.jsonl"),
                     "--tags", "NOT_A_TAG", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_lenient_invalid_record_is_data_error(self, tmp_path, capsys):
        _, train, _ = _setup_dataset(tmp_path)
        rows = [r.to_dict() for r in train.records]
        rows.insert(3, {"id": "bad", "text": "t", "text_label": "Bogus", "pairs": []})
        write_jsonl(tmp_path / "mixed.jsonl", rows)
        code = main(["build-formats", "--family", "SCNM", "--language", "en", "--lenient",
                     "--input", str(tmp_path / "mixed.jsonl"), "--tags", "all",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "data error: record 'bad': text_label: 'Bogus' is not in the text-level schema")
        assert not (tmp_path / "out").exists()

    def test_lenient_from_config_file_holds_without_the_flag(self, tmp_path, capsys):
        _, train, _ = _setup_dataset(tmp_path)
        rows = [r.to_dict() for r in train.records]
        rows.insert(3, {"id": "bad", "text": "t", "text_label": "Bogus", "pairs": []})
        write_jsonl(tmp_path / "mixed.jsonl", rows)
        for lenient, expected in ((True, "data error: record 'bad': "),
                                  (False, f"data error: {tmp_path / 'mixed.jsonl'}: line 4: ")):
            write_json(tmp_path / "cfg.json", {"lenient": lenient})
            capsys.readouterr()
            code = main(["build-formats", "--family", "SCNM", "--language", "en",
                         "--config", str(tmp_path / "cfg.json"),
                         "--input", str(tmp_path / "mixed.jsonl"), "--out", str(tmp_path / "out")])
            assert code == 1
            # lenient loading keeps the record, and rendering it is what fails
            assert capsys.readouterr().err.splitlines()[-1].startswith(expected)

    def test_separator_error_comes_before_a_later_invalid_record(self, tmp_path, capsys):
        # each record is checked on first use, so the joint format's separator
        # check on the first record runs before the second record is validated
        rows = [
            {"id": "sep", "text": "a b", "text_label": "x\ny", "pairs": []},
            {"id": "empty", "text": " ", "text_label": "x", "pairs": []},
        ]
        write_jsonl(tmp_path / "open.jsonl", rows)
        code = main(["build-formats", "--family", "TCONER", "--language", "en", "--lenient",
                     "--input", str(tmp_path / "open.jsonl"), "--tags", "JOINT_MRE,TRAD_TEXT",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: record 'sep': text label contains the separator and "
            "cannot appear in a joint target")
        assert not (tmp_path / "out").exists()

    def test_invalid_record_comes_before_a_later_format_separator_error(self, tmp_path, capsys):
        # with the joint format second, every record is validated first
        rows = [
            {"id": "sep", "text": "a b", "text_label": "x\ny", "pairs": []},
            {"id": "empty", "text": " ", "text_label": "x", "pairs": []},
        ]
        write_jsonl(tmp_path / "open.jsonl", rows)
        code = main(["build-formats", "--family", "TCONER", "--language", "en", "--lenient",
                     "--input", str(tmp_path / "open.jsonl"), "--tags", "TRAD_TEXT,JOINT_MRE",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "data error: record 'empty': text: must be non-empty")
        assert not (tmp_path / "out").exists()

    def test_unserializable_pair_label_names_record_and_pair(self, tmp_path, capsys):
        rows = [{"id": "a", "text": "a b", "text_label": "x",
                 "pairs": [{"label": "a: b", "entity": "c"}]}]
        write_jsonl(tmp_path / "open.jsonl", rows)
        code = main(["build-formats", "--family", "TCONER", "--language", "en",
                     "--input", str(tmp_path / "open.jsonl"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: record 'a': pairs[0]: label 'a: b' contains ': ' and cannot be serialized")

    def test_lone_surrogate_escape_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "text": "ok", "text_label": "Society", "pairs": []}\n'
                        '{"id": "b", "text": "bad \\uDC00 text", "text_label": "Society", '
                        '"pairs": []}\n', encoding="utf-8")
        code = main(["build-formats", "--family", "SCNM", "--language", "en", "--input", str(path),
                     "--role", "train", "--tags", "all", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"data error: {path}: line 2: not valid Unicode (lone surrogate)\n")
        assert not (tmp_path / "out").exists()

    def test_outputs_equal_per_example_builds(self, tmp_path, monkeypatch):
        _setup_dataset(tmp_path)
        args = ["build-formats", "--family", "SCNM", "--language", "en",
                "--input", str(tmp_path / "test.jsonl"), "--role", "test",
                "--tags", "TRAD_WORD,JOINT_MRE,WITH_WLI_TO_TLI,WO_WLI_TO_TLI",
                "--test-n", "12", "--repeats", "3", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "shared")]) == 0

        monkeypatch.setattr(runner, "build_corpus",
                            lambda records, tag, desc, *_: reference_lines(records, tag, desc))
        assert main(args + ["--out", str(tmp_path / "per-example")]) == 0
        trees = [{p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
                 for name in ("shared", "per-example")]
        assert len(trees[0]) == 4 * 3 + 1
        assert trees[0] == trees[1]


class TestBuildKv:
    def test_writes_kv_file(self, tmp_path):
        _setup_dataset(tmp_path)
        out = tmp_path / "kv.txt"
        code = main(["build-kv", "--family", "SCNM", "--language", "en",
                     "--train", str(tmp_path / "train.jsonl"),
                     "--kv-k", "5", "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "[Society]" in text
        sidecar = read_json(tmp_path / "kv.txt.config.json")
        assert sidecar["kv_words_per_label"] == 5
        assert sidecar["train_path"] == str(tmp_path / "train.jsonl")

    def test_lenient_skips_a_record_outside_the_schema(self, tmp_path):
        _, train, _ = _setup_dataset(tmp_path)
        rows = [r.to_dict() for r in train.records]
        rows.insert(3, {"id": "bad", "text": "t", "text_label": "Bogus",
                        "pairs": rows[0]["pairs"] * 20})
        write_jsonl(tmp_path / "mixed.jsonl", rows)
        for name in ("train", "mixed"):
            code = main(["build-kv", "--family", "SCNM", "--language", "en", "--lenient",
                         "--train", str(tmp_path / f"{name}.jsonl"), "--kv-k", "5",
                         "--out", str(tmp_path / f"{name}_kv.txt")])
            assert code == 0
        assert (tmp_path / "mixed_kv.txt").read_bytes() == (tmp_path / "train_kv.txt").read_bytes()

    def test_tconer_refused_with_exclusion_message(self, tmp_path, capsys):
        desc, train, test = _setup_dataset(tmp_path)
        rows = [r.to_dict() for r in train.records]
        write_jsonl(tmp_path / "open.jsonl", rows)
        code = main(["build-kv", "--family", "TCONER", "--language", "en",
                     "--train", str(tmp_path / "open.jsonl"),
                     "--out", str(tmp_path / "kv.txt")])
        assert code == 3
        assert "open-domain" in capsys.readouterr().err

    def test_train_path_from_config(self, tmp_path):
        _setup_dataset(tmp_path)
        write_json(tmp_path / "cfg.json", {"train_path": str(tmp_path / "train.jsonl")})
        flag, cfg = tmp_path / "flag.txt", tmp_path / "cfg.txt"
        main(["build-kv", "--family", "SCNM", "--language", "en",
              "--train", str(tmp_path / "train.jsonl"), "--out", str(flag)])
        code = main(["build-kv", "--family", "SCNM", "--language", "en",
                     "--config", str(tmp_path / "cfg.json"), "--out", str(cfg)])
        assert code == 0
        assert cfg.read_bytes() == flag.read_bytes()

    def test_missing_train_is_config_error(self, tmp_path, capsys):
        code = main(["build-kv", "--family", "SCNM", "--language", "en",
                     "--out", str(tmp_path / "kv.txt")])
        assert code == 3
        assert "--train" in capsys.readouterr().err
        assert not (tmp_path / "kv.txt").exists()


@pytest.mark.parametrize("command", ["build-kv", "run-kv"])
def test_fewshot_kv_source_writes_the_few_shot_verbalizer(tmp_path, command):
    desc, train, _ = _setup_dataset(tmp_path)
    expected, from_train = tmp_path / "expected.txt", tmp_path / "from_train.txt"
    save_kv(build_from_wli(few_shot_sample(train, desc, 5, 3), desc, 10), expected)
    save_kv(build_from_wli(train, desc, 10), from_train)
    assert expected.read_bytes() != from_train.read_bytes()
    out = tmp_path / "out"
    if command == "build-kv":
        argv, written = ["build-kv", "--family", "SCNM", "--language", "en",
                         "--train", str(tmp_path / "train.jsonl"), "--seed", "3",
                         "--few-shot-k", "5", "--kv-k", "10", "--out", str(out / "kv.txt")], "kv.txt"
    else:  # the same seed, k and kv-k
        argv, written = _run_kv_args(tmp_path, out), "wli_kv.txt"
    assert main(argv + ["--kv-source", "fewshot"]) == 0
    assert (out / written).read_bytes() == expected.read_bytes()


def test_open_domain_is_one_message_in_every_kv_command(tmp_path, capsys):
    _setup_dataset(tmp_path)
    dataset = ["--family", "TCONER", "--language", "en"]
    kv, test = str(tmp_path / "origin_kv.txt"), str(tmp_path / "test.jsonl")
    train = ["--train", str(tmp_path / "train.jsonl")]
    errors = _config_errors(capsys, [
        ["build-kv", *dataset, *train, "--out", str(tmp_path / "kv.txt")],
        ["score", *dataset, *train, "--kv", kv, "--input", test, "--out", str(tmp_path / "p")],
        ["run-kv", *dataset, *train, "--test", test, "--external-kv", kv,
         "--out", str(tmp_path / "run")],
    ])
    assert errors == ["config error: knowledgeable verbalizers require a fixed label schema; "
                      "open-domain datasets are excluded from KV experiments\n"] * 3


class TestScore:
    def test_emits_predictions(self, tmp_path):
        _setup_dataset(tmp_path, kv_k=10)
        kv_path = tmp_path / "wli_kv.txt"
        main(["build-kv", "--family", "SCNM", "--language", "en",
              "--train", str(tmp_path / "train.jsonl"), "--kv-k", "10",
              "--out", str(kv_path)])
        out = tmp_path / "preds.jsonl"
        code = main(["score", "--family", "SCNM", "--language", "en",
                     "--kv", str(kv_path), "--input", str(tmp_path / "test.jsonl"),
                     "--train", str(tmp_path / "train.jsonl"), "--kv-k", "10",
                     "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 40
        assert {"label", "record_id", "no_coverage", "scores"} <= set(rows[0])
        sidecar = read_json(tmp_path / "preds.jsonl.config.json")
        assert sidecar["kv_words_per_label"] == 10

    def test_file_provider_failure_names_record(self, tmp_path, capsys):
        _, train, test = _setup_dataset(tmp_path, kv_k=10)
        kv_path = tmp_path / "wli_kv.txt"
        main(["build-kv", "--family", "SCNM", "--language", "en",
              "--train", str(tmp_path / "train.jsonl"), "--kv-k", "10",
              "--out", str(kv_path)])
        dist_path = tmp_path / "dists.jsonl"
        write_jsonl(dist_path, [{"prompt": "not any real prompt", "probs": {"x": 1.0}}])
        code = main(["score", "--family", "SCNM", "--language", "en",
                     "--kv", str(kv_path), "--input", str(tmp_path / "test.jsonl"),
                     "--provider", f"file:{dist_path}", "--kv-k", "10",
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "provider failed" in err
        assert test.records[0].id in err

    def test_mask_slot_in_record_text_is_data_error_naming_record(self, tmp_path, capsys):
        _, _, test = _setup_dataset(tmp_path)
        bad = test.records[2]
        _put_mask_in_text(tmp_path / "test.jsonl", bad.id)
        code = main(["score", "--family", "SCNM", "--language", "en",
                     "--kv", str(tmp_path / "origin_kv.txt"),
                     "--input", str(tmp_path / "test.jsonl"),
                     "--train", str(tmp_path / "train.jsonl"), "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"data error: record {bad.id!r}: ") and "2 {mask} slots" in err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("row", [
        {"prompt": "p {mask}", "probs": [0.5, 0.5]},
        {"prompt": "p {mask}", "probs": {"x": "high"}},
        {"prompt": "p {mask}", "probs": {"x": True}},
        {"prompt": 7, "probs": {"x": 1.0}},
        {"prompt": "p {mask}", "probs": {"x": 1.0}, "covered": "x"},
        {"prompt": "p {mask}", "probs": {"x": math.nan}},
        {"prompt": "p {mask}", "probs": {"x": -1}},
        {"prompt": "p {mask}", "probs": {"x": 0.5, "y": math.inf}},
        {"prompt": "p {mask}", "probs": {"x": -math.inf}},
    ])
    def test_malformed_probs_row_is_data_error(self, tmp_path, capsys, row):
        _setup_dataset(tmp_path)
        dist_path = tmp_path / "dists.jsonl"
        write_jsonl(dist_path, [{"prompt": "q {mask}", "probs": {"x": 1}}, row])
        code = main(["score", "--family", "SCNM", "--language", "en",
                     "--kv", str(tmp_path / "origin_kv.txt"),
                     "--input", str(tmp_path / "test.jsonl"),
                     "--provider", f"file:{dist_path}", "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"data error: {dist_path}: line 2: ")

    def test_probs_error_names_true_line_after_blank(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        dist_path = tmp_path / "dists.jsonl"
        dist_path.write_text('{"prompt": "q {mask}", "probs": {"x": 1}}\n\n'
                             '{"prompt": 5, "probs": {"x": 1}}\n', encoding="utf-8")
        code = main(["score", "--family", "SCNM", "--language", "en",
                     "--kv", str(tmp_path / "origin_kv.txt"),
                     "--input", str(tmp_path / "test.jsonl"),
                     "--provider", f"file:{dist_path}", "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"data error: {dist_path}: line 3: 'prompt' must be a string\n")

    @pytest.mark.parametrize("source", ["flag-nan", "flag-inf", "config-nan"])
    def test_non_finite_alpha_is_config_error(self, tmp_path, capsys, source):
        _setup_dataset(tmp_path)
        args = ["score", "--family", "SCNM", "--language", "en",
                "--kv", str(tmp_path / "origin_kv.txt"),
                "--input", str(tmp_path / "test.jsonl"),
                "--train", str(tmp_path / "train.jsonl"), "--out", str(tmp_path / "p.jsonl")]
        if source == "config-nan":
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"alpha": NaN}\n', encoding="utf-8")
            args += ["--config", str(cfg)]
        else:
            args += ["--alpha", source.split("-")[1]]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: alpha must be finite and positive")
        assert err.count("\n") == 1
        assert not (tmp_path / "p.jsonl").exists()


def _build_draws(tmp_path, tag="TRAD_TEXT"):
    """Gold draw files and perfect generations for them."""
    _setup_dataset(tmp_path)
    out = tmp_path / "draws"
    main(["build-formats", "--family", "SCNM", "--language", "en",
          "--input", str(tmp_path / "test.jsonl"), "--role", "test",
          "--tags", tag, "--test-n", "10", "--repeats", "2",
          "--seed", "5", "--out", str(out)])
    name = f"scnm_en_{tag.lower()}.test"
    draw_paths = [out / f"{name}.draw{d}.jsonl" for d in range(2)]
    gen_paths = []
    for d, draw_path in enumerate(draw_paths):
        examples = read_examples(draw_path)
        gen_path = tmp_path / f"gen{d}.jsonl"
        write_jsonl(gen_path, [
            {"record_id": e.record_id, "output": e.target} for e in examples
        ])
        gen_paths.append(gen_path)
    return draw_paths, gen_paths


class TestEvaluate:
    def test_perfect_generations(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path)
        out = tmp_path / "eval"
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_TEXT",
                     "--draws", *map(str, draw_paths),
                     "--generations", *map(str, gen_paths),
                     "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["summary"]["text"]["f1"]["mean"] == 1.0
        assert (out / "report.md").exists()
        assert (out / "report.tsv").exists()

    def test_missing_generation_file_names_draw(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path)
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_TEXT",
                     "--draws", *map(str, draw_paths),
                     "--generations", str(gen_paths[0]), str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "eval2")])
        assert code == 2
        assert "draw 1" in capsys.readouterr().err

    def test_missing_draw_file_names_draw(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path)
        missing = tmp_path / "missing.jsonl"
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_TEXT",
                     "--draws", str(draw_paths[0]), str(missing),
                     "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval2")])
        assert code == 2
        assert capsys.readouterr().err == f"i/o error: draw 1: missing draw file {missing}\n"
        assert not (tmp_path / "eval2").exists()

    def test_count_mismatch_is_config_error(self, tmp_path):
        draw_paths, gen_paths = _build_draws(tmp_path)
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_TEXT",
                     "--draws", *map(str, draw_paths),
                     "--generations", str(gen_paths[0]),
                     "--out", str(tmp_path / "eval3")])
        assert code == 3

    @pytest.mark.parametrize("row", [
        {"output": None}, {"output": 5}, {"record_id": 7, "output": "Society"},
    ])
    def test_non_string_generation_field_is_data_error(self, tmp_path, capsys, row):
        draw_paths, gen_paths = _build_draws(tmp_path)
        first = gen_paths[0].read_text(encoding="utf-8").splitlines()[0]
        gen_paths[0].write_text(f"{first}\n\n{json.dumps(row)}\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_TEXT",
                     "--draws", *map(str, draw_paths),
                     "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{gen_paths[0]}: line 3: " in err[0]
        assert "must be a string" in err[0]
        assert not (tmp_path / "eval").exists()

    def test_non_canonical_gold_target_is_data_error(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_WORD")
        rows = [json.loads(line) for line in draw_paths[1].read_text(encoding="utf-8").splitlines()]
        rows[0]["target"] = "people:Tanaka"
        write_jsonl(draw_paths[1], rows)
        capsys.readouterr()
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_WORD",
                     "--draws", *map(str, draw_paths),
                     "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"draw 1: record {rows[0]['record_id']!r}: gold target is not canonical" in err[0]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("tag", ["TRAD_TEXT", "JOINT_MRE", "WO_TLI_TO_WLI"])
    def test_draws_of_another_format_are_data_error(self, tmp_path, capsys, tag):
        # the generations equal the TRAD_WORD gold, so only the tag check can refuse them
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_WORD")
        first = read_examples(draw_paths[0])[0]
        capsys.readouterr()
        code = main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", tag,
                     "--draws", *map(str, draw_paths),
                     "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"data error: draw 0: record {first.record_id!r}: the draw row is of format "
            f"TRAD_WORD, not {tag}\n")
        assert not (tmp_path / "eval").exists()

    def test_draws_of_another_dataset_are_data_error(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_WORD")
        capsys.readouterr()
        code = main(["evaluate", "--family", "scnm", "--language", "zh", "--tag", "TRAD_WORD",
                     "--draws", *map(str, draw_paths),
                     "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        manifest = tmp_path / "draws" / "scnm_en_test_manifest.json"
        assert capsys.readouterr().err == (
            f"data error: draw 0: {draw_paths[0]} was built for SCNM/en (per {manifest}), "
            "not for SCNM/zh as --family/--language say\n")
        assert not (tmp_path / "eval").exists()

    def test_draws_that_no_manifest_lists_are_evaluated(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_TEXT")
        copies = []
        for d, path in enumerate(draw_paths):
            copies.append(tmp_path / f"copy{d}.jsonl")
            copies[-1].write_bytes(path.read_bytes())
        (tmp_path / "other_manifest.json").write_text(
            '{"config": {"family": "TCREE", "language": "ja"}, "files": []}', encoding="utf-8")
        code = main(["evaluate", "--family", "SCNM", "--language", "zh", "--tag", "TRAD_TEXT",
                     "--draws", *map(str, copies), "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval")])
        assert code == 0

    def test_manifest_of_the_earlier_layout_is_read(self, tmp_path, capsys):
        """A manifest that lists each file's record ids and counts, as build-formats
        wrote before each record set's ids were listed once, still names the dataset."""
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_WORD")
        manifest = tmp_path / "draws" / "scnm_en_test_manifest.json"
        files = []
        for d, path in enumerate(draw_paths):
            ids = [e.record_id for e in read_examples(path)]
            files.append({"file": path.name, "tag": "TRAD_WORD", "draw_index": d,
                          "count": len(ids), "counts_by_tag": {"TRAD_WORD": len(ids)},
                          "record_ids": ids})
        write_json(manifest, {"role": "test", "config": read_json(manifest)["config"],
                              "files": files})
        capsys.readouterr()
        evaluate = ["evaluate", "--family", "SCNM", "--tag", "TRAD_WORD",
                    "--draws", *map(str, draw_paths), "--generations", *map(str, gen_paths)]
        assert main([*evaluate, "--language", "en", "--out", str(tmp_path / "eval")]) == 0
        assert main([*evaluate, "--language", "zh", "--out", str(tmp_path / "zh")]) == 1
        assert capsys.readouterr().err == (
            f"data error: draw 0: {draw_paths[0]} was built for SCNM/en (per {manifest}), "
            "not for SCNM/zh as --family/--language say\n")

    def test_malformed_manifest_beside_a_draw_is_data_error(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_TEXT")
        manifest = tmp_path / "draws" / "scnm_en_test_manifest.json"
        write_json(manifest, {"config": {"family": None}, "files": []})
        capsys.readouterr()
        code = main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", "TRAD_TEXT",
                     "--draws", *map(str, draw_paths), "--generations", *map(str, gen_paths),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {manifest}: not a build-formats manifest (")
        assert err.count("\n") == 1

    def test_empty_draw_is_data_error(self, tmp_path, capsys):
        (tmp_path / "draw.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "gen.jsonl").write_text("\n", encoding="utf-8")
        code = main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", "TRAD_TEXT",
                     "--draws", str(tmp_path / "draw.jsonl"),
                     "--generations", str(tmp_path / "gen.jsonl"), "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == "data error: draw 0: no examples\n"
        assert not (tmp_path / "eval").exists()

    def test_macro_text_metric_recorded(self, tmp_path):
        draw_paths, gen_paths = _build_draws(tmp_path)
        out = tmp_path / "macro"
        code = main(["evaluate", "--family", "SCNM", "--language", "en",
                     "--tag", "TRAD_TEXT", "--text-metric", "macro",
                     "--draws", *map(str, draw_paths),
                     "--generations", *map(str, gen_paths),
                     "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["metadata"]["text_metric"] == "macro"
        assert report["summary"]["text"]["f1"]["mean"] == 1.0


class TestRunKv:
    def test_planted_comparison(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(_run_kv_args(tmp_path, out)) == 0
        report = read_json(out / "kv_report.json")
        names = [row["name"] for row in report["rows"]]
        assert names == ["Origin KV", "WLI KV"]
        wli = report["rows"][1]["f1"]["mean"]
        origin = report["rows"][0]["f1"]["mean"]
        assert wli > origin
        config = read_json(out / "effective_config.json")
        assert config["few_shot_k"] == 5
        assert (out / "wli_kv.txt").exists()
        assert (out / "predictions_wli.draw0.jsonl").exists()

    def test_mask_slot_in_record_text_is_data_error_naming_record(self, tmp_path, capsys):
        _, _, test = _setup_dataset(tmp_path, n_test=4)
        bad = test.records[-1]
        _put_mask_in_text(tmp_path / "test.jsonl", bad.id)
        out = tmp_path / "run"
        code = main(_run_kv_args(tmp_path, out, **{"--test-n": str(len(test))}))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"data error: record {bad.id!r}: ") and "2 {mask} slots" in err
        assert not out.exists()

    def test_tconer_refused(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        code = main(_run_kv_args(tmp_path, tmp_path / "x")[:1] + [
            "--family", "TCONER", "--language", "en",
            "--train", str(tmp_path / "train.jsonl"),
            "--test", str(tmp_path / "test.jsonl"),
            "--external-kv", str(tmp_path / "origin_kv.txt"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert "excluded from KV experiments" in capsys.readouterr().err

    def test_file_provider_draws_no_few_shot_sample(self, tmp_path, capsys):
        _, _, test = _setup_dataset(tmp_path)  # 10 training records per label
        dists = tmp_path / "dists.jsonl"
        write_jsonl(dists, [{"prompt": f"{r.text}\n{{mask}}", "probs": {r.text.split()[0]: 1.0}}
                            for r in test.records])
        out = tmp_path / "run"
        code = main(_run_kv_args(tmp_path, out, **{"--provider": f"file:{dists}",
                                                   "--kv-source": "train", "--few-shot-k": "50"}))
        assert code == 0, capsys.readouterr().err
        assert read_json(out / "kv_report.json")["metadata"]["provider"]["kind"] == "file"

    def test_word_that_would_not_reload_fails_before_scoring(self, tmp_path, capsys,
                                                             monkeypatch):
        desc, train, _ = _setup_dataset(tmp_path)
        label = desc.schema.text_labels[0]
        rows = [r.to_dict() for r in train.records]
        for row in rows:  # the label's most frequent entity
            if row["text_label"] == label:
                row["pairs"][0]["entity"] = "C#"
        write_jsonl(tmp_path / "train.jsonl", rows)
        real, calls = runner.predict, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "predict", counted)
        out = tmp_path / "run"
        assert main(_run_kv_args(tmp_path, out)) == 1
        assert capsys.readouterr().err == (
            f"data error: label {label!r}: word 'C#' would not reload from a word-list file\n")
        assert calls == []
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        _setup_dataset(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(_run_kv_args(tmp_path, out1)) == 0
        assert main(_run_kv_args(tmp_path, out2)) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_config_file_with_flag_override(self, tmp_path):
        _setup_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "family": "SCNM",
            "language": "en",
            "train_path": str(tmp_path / "train.jsonl"),
            "test_path": str(tmp_path / "test.jsonl"),
            "external_kv_path": str(tmp_path / "origin_kv.txt"),
            "few_shot_k": 7,
            "test_sample_size": 20,
            "test_repeats": 2,
            "kv_words_per_label": 10,
            "seed": 3,
        })
        out = tmp_path / "cfgrun"
        code = main(["run-kv", "--config", str(cfg), "--few-shot-k", "5",
                     "--out", str(out)])
        assert code == 0
        effective = read_json(out / "effective_config.json")
        assert effective["few_shot_k"] == 5  # flag wins
        assert effective["family"] == "SCNM"  # file value kept

    def test_flag_replaces_a_refused_config_value(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"alpha": 0})
        assert main(_run_kv_args(tmp_path, tmp_path / "file", **{"--config": str(cfg)})) == 3
        assert capsys.readouterr().err.startswith("config error: alpha must be finite")
        # the flag is merged in before the config is checked
        argv = _run_kv_args(tmp_path, tmp_path / "flag", **{"--config": str(cfg), "--alpha": "1"})
        assert main(argv) == 0
        assert read_json(tmp_path / "flag" / "effective_config.json")["alpha"] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"familly": "SCNM"})
        assert main(["run-kv", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        # wrongly typed values are one-line config errors, not tracebacks
        for bad in ({"seed": "x"}, {"few_shot_k": None}, {"lenient": 1}, {"alpha": "1"},
                    {"test_repeats": True}, {"family": 5}):
            write_json(cfg, bad)
            capsys.readouterr()
            assert main(["run-kv", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, (bad, err)
            assert next(iter(bad)) in err
        assert not (tmp_path / "o").exists()

    def test_malformed_config_json_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"family": "SCNM",\n', encoding="utf-8")
        assert main(["run-kv", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "not valid JSON" in err

    def test_missing_external_kv_is_config_error(self, tmp_path, capsys):
        _setup_dataset(tmp_path)
        code = main(["run-kv", "--family", "SCNM", "--language", "en",
                     "--train", str(tmp_path / "train.jsonl"),
                     "--test", str(tmp_path / "test.jsonl"),
                     "--out", str(tmp_path / "nokv")])
        assert code == 3
        assert "external_kv_path" in capsys.readouterr().err


# -- one message per missing input ----------------------------------------------


def _config_errors(capsys, argvs) -> list[str]:
    errors = []
    for argv in argvs:
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    return errors


def test_missing_train_is_one_message_in_every_command(tmp_path, capsys):
    _setup_dataset(tmp_path)
    dataset = ["--family", "SCNM", "--language", "en"]
    kv, test = str(tmp_path / "origin_kv.txt"), str(tmp_path / "test.jsonl")
    errors = _config_errors(capsys, [
        ["build-kv", *dataset, "--out", str(tmp_path / "kv.txt")],
        ["score", *dataset, "--kv", kv, "--input", test, "--out", str(tmp_path / "p.jsonl")],
        ["run-kv", *dataset, "--test", test, "--external-kv", kv, "--out", str(tmp_path / "run")],
    ])
    assert errors == ["config error: --train is required (or train_path in --config)\n"] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["origin_kv.txt", "test.jsonl",
                                                         "train.jsonl"]


def test_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        runner.ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError, match="few_shot_k must be an integer"):
        runner.ExperimentConfig(few_shot_k="5")


def test_unknown_tag_is_one_message_in_every_command(tmp_path, capsys):
    draw_paths, gen_paths = _build_draws(tmp_path)
    errors = _config_errors(capsys, [
        ["evaluate", "--family", "SCNM", "--language", "en", "--tag", "bogus",
         "--draws", *map(str, draw_paths), "--generations", *map(str, gen_paths),
         "--out", str(tmp_path / "eval")],
        ["build-formats", "--family", "SCNM", "--language", "en", "--tags", "bogus",
         "--input", str(tmp_path / "train.jsonl"), "--out", str(tmp_path / "formats")],
    ])
    valid = ", ".join(tag.value for tag in FormatTag)
    assert errors == [f"config error: unknown format tag 'bogus'; valid tags: {valid}\n"] * 2
    assert not (tmp_path / "eval").exists() and not (tmp_path / "formats").exists()


def test_missing_family_is_one_message_in_every_command(tmp_path, capsys):
    draw_paths, gen_paths = _build_draws(tmp_path)
    run_kv = _run_kv_args(tmp_path, tmp_path / "run")
    assert run_kv[1:3] == ["--family", "SCNM"]
    del run_kv[1:3]
    errors = _config_errors(capsys, [
        ["validate", "--language", "en", str(tmp_path / "train.jsonl")],
        ["evaluate", "--language", "en", "--tag", "TRAD_TEXT", "--draws", *map(str, draw_paths),
         "--generations", *map(str, gen_paths), "--out", str(tmp_path / "eval")],
        run_kv,
    ])
    assert errors == ["config error: --family and --language are required "
                      "(or family and language in --config)\n"] * 3


class TestReport:
    def test_ablation_grid(self, tmp_path):
        _setup_dataset(tmp_path)
        report_paths = []
        for tag in ("WO_TLI_TO_WLI", "WITH_TLI_TO_WLI", "WO_WLI_TO_TLI", "WITH_WLI_TO_TLI"):
            out = tmp_path / f"draws_{tag}"
            main(["build-formats", "--family", "SCNM", "--language", "en",
                  "--input", str(tmp_path / "test.jsonl"), "--role", "test",
                  "--tags", tag, "--test-n", "10", "--repeats", "2",
                  "--seed", "5", "--out", str(out)])
            name = f"scnm_en_{tag.lower()}.test"
            draws = [out / f"{name}.draw{d}.jsonl" for d in range(2)]
            gens = []
            for d, dp in enumerate(draws):
                gp = out / f"gen{d}.jsonl"
                write_jsonl(gp, [{"output": e.target} for e in read_examples(dp)])
                gens.append(gp)
            eval_out = tmp_path / f"eval_{tag}"
            main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", tag,
                  "--draws", *map(str, draws), "--generations", *map(str, gens),
                  "--out", str(eval_out)])
            report_paths.append(eval_out / "report.json")
        out = tmp_path / "grid"
        code = main(["report", "--inputs", *map(str, report_paths), "--out", str(out)])
        assert code == 0
        md = (out / "ablation.md").read_text(encoding="utf-8")
        assert "w/o TLI" in md and "with WLI" in md
        assert md.count("100.00") == 4

    def test_conflicting_cell_is_data_error_in_either_order(self, tmp_path, capsys):
        draw_paths, gen_paths = _build_draws(tmp_path, tag="TRAD_WORD")
        main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", "TRAD_WORD",
              "--draws", *map(str, draw_paths), "--generations", *map(str, gen_paths),
              "--out", str(tmp_path / "eval")])
        first = tmp_path / "eval" / "report.json"
        report = read_json(first)
        report["tag"] = "WO_TLI_TO_WLI"  # lands in the same "w/o TLI" cell
        alias = tmp_path / "alias.json"
        write_json(alias, report)
        code = main(["report", "--inputs", str(first), str(alias), "--out", str(tmp_path / "same")])
        assert code == 0  # equal means, as byte-alias formats give
        report["draws"][0]["word"]["f1"] = 0.5
        write_json(alias, report)
        for inputs in ((first, alias), (alias, first)):
            capsys.readouterr()
            code = main(["report", "--inputs", *map(str, inputs), "--out", str(tmp_path / "grid")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("data error: ablation cell 'w/o TLI' of SCNM/en")
            assert "TRAD_WORD" in err[0] and "WO_TLI_TO_WLI" in err[0]
        assert not (tmp_path / "grid").exists()

    def test_malformed_report_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text('{"rows": [', encoding="utf-8")
        code = main(["report", "--inputs", str(bad), "--out", str(tmp_path / "grid")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "not valid JSON" in err
        assert not (tmp_path / "grid").exists()


    @pytest.mark.parametrize("field,value", [
        ("tag", 5), ("family", 5), ("language", ["en"]), ("index", "0"), ("index", True),
        ("precision", "0.5"), ("recall", float("nan")), ("f1", float("inf")),
    ])
    def test_mistyped_report_field_is_data_error(self, tmp_path, capsys, field, value):
        draw_paths, gen_paths = _build_draws(tmp_path)
        main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", "TRAD_TEXT",
              "--draws", *map(str, draw_paths), "--generations", *map(str, gen_paths),
              "--out", str(tmp_path / "eval")])
        path = tmp_path / "eval" / "report.json"
        report = read_json(path)
        if field == "index":
            report["draws"][0]["index"] = value
        elif field in ("precision", "recall", "f1"):
            report["draws"][1]["text"][field] = value
        else:
            report[field] = value
        write_json(path, report)
        capsys.readouterr()
        code = main(["report", "--inputs", str(path), "--out", str(tmp_path / "grid")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"data error: {path}: '{field}' must be ")
        assert not (tmp_path / "grid").exists()


    @pytest.mark.parametrize("field,value", [
        ("draws", []), ("family", "Nope"), ("language", "xx"),
        ("parse_counts", {"CLEAN": "x"}), ("parse_counts", {"CLEAN": True}),
        ("parse_counts", {"BOGUS": 1}), ("parse_counts", {"CLEAN": -1}), ("parse_counts", [1]),
    ])
    def test_report_input_outside_its_vocabulary_is_data_error(self, tmp_path, capsys,
                                                              field, value):
        draw_paths, gen_paths = _build_draws(tmp_path)
        main(["evaluate", "--family", "SCNM", "--language", "en", "--tag", "TRAD_TEXT",
              "--draws", *map(str, draw_paths), "--generations", *map(str, gen_paths),
              "--out", str(tmp_path / "eval")])
        path = tmp_path / "eval" / "report.json"
        report = read_json(path)
        if field == "parse_counts":
            report["draws"][1][field] = value
        else:
            report[field] = value
        write_json(path, report)
        capsys.readouterr()
        code = main(["report", "--inputs", str(path), "--out", str(tmp_path / "grid")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"data error: {path}: '{field}' must ")
        assert not (tmp_path / "grid").exists()


def _overwrite_case(tmp_path, command):
    """(argv, output directory, one of the outputs) of a command on a small dataset."""
    _setup_dataset(tmp_path)
    desc = ["--family", "SCNM", "--language", "en"]
    out = tmp_path / "out"
    if command == "build-formats":
        return (["build-formats", *desc, "--input", str(tmp_path / "train.jsonl"),
                 "--tags", "TRAD_TEXT", "--out", str(out)], out, "scnm_en_train_manifest.json")
    if command == "build-kv":
        return (["build-kv", *desc, "--train", str(tmp_path / "train.jsonl"),
                 "--out", str(out / "kv.txt")], out, "kv.txt.config.json")
    if command == "score":
        return (["score", *desc, "--kv", str(tmp_path / "origin_kv.txt"),
                 "--input", str(tmp_path / "test.jsonl"), "--train", str(tmp_path / "train.jsonl"),
                 "--kv-k", "10", "--out", str(out / "preds.jsonl")], out, "preds.jsonl.config.json")
    if command == "run-kv":
        return _run_kv_args(tmp_path, out), out, "predictions_wli.draw1.jsonl"
    draws, gens = _build_draws(tmp_path)
    evaluate = ["evaluate", *desc, "--tag", "TRAD_TEXT", "--draws", *map(str, draws),
                "--generations", *map(str, gens)]
    if command == "evaluate":
        return evaluate + ["--out", str(out)], out, "report.tsv"
    assert main(evaluate + ["--out", str(tmp_path / "eval")]) == 0
    return (["report", "--inputs", str(tmp_path / "eval" / "report.json"), "--out", str(out)],
            out, "ablation.tsv")


@pytest.mark.parametrize(
    "command", ["build-formats", "build-kv", "score", "evaluate", "report", "run-kv"]
)
def test_existing_output_refused_before_any_write(tmp_path, capsys, command):
    argv, out, present = _overwrite_case(tmp_path, command)
    inputs = {path: path.read_bytes() for path in map(Path, argv)
              if path.is_absolute() and path.is_file()}
    assert inputs
    out.mkdir()
    (out / present).write_text("kept", encoding="utf-8")
    for spoiled in (False, True):
        if spoiled:  # a malformed line in every input: refused just the same, before reading
            for path, data in inputs.items():
                path.write_bytes(b"stray\n" + data if path.suffix == ".txt" else data + b"{\n")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--force" in err and present in err
        assert [p.name for p in out.iterdir()] == [present]
        assert (out / present).read_text(encoding="utf-8") == "kept"
    assert main(argv + ["--force"]) == 1  # only now is a spoiled input read
    assert (out / present).read_text(encoding="utf-8") == "kept"
    for path, data in inputs.items():
        path.write_bytes(data)
    assert main(argv + ["--force"]) == 0
    assert (out / present).read_text(encoding="utf-8") != "kept"


def test_failed_write_leaves_no_partial_artifact(tmp_path, capsys, monkeypatch):
    from mremix import jsonio

    argv, out, _ = _overwrite_case(tmp_path, "score")
    real, calls = jsonio.json_line, []

    def failing(obj):
        calls.append(obj)
        if len(calls) == 3:
            raise OSError("no space left on device")
        return real(obj)

    monkeypatch.setattr(jsonio, "json_line", failing)
    assert main(argv) == 2
    assert "no space left" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


class TestEnvDataRoot:
    def test_relative_paths_resolve_against_root(self, tmp_path, monkeypatch):
        _setup_dataset(tmp_path)
        monkeypatch.setenv("MREMIX_DATA_ROOT", str(tmp_path))
        code = main(["validate", "--family", "SCNM", "--language", "en", "train.jsonl"])
        assert code == 0

    def test_absolute_paths_untouched(self, tmp_path, monkeypatch):
        _setup_dataset(tmp_path)
        monkeypatch.setenv("MREMIX_DATA_ROOT", "/nonexistent")
        code = main(["validate", "--family", "SCNM", "--language", "en",
                     str(tmp_path / "train.jsonl")])
        assert code == 0


def test_module_entrypoint_subprocess(tmp_path):
    _setup_dataset(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "mremix", "validate", "--family", "scnm",
         "--language", "en", str(tmp_path / "train.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


# -- the collector policy -------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case, expected", [("ok", 0), ("data", 1), ("io", 2), ("config", 3),
                                            ("uncaught", None)])
def test_main_restores_the_collector_settings(tmp_path, monkeypatch, capsys, enabled,
                                              case, expected):
    from mremix import cli

    _setup_dataset(tmp_path)
    write_jsonl(tmp_path / "null.jsonl",
                [{"id": "a", "text": None, "text_label": "Society", "pairs": []}])
    validate = ["validate", "--family", "SCNM", "--language", "en"]
    argv = {"ok": [*validate, str(tmp_path / "train.jsonl")],
            "data": [*validate, str(tmp_path / "null.jsonl")],
            "io": [*validate, str(tmp_path / "missing.jsonl")],
            "config": ["validate"],
            "uncaught": ["report", "--inputs", "r.json", "--out", "o"]}[case]
    during = []

    def failing(args):
        during.append(gc.get_threshold()[0])
        raise RuntimeError("not a toolkit error")

    monkeypatch.setattr(cli, "cmd_report", failing)
    thresholds, was_enabled = gc.get_threshold(), gc.isenabled()
    try:
        gc.set_threshold(555, 11, 12)
        if not enabled:
            gc.disable()
        if expected is None:
            with pytest.raises(RuntimeError):
                main(argv)
            assert during == [cli._GC_THRESHOLD]
        else:
            assert main(argv) == expected
        assert (gc.get_threshold(), gc.isenabled()) == ((555, 11, 12), enabled)
    finally:
        gc.set_threshold(*thresholds)
        (gc.enable if was_enabled else gc.disable)()


def _run_kv_garbage(tmp_path, per_label: int) -> list:
    """The objects ``run-kv`` leaves unreachable on a planted split with
    ``per_label`` train and test records per label, each draw a fifth of test."""
    _setup_dataset(tmp_path, n_train=per_label, n_test=per_label)
    args = _run_kv_args(tmp_path, tmp_path / "out", **{"--test-n": str(per_label)})
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # a collection keeps what it finds in gc.garbage
    assert main(args) == 0
    gc.collect()
    gc.set_debug(0)
    found = list(gc.garbage)
    gc.garbage.clear()
    return found


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys):
    from mremix import LabelEntityPair, MreRecord
    from mremix.cooc import CoocTable
    from mremix.ingest import Split

    flags, was_enabled = gc.get_debug(), gc.isenabled()
    gc.disable()
    try:
        small = _run_kv_garbage(tmp_path / "small", 8)
        large = _run_kv_garbage(tmp_path / "large", 80)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert 0 < len(small) == len(large)
    data = (MreRecord, LabelEntityPair, Split, CoocTable)
    assert not [obj for obj in small + large if isinstance(obj, data)]
