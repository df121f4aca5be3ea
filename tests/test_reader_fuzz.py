"""Fuzzing the verbalizer word-list and ``--config`` readers through the CLI, and
the schema file reader through the library.

A valid word-list file or config file is spoiled in one way that is never
valid: for a word list, a header of a label outside the schema, a word
before any header, a label's block dropped or emptied, or a byte that is
not UTF-8; for a config, broken JSON, a root that is not an object, an
unknown key, a value of the wrong type or out of range, a byte that is not
UTF-8, or the escape of a lone surrogate. Every such run exits with the
reader's code (1 for a word list, 3 for a config) and one stderr line,
never a traceback. No command takes a schema file, so the bundled schema
file, spoiled the same way, goes to ``core.load_schema_file``, which must
raise a ``SchemaError`` or ``DataError`` of one line naming the file (and
the spoiled line, when one line is at fault).
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import build_from_wli, save_kv, save_split
from mremix.cli import main
from mremix.core import load_schema_file
from mremix.errors import DataError, SchemaError
from mremix.runner import ExperimentConfig

from synth import planted_splits

DESC, TRAIN, TEST, _ = planted_splits(n_train_per_label=5, n_test_per_label=2, pool_size=8)
LABELS = DESC.schema.text_labels
_JUNK_BYTES = st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc0\xaf"])


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _inputs(tmp: Path) -> None:
    save_split(tmp / "train.jsonl", TRAIN)
    save_split(tmp / "test.jsonl", TEST)
    save_kv(build_from_wli(TRAIN, DESC, k=4), tmp / "kv.txt")


def _assert_one_line(code: int, out: str, err: str, expected_code: int, path: Path) -> None:
    assert (code, out) == (expected_code, ""), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err and str(path) in err, err


# -- word lists -----------------------------------------------------------------


def _spoil_kv(draw, text: str) -> bytes:
    """``text``, a valid word-list file, spoiled in one way."""
    lines = text.split("\n")
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    kind = draw(st.sampled_from(["unknown label", "word first", "drop block", "empty block",
                                 "bytes"]))
    if kind == "bytes":
        body = text.encode("utf-8")
        at = draw(st.integers(0, len(body)))
        return body[:at] + draw(_JUNK_BYTES) + body[at:]
    if kind == "unknown label":
        label = draw(st.one_of(st.sampled_from([x.upper() for x in LABELS] + ["", "Sports"]),
                               st.text(alphabet="abc XY", max_size=6)))
        lines.insert(draw(st.integers(0, len(lines))), f"[{label}]")
    elif kind == "word first":
        lines.insert(0, draw(st.text(alphabet="abc東京", min_size=1, max_size=6)))
    else:
        b = draw(st.integers(0, len(headers) - 1))
        start, end = headers[b], headers[b + 1] if b + 1 < len(headers) else len(lines)
        lines[start + (kind == "empty block"):end] = []
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(["score", "run-kv"]))
def test_spoiled_word_list_is_one_data_error(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _inputs(tmp)
        kv = tmp / "kv.txt"
        kv.write_bytes(_spoil_kv(data.draw, kv.read_text(encoding="utf-8")))
        dataset = ["--family", "SCNM", "--language", "en", "--train", str(tmp / "train.jsonl")]
        if command == "score":
            argv = ["score", *dataset, "--kv", str(kv), "--input", str(tmp / "test.jsonl"),
                    "--out", str(tmp / "out" / "p.jsonl")]
        else:
            argv = ["run-kv", *dataset, "--test", str(tmp / "test.jsonl"), "--few-shot-k", "2",
                    "--test-n", "4", "--external-kv", str(kv), "--out", str(tmp / "out")]
        _assert_one_line(*_run(argv), 1, kv)
        assert not (tmp / "out").exists()


# -- config files ---------------------------------------------------------------

BASE = {"family": "SCNM", "language": "en", "seed": 3, "few_shot_k": 2,
        "test_sample_size": 4, "test_repeats": 2, "kv_words_per_label": 4}
_FIELDS = {name: type(value) for name, value in ExperimentConfig().to_dict().items()}
# JSON values of each kind, and the field kinds each one is wrong for.
_WRONG = [(st.text(max_size=4), (int, float, bool)),
          (st.integers(), (str, bool, type(None))),
          (st.floats(allow_nan=False).filter(lambda x: not x.is_integer()), (int, str, bool,
                                                                            type(None))),
          (st.booleans(), (int, float, str, type(None))),
          (st.lists(st.integers(), max_size=2), tuple(_FIELDS.values())),
          (st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
           tuple(_FIELDS.values()))]
# values of the right type that the config refuses
_REFUSED = [("seed", -1), ("few_shot_k", 0), ("test_sample_size", -3), ("test_repeats", 0),
            ("kv_words_per_label", 0), ("alpha", 0), ("alpha", -1.5), ("alpha", math.inf),
            ("alpha", math.nan), ("aggregation", "median"), ("kv_source", "test"),
            ("record_format", "csv"), ("provider", "bert"), ("template", "{text}"),
            ("template", "{mask} {mask} {text}"), ("family", "Bogus"), ("language", "de"),
            ("family", None)]


def _spoil_config(draw) -> bytes:
    doc = dict(BASE)
    kind = draw(st.sampled_from(["truncated", "root", "unknown key", "wrong type", "refused",
                                 "bytes", "surrogate"]))
    if kind == "root":
        return json.dumps(draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                                         st.lists(st.integers(), max_size=2)))).encode()
    if kind == "unknown key":
        doc[draw(st.text(max_size=6).filter(lambda key: key not in _FIELDS))] = 1
    elif kind == "wrong type":
        values, wrong_for = draw(st.sampled_from(_WRONG))
        # a path flag of the command may override a path field, so none is spoiled
        names = sorted(name for name, kind in _FIELDS.items()
                       if kind in wrong_for and not name.endswith("_path"))
        doc[draw(st.sampled_from(names))] = draw(values)
    elif kind == "refused":
        key, value = draw(st.sampled_from(_REFUSED))
        doc[key] = value
    elif kind == "surrogate":
        doc[draw(st.sampled_from(["template", "family", "train_path"]))] = "x\ud800"
    body = json.dumps(doc).encode("utf-8", "surrogatepass")
    if kind == "truncated":
        return body[:draw(st.integers(1, len(body) - 1))]
    if kind == "bytes":
        at = draw(st.integers(0, len(body)))
        return body[:at] + draw(_JUNK_BYTES) + body[at:]
    return body


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(["build-formats", "build-kv", "run-kv"]))
def test_spoiled_config_is_one_config_error(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _inputs(tmp)
        config = tmp / "config.json"
        config.write_bytes(_spoil_config(data.draw))
        train = str(tmp / "train.jsonl")
        argv = {"build-formats": ["--input", train],
                "build-kv": ["--train", train],
                "run-kv": ["--train", train, "--test", str(tmp / "test.jsonl"),
                           "--external-kv", str(tmp / "kv.txt")]}[command]
        code, out, err = _run([command, "--config", str(config), *argv,
                               "--out", str(tmp / "out")])
        assert (code, out) == (3, ""), err
        assert err.count("\n") == 1 and err.startswith("config error: "), err
        assert "Traceback" not in err
        assert not (tmp / "out").exists()


# -- schema files -----------------------------------------------------------------

SCHEMA = (Path(__file__).resolve().parents[1] / "src" / "mremix" / "data" / "schemas.txt"
          ).read_text(encoding="utf-8")
_SCHEMA_LINES = SCHEMA.split("\n")
_ENTRIES = [i for i, line in enumerate(_SCHEMA_LINES) if "=" in line.split("#", 1)[0]]


def _spoil_schema(draw) -> tuple[bytes, int | None]:
    """The bundled schema file spoiled in one way, and the (1-based) line at
    fault, or None when the fault is not one line's."""
    lines = list(_SCHEMA_LINES)
    kind = draw(st.sampled_from(["duplicate label", "empty label", "drop entry",
                                 "repeat entry", "bad key", "no equals", "bytes", "separator"]))
    if kind == "bytes":
        body = SCHEMA.encode("utf-8")
        at = draw(st.integers(0, len(body)))
        return body[:at] + draw(_JUNK_BYTES) + body[at:], None
    i = draw(st.sampled_from(_ENTRIES))
    key, value = lines[i].split("=", 1)
    labels = [label.strip() for label in value.split("|")]
    if kind == "drop entry":
        del lines[i]
        return "\n".join(lines).encode("utf-8"), None
    if kind == "duplicate label":
        labels.insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(labels)))
        lines[i] = key + "= " + " | ".join(labels)
    elif kind == "empty label":
        labels.insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(["", " ", "\t"])))
        lines[i] = key + "= " + " | ".join(labels)
    elif kind == "repeat entry":
        lines.insert(i + 1, lines[i])
        i += 1
    elif kind == "bad key":
        family, language, level = key.strip().split(".")
        part = draw(st.integers(0, 3))
        spoiled = [[draw(st.sampled_from(["SCNX", "scnm", "", "TCONER "])), language, level],
                   [family, draw(st.sampled_from(["de", "EN", ""])), level],
                   [family, language, draw(st.sampled_from(["label", "Text", ""]))],
                   [family, language]][part]
        lines[i] = ".".join(spoiled) + " =" + value
    elif kind == "no equals":
        lines[i] = lines[i].replace("=", draw(st.sampled_from([":", "", " "])))
    else:  # a line separator that is no newline, in a comment, before a bad entry
        lines.insert(i, "# note\u2028more\x85end")
        lines[i + 1] = lines[i + 1].replace("=", "")
        i += 1
    return "\n".join(lines).encode("utf-8"), i + 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spoiled_schema_file_is_one_error_naming_its_line(data):
    body, line = _spoil_schema(data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schemas.txt"
        path.write_bytes(body)
        with pytest.raises((SchemaError, DataError)) as caught:
            load_schema_file(path)
    message = str(caught.value)
    assert "\n" not in message and message.startswith(f"{path}: "), message
    if line is not None:
        assert message.startswith(f"{path}: line {line}: "), message


def test_duplicate_schema_label_names_file_line_and_key(tmp_path):
    path = tmp_path / "schemas.txt"
    path.write_text(SCHEMA.replace("SCNM.en.text = Society |", "SCNM.en.text = Society | Society |"),
                    encoding="utf-8")
    line = _SCHEMA_LINES.index(next(x for x in _SCHEMA_LINES if x.startswith("SCNM.en.text"))) + 1
    with pytest.raises(SchemaError) as caught:
        load_schema_file(path)
    assert str(caught.value) == f"{path}: line {line}: duplicate label 'Society' in SCNM.en.text"
