"""Golden bytes of the ablation pipeline and of the KV path.

``build-formats`` (train and test, every tag), ``evaluate`` for every tag
on planted generations, and ``report`` run over a small seeded corpus whose
strings hold what JSON and the pair grammar must escape or keep: CJK text,
``"``, ``\\``, ``;``, newlines, tabs, U+2028 and an emoji. The sha256 of
the output tree is pinned, so any change to the bytes of a format file, a
manifest or a report fails here.

The KV path is pinned the same way: ``run-kv`` in en and zh, with ``sum``
and ``mean`` and ``alpha`` 1 and 0.3, and ``score`` with the refmlm provider
and with a ``file:`` provider, over a seeded corpus with a word under two
labels, repeated tokens and verbalizer words outside the training
vocabulary. Its digest was taken before scoring moved from per-word weights
to per-label sums.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from mremix import evaluation
from mremix.cli import main
from mremix.formats import target_level
from mremix.parsing import ParseFlag

TREE_SHA256 = "17b9d90041385fb0f7e38d932b0960fa82f22781a311dbfd92537aaa9244c4b8"

TAGS = ("TRAD_WORD", "TRAD_TEXT", "JOINT_MRE", "WITH_TLI_TO_WLI",
        "WO_TLI_TO_WLI", "WITH_WLI_TO_TLI", "WO_WLI_TO_TLI")
TEXT_LABELS = ("Society", "Literature", "Academia", "Technology", "Nature")
WORD_LABELS = ("people", "corporations", "places", "products", "events")
TOKENS = ("東京", "タナカ", "北京大学", '"quoted"', "back\\slash", "semi;colon", "a; b",
          "line\nbreak", "tab\there", "sep\u2028para", "😀", "plain", "words", "x\\;y")
ENTITIES = ("東京", "a;b", "x\\y", 'say "hi"', "two\nlines", "tab\tbed", "u\u2028v",
            "🎉", "Tanaka", "end\\", "c: d")
IDS = ('q"uote', "back\\slash", "中文", "emoji-😀", "tab\tid")
# WO_* formats are byte-aliases of the traditional ones, so their generations
# come from the same stream and both fill one ablation cell with one mean.
ALIAS = {"WO_TLI_TO_WLI": "TRAD_WORD", "WO_WLI_TO_TLI": "TRAD_TEXT"}
WORD_TAGS = ("TRAD_WORD", "WO_TLI_TO_WLI", "WITH_TLI_TO_WLI")
REPEATS = 2


def _records(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        pairs = [{"label": rng.choice(WORD_LABELS), "entity": rng.choice(ENTITIES)}
                 for _ in range(rng.randrange(4))]
        rows.append({
            "id": IDS[i] if i < len(IDS) else f"r{i:02d}",
            "text": " ".join(rng.choice(TOKENS) for _ in range(1 + rng.randrange(5))),
            "text_label": rng.choice(TEXT_LABELS),
            "pairs": pairs,
        })
    return rows


def _write_jsonl(path: Path, rows: list) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")


def _generate(target: str, tag: str, rng: random.Random) -> str:
    """Exact, wrong, recoverable or unparseable output for a gold target."""
    kind = rng.choice(("exact", "exact", "wrong", "recovered", "unparseable"))
    if kind == "exact":
        return target
    if kind == "unparseable":
        return "no entities found" if tag in WORD_TAGS else "unknown"
    if tag in WORD_TAGS:
        if kind == "wrong":
            return target.rpartition("; ")[0] or "NONE"
        return target.replace(": ", ":")
    label, sep, pairs = target.partition("\n")
    label = rng.choice([x for x in TEXT_LABELS if x != label]) if kind == "wrong" else label.lower()
    return label + sep + pairs


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def run_pipeline(work: Path) -> Path:
    """Run the ablation pipeline in ``work`` (the current directory); returns ``out``."""
    _write_jsonl(work / "train.jsonl", _records(11, 24))
    _write_jsonl(work / "test.jsonl", _records(12, 30))
    desc = ["--family", "SCNM", "--language", "en"]
    assert main(["build-formats", *desc, "--input", "train.jsonl", "--role", "train",
                 "--tags", "all", "--out", "out/formats-train"]) == 0
    assert main(["build-formats", *desc, "--input", "test.jsonl", "--role", "test",
                 "--tags", "all", "--seed", "5", "--test-n", "12",
                 "--repeats", str(REPEATS), "--out", "out/formats-test"]) == 0
    (work / "gen").mkdir()
    for tag in TAGS:
        draws, gens = [], []
        for d in range(REPEATS):
            draw = f"out/formats-test/scnm_en_{tag.lower()}.test.draw{d}.jsonl"
            rng = random.Random(f"{ALIAS.get(tag, tag)}:{d}")
            rows = [json.loads(line) for line in
                    (work / draw).read_text(encoding="utf-8").split("\n") if line]
            gen = f"gen/{tag.lower()}.draw{d}.jsonl"
            _write_jsonl(work / gen, [{"record_id": r["record_id"],
                                       "output": _generate(r["target"], tag, rng)}
                                      for r in rows])
            draws.append(draw)
            gens.append(gen)
        assert main(["evaluate", *desc, "--tag", tag, "--draws", *draws,
                     "--generations", *gens, "--out", f"out/eval-{tag.lower()}"]) == 0
    reports = [f"out/eval-{tag.lower()}/report.json" for tag in TAGS]
    assert main(["report", "--inputs", *reports, "--out", "out/report"]) == 0
    return work / "out"


def test_ablation_pipeline_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MREMIX_DATA_ROOT", raising=False)
    out = run_pipeline(tmp_path)
    # train files and manifest, draw files and manifest, three reports a tag, two tables
    assert len([p for p in out.rglob("*") if p.is_file()]) == 7 + 1 + 7 * REPEATS + 1 + 7 * 3 + 2
    assert _tree_sha256(out) == TREE_SHA256


def test_evaluate_parses_each_generation_once_and_a_clean_exact_gold_never(
        tmp_path, monkeypatch):
    """Counted on the golden corpus: one ``parse_prediction`` per generation,
    and one gold ``parse_canonical`` per word-level row, except a row whose
    generation equals its gold target and parsed CLEAN, which reuses that parse."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MREMIX_DATA_ROOT", raising=False)
    parse_prediction, parse_canonical = evaluation.parse_prediction, evaluation.parse_canonical
    split_target = evaluation.split_target
    row: dict = {}  # the generation and gold target of the row being scored
    predictions: list[str] = []
    rows = Counter()  # word-level rows, by whether the generation is their CLEAN gold
    gold_parses = 0

    def counted_prediction(s, tag, schema):
        result = parse_prediction(s, tag, schema)
        predictions.append(s)
        row.update(output=s, clean=result.flag is ParseFlag.CLEAN)
        return result

    def noted_split(target, tag):
        row["target"] = target
        if target_level(tag) != "text":
            rows[row["clean"] and row["output"] == target] += 1
        return split_target(target, tag)

    def counted_canonical(s):
        nonlocal gold_parses
        assert not (row["clean"] and row["output"] == row["target"]), row
        gold_parses += 1
        return parse_canonical(s)

    monkeypatch.setattr(evaluation, "parse_prediction", counted_prediction)
    monkeypatch.setattr(evaluation, "split_target", noted_split)
    monkeypatch.setattr(evaluation, "parse_canonical", counted_canonical)
    run_pipeline(tmp_path)

    generations = [json.loads(line)["output"] for path in (tmp_path / "gen").iterdir()
                   for line in path.read_text(encoding="utf-8").split("\n") if line]
    assert sorted(predictions) == sorted(generations)
    assert rows[True] and rows[False]  # the corpus has rows of both kinds
    assert gold_parses == rows[False]


def test_reformatted_generation_files_give_the_same_reports(tmp_path, monkeypatch):
    """Generation files rewritten with CRLF endings, leading spaces and no final
    newline evaluate to byte-identical reports."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MREMIX_DATA_ROOT", raising=False)
    out = run_pipeline(tmp_path)
    for path in (tmp_path / "gen").iterdir():
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        path.write_bytes("\r\n".join("  " + line for line in lines).encode("utf-8"))
    desc = ["--family", "SCNM", "--language", "en"]
    for tag in TAGS:
        draws = [f"out/formats-test/scnm_en_{tag.lower()}.test.draw{d}.jsonl"
                 for d in range(REPEATS)]
        gens = [f"gen/{tag.lower()}.draw{d}.jsonl" for d in range(REPEATS)]
        assert main(["evaluate", *desc, "--tag", tag, "--draws", *draws, "--generations", *gens,
                     "--out", f"again/eval-{tag.lower()}"]) == 0
        for name in ("report.json", "report.md", "report.tsv"):
            again = (tmp_path / "again" / f"eval-{tag.lower()}" / name).read_bytes()
            assert again == (out / f"eval-{tag.lower()}" / name).read_bytes(), (tag, name)


# -- the KV path ------------------------------------------------------------------

KV_TREE_SHA256 = "7535ff2264ee02693efbbbd439c14bed81951d58dd661f0295a701613cb69220"

KV_TEXT_LABELS = ("Society", "Literature", "Academia", "Technology", "Nature")
# each label's entity pool; "shared" (and its zh twin) belongs to two labels
KV_POOLS = {
    "en": {label: [f"{label.lower()}{j}" for j in range(5)] for label in KV_TEXT_LABELS},
    "zh": {label: [chr(0x4E00 + 10 * n + j) + chr(0x4F00 + 10 * n + j) for j in range(5)]
           for n, label in enumerate(KV_TEXT_LABELS)},
}
KV_SHARED = {"en": "shared", "zh": "共享"}
KV_FILLERS = {"en": ("the", "of", "a", "and"), "zh": ("的", "了", "在", "是")}
KV_OOV = {"en": "neverseen", "zh": "未见"}
for _language, _pools in KV_POOLS.items():
    _pools["Society"].append(KV_SHARED[_language])
    _pools["Nature"].append(KV_SHARED[_language])


def _kv_records(language: str, seed: int, per_label: int, role: str) -> list[dict]:
    rng = random.Random(f"{language}:{seed}")
    joiner = " " if language == "en" else ""
    rows = []
    for label in KV_TEXT_LABELS:
        for i in range(per_label):
            words = rng.sample(KV_POOLS[language][label], 2 + rng.randrange(3))
            tokens = words + [rng.choice(KV_FILLERS[language]) for _ in range(rng.randrange(3))]
            rng.shuffle(tokens)
            if rng.random() < 0.3:  # a repeated token
                tokens.append(tokens[0])
            rows.append({"id": f"{role}-{label}-{i}", "text": joiner.join(tokens),
                         "text_label": label,
                         "pairs": [{"label": "people", "entity": w} for w in words]})
    return rows


def _origin_kv(language: str) -> str:
    """Per label: three pool words, an out-of-vocabulary word, the shared word
    under Society and Literature too."""
    blocks = []
    for n, label in enumerate(KV_TEXT_LABELS):
        words = KV_POOLS[language][label][1:4] + [f"{KV_OOV[language]}{n}"]
        if label in ("Society", "Literature"):
            words.append(KV_SHARED[language])
        blocks.append(f"[{label}]\n" + "\n".join(words) + "\n")
    return "\n".join(blocks)


def _probs_rows(tests: list[dict], seed: int) -> list[dict]:
    """A precomputed distribution per test prompt: some words weighted, exact ties,
    an all-zero row, rows with and without ``covered``."""
    rng = random.Random(seed)
    vocab = [w for pool in KV_POOLS["en"].values() for w in pool] + ["neverseen0", "other"]
    rows = []
    for i, record in enumerate(tests):
        words = rng.sample(vocab, 6)
        if i % 7 == 3:
            probs = dict.fromkeys(words, 0.0)
        elif i % 5 == 1:
            probs = dict.fromkeys(words, 0.125)
        else:
            probs = {w: round(rng.random(), 3) for w in words}
        row = {"prompt": record["text"] + "\n{mask}", "probs": probs}
        if i % 3 == 0:
            row["covered"] = words[:3]
        rows.append(row)
    return rows


def run_kv_paths(work: Path) -> Path:
    """``run-kv`` in en and zh for each aggregation and alpha, then ``score`` with
    the refmlm and a ``file:`` provider, in ``work`` (the current directory)."""
    for language in ("en", "zh"):
        _write_jsonl(work / f"train.{language}.jsonl", _kv_records(language, 1, 8, "train"))
        _write_jsonl(work / f"test.{language}.jsonl", _kv_records(language, 2, 6, "test"))
        (work / f"origin.{language}.txt").write_text(_origin_kv(language), encoding="utf-8")
        for aggregation in ("sum", "mean"):
            for alpha in ("1", "0.3"):
                assert main(["run-kv", "--family", "SCNM", "--language", language,
                             "--train", f"train.{language}.jsonl",
                             "--test", f"test.{language}.jsonl",
                             "--external-kv", f"origin.{language}.txt", "--seed", "5",
                             "--few-shot-k", "4", "--test-n", "12", "--repeats", "2",
                             "--kv-k", "6", "--aggregation", aggregation, "--alpha", alpha,
                             "--out", f"out/kv-{language}-{aggregation}-{alpha}"]) == 0
    _write_jsonl(work / "probs.jsonl", _probs_rows(_kv_records("en", 2, 6, "test"), 3))
    score = ["score", "--family", "SCNM", "--language", "en", "--kv", "origin.en.txt",
             "--input", "test.en.jsonl"]
    assert main([*score, "--train", "train.en.jsonl", "--out", "out/score-refmlm/p.jsonl"]) == 0
    assert main([*score, "--provider", "file:probs.jsonl", "--aggregation", "mean",
                 "--out", "out/score-file/p.jsonl"]) == 0
    return work / "out"


def test_kv_paths_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MREMIX_DATA_ROOT", raising=False)
    out = run_kv_paths(tmp_path)
    # six files and four prediction files a run-kv, two files a score
    assert len([p for p in out.rglob("*") if p.is_file()]) == 8 * (6 + 4) + 2 * 2
    assert _tree_sha256(out) == KV_TREE_SHA256
