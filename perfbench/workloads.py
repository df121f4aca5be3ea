"""The four benchmark workloads: inputs, CLI commands and output checks.

Each workload is built so that one layer dominates it and another is
nearly absent, so that a change to one layer has a workload that exercises
it and one that bypasses it:

* ``kv-en``: ``run-kv`` on SCNM/en at the protocol defaults. Mask scoring
  dominates; prompts repeat across the two verbalizers and the overlapping
  draws, so a memo or batching change shows here.
* ``kv-zh``: the same on SCNM/zh. Lexicon segmentation dominates, and its
  cost scales with the ~20k-entry lexicon, which must not shrink; the draw
  size is cut so that a pass fits the run length.
* ``score-en``: ``score`` with the reference model trained on the full
  train split. Training (co-occurrence counting) dominates and sets peak
  memory; every prompt is scored exactly once, so a memo cannot help.
* ``ablation-eval``: ``build-formats`` twice, ``evaluate`` per tag, then
  ``report``. It never touches the verbalizer or the reference model; it is
  where artifact writing and generation parsing show.

All data paths are relative: passes run with the work directory as the
current directory and as ``MREMIX_DATA_ROOT``, so the configuration echoed
into artifacts is the same on every pass and every machine.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

from corpus import TEXT_LABELS, Corpus, Sizes, write_records

TAGS = (
    "TRAD_WORD", "TRAD_TEXT", "JOINT_MRE", "WITH_TLI_TO_WLI",
    "WO_TLI_TO_WLI", "WITH_WLI_TO_TLI", "WO_WLI_TO_TLI",
)
# WO_* formats are byte-aliases of the traditional ones; their generations
# are made from the same stream so both reports carry the same means.
_TAG_ALIAS = {"WO_TLI_TO_WLI": "TRAD_WORD", "WO_WLI_TO_TLI": "TRAD_TEXT"}
_WORD_TAGS = {"TRAD_WORD", "WO_TLI_TO_WLI", "WITH_TLI_TO_WLI"}
_TEXT_TAGS = {"TRAD_TEXT", "WO_WLI_TO_TLI", "WITH_WLI_TO_TLI"}

REPEATS = 3  # protocol default: three test draws


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``out`` is the directory that holds all it writes."""

    argv: tuple[str, ...]
    out: str

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Sizes
    test_n: int  # records per test draw (kv-*, ablation-eval) or scored (score-en)

    @classmethod
    def from_dict(cls, data: dict) -> "Workload":
        return cls(**{**data, "sizes": Sizes(**data["sizes"])})

    def items(self) -> int:
        """Work units of one pass (the numerator of items_per_s)."""
        if self.name.startswith("kv-"):
            return 2 * REPEATS * self.test_n
        if self.name == "score-en":
            return self.test_n
        return len(TAGS) * REPEATS * self.test_n

    def items_commands(self) -> tuple[str, ...]:
        """Commands whose wall time is the denominator of items_per_s."""
        return ("evaluate",) if self.name == "ablation-eval" else ("run-kv", "score")

    def input_sizes(self) -> dict:
        return {**asdict(self.sizes), "test_n": self.test_n, "repeats": REPEATS}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kv-en", "run-kv at protocol defaults (3x1,000 draws): mask scoring dominates,"
                 " and ~40% of prompts are distinct",
                 Sizes("en", n_train=5000, n_test=5000), test_n=1000),
        Workload("kv-zh", "run-kv on zh with a ~20k-entry segmenter lexicon: segmentation"
                 " dominates (draws cut to 3x150 to fit the run)",
                 Sizes("zh", n_train=5000, n_test=5000), test_n=150),
        Workload("score-en", "score after training on all 5k texts: the one workload with heavy"
                 " co-occurrence training, and no prompt repeats",
                 Sizes("en", n_train=5000, n_test=1000), test_n=1000),
        Workload("ablation-eval", "build-formats, evaluate and report: artifact writing and"
                 " generation parsing, with no scoring or training",
                 Sizes("en", n_train=5000, n_test=5000), test_n=1000),
    )
}


# -- set-up -------------------------------------------------------------------


def write_inputs(workload: Workload, seed: int, data_dir: Path) -> None:
    """Generate the workload's corpus and write its input files."""
    corpus = Corpus(workload.sizes, seed)
    data_dir.mkdir(parents=True, exist_ok=True)
    write_records(data_dir / "train.jsonl", corpus.split("train"))
    write_records(data_dir / "test.jsonl", corpus.split("test"))
    (data_dir / "origin_kv.txt").write_text(corpus.origin_kv(), encoding="utf-8")


def tree_digest(path: Path) -> str:
    """Digest of every file's relative name and bytes under ``path``."""
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(p.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


# -- commands -------------------------------------------------------------------


def _desc(language: str) -> list[str]:
    return ["--family", "SCNM", "--language", language]


def _slug(tag: str) -> str:
    return f"scnm_en_{tag.lower()}.test"


def commands(workload: Workload, seed: int) -> list[Command]:
    """The CLI commands of one pass, in order (before ``evaluate``, the
    harness writes the generations; see :func:`make_generations`)."""
    lang = workload.sizes.language
    if workload.name.startswith("kv-"):
        argv = ["run-kv", *_desc(lang), "--train", "data/train.jsonl",
                "--test", "data/test.jsonl", "--external-kv", "data/origin_kv.txt",
                "--seed", str(seed), "--test-n", str(workload.test_n), "--out", "out/run-kv"]
        return [Command(tuple(argv), "out/run-kv")]
    if workload.name == "score-en":
        argv = ["score", *_desc(lang), "--kv", "data/origin_kv.txt",
                "--input", "data/test.jsonl", "--train", "data/train.jsonl",
                "--out", "out/score/predictions.jsonl"]
        return [Command(tuple(argv), "out/score")]
    cmds = [
        Command(("build-formats", *_desc(lang), "--input", "data/train.jsonl",
                 "--role", "train", "--tags", "all", "--out", "out/formats-train"),
                "out/formats-train"),
        Command(("build-formats", *_desc(lang), "--input", "data/test.jsonl",
                 "--role", "test", "--tags", "all", "--seed", str(seed),
                 "--test-n", str(workload.test_n), "--repeats", str(REPEATS),
                 "--out", "out/formats-test"),
                "out/formats-test"),
    ]
    for tag in TAGS:
        draws = [f"out/formats-test/{_slug(tag)}.draw{d}.jsonl" for d in range(REPEATS)]
        gens = [f"generations/{tag.lower()}.draw{d}.jsonl" for d in range(REPEATS)]
        cmds.append(Command(
            ("evaluate", *_desc(lang), "--tag", tag, "--draws", *draws,
             "--generations", *gens, "--out", f"out/eval-{tag.lower()}"),
            f"out/eval-{tag.lower()}",
        ))
    reports = [f"out/eval-{tag.lower()}/report.json" for tag in TAGS]
    cmds.append(Command(("report", "--inputs", *reports, "--out", "out/report"), "out/report"))
    return cmds


# -- synthetic generations (ablation-eval) ----------------------------------------

# Planted output kinds with their share in percent, and the parse flag the
# parser must give each kind.
_MIX = (("exact", 50), ("wrong", 20), ("recovered", 20), ("unparseable", 10))
_FLAG = {"exact": "CLEAN", "wrong": "CLEAN", "recovered": "RECOVERED",
         "unparseable": "UNPARSEABLE"}


def _other_label(label: str, rng: random.Random) -> str:
    return rng.choice([x for x in TEXT_LABELS if x != label])


def _drop_last_pair(pairs: str) -> str:
    head, sep, _ = pairs.rpartition("; ")
    return head if sep else pairs


def _generate(target: str, tag: str, kind: str, rng: random.Random) -> str:
    if kind == "exact":
        return target
    if kind == "unparseable":
        return "no entities found" if tag in _WORD_TAGS else "unknown"
    if tag in _WORD_TAGS:
        return _drop_last_pair(target) if kind == "wrong" else target.replace(": ", ":")
    if tag in _TEXT_TAGS:
        return _other_label(target, rng) if kind == "wrong" else target.lower()
    label, pairs = target.split("\n", 1)
    label = _other_label(label, rng) if kind == "wrong" else label.lower()
    return label + "\n" + pairs


def make_generations(seed: int, work: Path) -> None:
    """Write one generation file per (tag, draw) from the gold draw files.

    They go to ``generations/``, outside ``out/``, and are made once per
    run: every pass's draw files must equal the first pass's.

    Outputs mix exact, canonical-but-wrong, recoverable and unparseable
    strings. The planted parse-flag totals per tag go to ``planted.json``.
    """
    out = work / "generations"
    out.mkdir(parents=True, exist_ok=True)
    population = [kind for kind, share in _MIX for _ in range(share)]
    planted: dict[str, dict[str, int]] = {}
    for tag in TAGS:
        totals = {"CLEAN": 0, "RECOVERED": 0, "UNPARSEABLE": 0}
        for d in range(REPEATS):
            rng = random.Random(f"generations:{seed}:{_TAG_ALIAS.get(tag, tag)}:{d}")
            lines = []
            draw = work / "out" / "formats-test" / f"{_slug(tag)}.draw{d}.jsonl"
            for line in draw.read_text(encoding="utf-8").splitlines():
                example = json.loads(line)
                kind = rng.choice(population)
                totals[_FLAG[kind]] += 1
                output = _generate(example["target"], tag, kind, rng)
                lines.append(json.dumps({"record_id": example["record_id"], "output": output},
                                        ensure_ascii=False) + "\n")
            (out / f"{tag.lower()}.draw{d}.jsonl").write_text("".join(lines), encoding="utf-8")
        planted[tag] = totals
    (out / "planted.json").write_text(json.dumps(planted), encoding="utf-8")


# -- output checks --------------------------------------------------------------


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _gold_labels(work: Path) -> dict[str, str]:
    return {r["id"]: r["text_label"] for r in _jsonl(work / "data" / "test.jsonl")}


def check_run_kv(work: Path, cmd: Command) -> Optional[str]:
    """Text F1 recomputed from the prediction files equals kv_report.json."""
    out = work / cmd.out
    gold = _gold_labels(work)
    report = json.loads((out / "kv_report.json").read_text(encoding="utf-8"))
    for row, slug in zip(report["rows"], ("origin", "wli")):
        for d, draw in enumerate(row["draws"]):
            preds = _jsonl(out / f"predictions_{slug}.draw{d}.jsonl")
            correct = sum(1 for p in preds if gold[p["record_id"]] == p["label"])
            if correct / len(preds) != draw["f1"]:
                return f"{row['name']} draw {d}: report F1 {draw['f1']} != recomputed"
    return None


def check_score(work: Path, cmd: Command) -> Optional[str]:
    """One in-schema label per test record, in input order."""
    preds = _jsonl(work / cmd.out / "predictions.jsonl")
    ids = [r["id"] for r in _jsonl(work / "data" / "test.jsonl")]
    if [p["record_id"] for p in preds] != ids:
        return "prediction rows do not match the test records one to one"
    bad = [p["label"] for p in preds if p["label"] not in TEXT_LABELS]
    return f"labels outside the schema: {bad[:3]}" if bad else None


def check_evaluate(work: Path, cmd: Command) -> Optional[str]:
    """The report's parse-flag totals equal the planted mix."""
    tag = cmd.argv[cmd.argv.index("--tag") + 1]
    planted = json.loads((work / "generations" / "planted.json").read_text())
    report = json.loads((work / cmd.out / "report.json").read_text(encoding="utf-8"))
    if report["parse_totals"] != planted[tag]:
        return f"{tag}: parse totals {report['parse_totals']} != planted {planted[tag]}"
    return None


_ABLATION_ROWS = (
    ("w/o TLI", ("WO_TLI_TO_WLI", "TRAD_WORD"), "word"),
    ("with TLI", ("WITH_TLI_TO_WLI",), "word"),
    ("w/o WLI", ("WO_WLI_TO_TLI", "TRAD_TEXT"), "text"),
    ("with WLI", ("WITH_WLI_TO_TLI",), "text"),
)


def check_report(work: Path, cmd: Command) -> Optional[str]:
    """Every ablation.tsv cell equals the mean F1 of the per-tag reports."""
    rows = (work / cmd.out / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    cells = {line.split("\t")[0]: line.split("\t")[1] for line in rows[1:]}

    def mean_f1(tag: str, side: str) -> str:
        report = json.loads((work / f"out/eval-{tag.lower()}/report.json").read_text())
        return f"{100.0 * report['summary'][side]['f1']['mean']:.2f}"

    for row, tags, side in _ABLATION_ROWS:
        expected = {mean_f1(tag, side) for tag in tags}
        if expected != {cells.get(row)}:
            return f"ablation row {row!r}: cell {cells.get(row)} != report means {sorted(expected)}"
    return None


CHECKS: dict[str, Callable[[Path, Command], Optional[str]]] = {
    "run-kv": check_run_kv,
    "score": check_score,
    "evaluate": check_evaluate,
    "report": check_report,
}
