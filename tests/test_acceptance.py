"""Acceptance suite: one test per shipping criterion.

Each test prints a pass/fail line (see the conftest hook) so the suite
doubles as a checklist. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time
from itertools import product

import pytest

from mremix import (
    ExperimentConfig,
    FormatTag,
    LabelEntityPair,
    MaskDistribution,
    MreRecord,
    Verbalizer,
    build_example,
    builtin_schema,
    pair_f1,
    parse_pairs,
    predict,
    save_kv,
    save_split,
    serialize_pairs,
    shuffle_words,
)
from mremix import DatasetDescriptor, build_from_wli
from mremix.cli import main
from mremix.core import FAMILIES, LANGUAGES
from mremix.formats import LAYOUT, SEPARATOR, TAG_ALIASES, split_target, target_level
from mremix.jsonio import read_json
from mremix.parsing import ParseFlag, parse_prediction
from mremix.rng import SplitMix64
from mremix.verbalizer import MASK_PLACEHOLDER

from synth import planted_splits

# -- generators ----------------------------------------------------------------

ENTITY_ALPHABET = "ab XY日本語中文字東京良い;:\\.-"
LABEL_ALPHABET = "abc語字"


def _random_entity(rng: SplitMix64) -> str:
    while True:
        s = "".join(
            ENTITY_ALPHABET[rng.randbelow(len(ENTITY_ALPHABET))]
            for _ in range(1 + rng.randbelow(10))
        )
        if s.strip():
            return s


def _random_label(rng: SplitMix64) -> str:
    s = "".join(
        LABEL_ALPHABET[rng.randbelow(len(LABEL_ALPHABET))] for _ in range(1 + rng.randbelow(6))
    )
    return s or "l"


def _random_pair_list(rng: SplitMix64) -> tuple[LabelEntityPair, ...]:
    size = rng.randbelow(7)
    pairs = [LabelEntityPair(_random_label(rng), _random_entity(rng)) for _ in range(size)]
    if pairs and rng.randbelow(3) == 0:
        pairs.append(pairs[rng.randbelow(len(pairs))])  # force duplicates
    return tuple(pairs)


@pytest.mark.criterion(1, "round-trip law over 10,000 generated pair lists in under 10 s")
def test_round_trip_law():
    rng = SplitMix64(0xC0FFEE)
    cases = [_random_pair_list(rng) for _ in range(10_000)]
    assert any(len(c) == 0 for c in cases)
    assert any(len(set(c)) < len(c) for c in cases if c)
    assert any(";" in p.entity or "\\" in p.entity for c in cases for p in c)

    start = time.perf_counter()
    for pairs in cases:
        parsed = parse_pairs(serialize_pairs(pairs))
        assert parsed.pairs == pairs
        assert parsed.flag is ParseFlag.CLEAN
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"round-trip took {elapsed:.2f}s"


def _oracle_prf(gold, pred):
    """Exhaustive counting oracle: walk predictions, consume gold copies."""
    remaining = list(gold)
    matched = 0
    for p in pred:
        for i, g in enumerate(remaining):
            if g == p:
                matched += 1
                del remaining[i]
                break
    if not gold and not pred:
        return (1.0, 1.0, 1.0)
    precision = matched / len(pred) if pred else 0.0
    recall = matched / len(gold) if gold else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


@pytest.mark.criterion(2, "pair F1 equals the exhaustive counting oracle with zero mismatches")
def test_pair_f1_oracle_equivalence():
    mismatches = 0

    def check(gold, pred):
        nonlocal mismatches
        score = pair_f1(gold, pred)
        if (score.precision, score.recall, score.f1) != _oracle_prf(gold, pred):
            mismatches += 1

    # exhaustive over a 2-label x 2-entity universe, up to 2 pairs per side
    small = [LabelEntityPair(l, e) for l in ("a", "b") for e in ("x", "y")]
    small_sides = [list(c) for size in range(3) for c in product(small, repeat=size)]
    for gold in small_sides:
        for pred in small_sides:
            check(gold, pred)

    # exhaustive over a 2-pair-type universe, up to 6 pairs per side
    two = [LabelEntityPair("a", "x"), LabelEntityPair("b", "y")]
    two_sides = [list(c) for size in range(7) for c in product(two, repeat=size)]
    for gold in two_sides:
        for pred in two_sides:
            check(gold, pred)

    # 20,000 random multiset pairs over the full 4-label x 5-entity universe
    universe = [LabelEntityPair(f"l{i}", f"e{j}") for i in range(4) for j in range(5)]
    rng = SplitMix64(271828)
    for _ in range(20_000):
        gold = [universe[rng.randbelow(20)] for _ in range(rng.randbelow(7))]
        pred = [universe[rng.randbelow(20)] for _ in range(rng.randbelow(7))]
        check(gold, pred)

    assert mismatches == 0


def _random_verbalizer_and_weights(rng: SplitMix64):
    vocab = [f"w{i}" for i in range(24)]
    mapping = {}
    for li in range(2 + rng.randbelow(4)):
        words = rng.sample(vocab, 1 + rng.randbelow(6))
        mapping[f"L{li}"] = tuple(words)
    kv = Verbalizer(label_words=mapping, k=8)
    weights = {w: rng.randbelow(10_000) + 1 for w in rng.sample(vocab, 14)}
    return kv, weights


class _WordTableProvider:
    """Each label's summed weights from a word -> weight table, over 10,000."""

    def __init__(self, weights: dict) -> None:
        self._weights = weights

    def score(self, prompt, query):
        return MaskDistribution(sums=[sum(self._weights.get(w, 0) for w in words)
                                      for words in query],
                                total=10_000, covered=frozenset(self._weights))


@pytest.mark.criterion(3, "aggregation matches a brute-force double loop on 1,000 instances")
def test_aggregation_oracle():
    rng = SplitMix64(31337)
    prompt = f"text {MASK_PLACEHOLDER}"
    for _ in range(1_000):
        kv, weights = _random_verbalizer_and_weights(rng)
        scores = predict(prompt, kv, _WordTableProvider(weights)).scores
        for label in kv.labels():
            brute = 0.0
            for word in kv.words_for(label):
                for dword, dweight in weights.items():
                    if dword == word:
                        brute += dweight / 10_000
            assert abs(scores[label] - brute) <= 1e-12


class _FixedProvider:
    def __init__(self, dist: MaskDistribution) -> None:
        self._dist = dist

    def score(self, prompt, query):
        return self._dist


@pytest.mark.criterion(4, "argmax invariance under 10 positive rescalings x 1,000 instances")
def test_argmax_scale_invariance():
    rng = SplitMix64(987654321)
    prompt = f"text {MASK_PLACEHOLDER}"
    for _ in range(1_000):
        kv, weights = _random_verbalizer_and_weights(rng)
        dist = _WordTableProvider(weights).score(prompt, tuple(kv.label_words.values()))
        base = predict(prompt, kv, _FixedProvider(dist))
        for _ in range(10):
            c = rng.randbelow(100_000) + 1  # masses times c / 1,000, in (0, 100]
            scaled = MaskDistribution(
                sums=[c * s for s in dist.sums], total=1_000 * dist.total,
                covered=dist.covered,
            )
            assert predict(prompt, kv, _FixedProvider(scaled)).label == base.label


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """Criterion 5 pipeline run, shared with the determinism check."""
    root = tmp_path_factory.mktemp("planted")
    desc, train, test, _ = planted_splits(
        n_train_per_label=10, n_test_per_label=40, pool_size=12, seed=7
    )
    assert len(train) == 50 and len(test) == 200
    save_split(root / "train.jsonl", train)
    save_split(root / "test.jsonl", test)
    wli_kv = build_from_wli(train, desc, k=10)
    save_kv(shuffle_words(wli_kv, seed=11), root / "origin_kv.txt")

    def run(out_name: str) -> dict:
        out = root / out_name
        code = main([
            "run-kv",
            "--family", "SCNM", "--language", "en",
            "--train", str(root / "train.jsonl"),
            "--test", str(root / "test.jsonl"),
            "--external-kv", str(root / "origin_kv.txt"),
            "--seed", "11", "--few-shot-k", "10",
            "--test-n", "200", "--repeats", "3", "--kv-k", "10",
            "--out", str(out),
        ])
        assert code == 0, f"run-kv exited {code}"
        return {"dir": out, "report": read_json(out / "kv_report.json")}

    start = time.perf_counter()
    first = run("run1")
    first["elapsed"] = time.perf_counter() - start
    first["root"] = root
    first["rerun"] = run
    return first


@pytest.mark.criterion(
    5, "planted-signal run-kv: WLI KV accuracy >= 0.95 and above the shuffled baseline, < 60 s"
)
def test_planted_signal_end_to_end(planted_run):
    report = planted_run["report"]
    rows = {row["name"]: row for row in report["rows"]}
    assert set(rows) == {"Origin KV", "WLI KV"}
    wli = rows["WLI KV"]["f1"]["mean"]
    shuffled = rows["Origin KV"]["f1"]["mean"]
    assert wli >= 0.95, f"WLI KV accuracy {wli:.4f}"
    assert wli > shuffled, f"WLI {wli:.4f} not above shuffled baseline {shuffled:.4f}"
    assert planted_run["elapsed"] < 60.0, f"pipeline took {planted_run['elapsed']:.1f}s"


@pytest.mark.criterion(6, "protocol defaults: few-shot 20/category, 1,000 x 3 test draws, KV k=100")
def test_protocol_defaults(planted_run, tmp_path):
    config = ExperimentConfig()
    assert config.few_shot_k == 20
    assert config.test_sample_size == 1000
    assert config.test_repeats == 3
    assert config.kv_words_per_label == 100

    # the effective config is echoed verbatim into artifacts and reports
    echoed = planted_run["report"]["metadata"]["config"]
    assert echoed["few_shot_k"] == 10  # the override used for the planted run
    root = planted_run["root"]
    code = main([
        "build-formats", "--family", "SCNM", "--language", "en",
        "--input", str(root / "train.jsonl"),
        "--tags", "TRAD_TEXT", "--out", str(tmp_path / "defaults"),
    ])
    assert code == 0
    manifest = read_json(tmp_path / "defaults" / "scnm_en_train_manifest.json")
    for key, expected in (
        ("few_shot_k", 20),
        ("test_sample_size", 1000),
        ("test_repeats", 3),
        ("kv_words_per_label", 100),
    ):
        assert manifest["config"][key] == expected


def _random_text(rng: SplitMix64) -> str:
    chars = "ab 語東西 .,\n\t字"
    while True:
        s = "".join(chars[rng.randbelow(len(chars))] for _ in range(1 + rng.randbelow(40)))
        if s.strip():
            return s


@pytest.mark.criterion(7, "format laws over 1,000 random records and every tag")
def test_format_laws():
    desc_schema = builtin_schema("SCNM", "en")
    from mremix import DatasetDescriptor

    desc = DatasetDescriptor(family="SCNM", language="en", schema=desc_schema)
    rng = SplitMix64(777)
    for i in range(1_000):
        pairs = tuple(
            LabelEntityPair(
                desc_schema.word_labels[rng.randbelow(len(desc_schema.word_labels))],
                _random_entity(rng),
            )
            for _ in range(rng.randbelow(5))
        )
        record = MreRecord(
            id=f"law-{i}",
            text=_random_text(rng),
            text_label=desc_schema.text_labels[rng.randbelow(len(desc_schema.text_labels))],
            pairs=pairs,
        )
        wli = serialize_pairs(record.pairs)
        built = {tag: build_example(record, tag, desc) for tag in FormatTag}
        for tag, example in built.items():
            # input-prefix law
            assert example.input.startswith(record.text)
            # no-template law: nothing beyond text + separator + level info
            assert example.input in (
                record.text,
                record.text + SEPARATOR + record.text_label,
                record.text + SEPARATOR + wli,
            )
            # split law: the target splits back into the record's levels, and
            # parses back to them cleanly
            level = target_level(tag)
            label = None if level == "word" else record.text_label
            assert split_target(example.target, tag) == (label, None if level == "text" else wli)
            parsed = parse_prediction(example.target, tag, desc_schema)
            assert parsed.flag is ParseFlag.CLEAN
            assert parsed.text_label == label
            assert parsed.pairs == (() if level == "text" else record.pairs)
        # alias law: w/o variants byte-equal their traditional counterparts
        for alias, base in TAG_ALIASES.items():
            assert built[alias].input == built[base].input
            assert built[alias].target == built[base].target
    # the layout table covers every tag, and its aliases are the two w/o formats
    assert set(LAYOUT) == set(FormatTag)
    assert TAG_ALIASES == {
        FormatTag.WO_TLI_TO_WLI: FormatTag.TRAD_WORD,
        FormatTag.WO_WLI_TO_TLI: FormatTag.TRAD_TEXT,
    }


@pytest.mark.criterion(8, "two identically seeded pipeline runs produce byte-identical artifacts")
def test_pipeline_determinism(planted_run):
    root = planted_run["root"]
    for name in ("fmt1", "fmt2"):
        code = main([
            "build-formats", "--family", "SCNM", "--language", "en",
            "--input", str(root / "test.jsonl"), "--role", "test",
            "--tags", "all", "--test-n", "50", "--repeats", "2", "--seed", "11",
            "--out", str(root / name),
        ])
        assert code == 0
    second = planted_run["rerun"]("run2")

    def tree_bytes(base):
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    assert tree_bytes(root / "fmt1") == tree_bytes(root / "fmt2")
    first_tree = tree_bytes(planted_run["dir"])
    second_tree = tree_bytes(second["dir"])
    assert first_tree == second_tree


@pytest.mark.criterion(9, "builtin schemas match the documented family label inventories exactly")
def test_schema_fidelity():
    for language in ("en", "zh", "ja"):
        scnm = builtin_schema("SCNM", language)
        assert len(scnm.text_labels) == 5
        assert len(scnm.word_labels) == 8
        adj = builtin_schema("SCPOS:Adj", language)
        assert len(adj.text_labels) == 2
        assert len(adj.word_labels) == 2
        tcree = builtin_schema("TCREE", language)
        assert len(tcree.text_labels) == 5
        tconer = builtin_schema("TCONER", language)
        assert tconer.open_domain
    descs = [DatasetDescriptor.builtin(f, lang) for f in FAMILIES for lang in LANGUAGES]
    assert len(descs) == 21
    assert [d.family for d in descs if d.schema.open_domain] == ["TCONER"] * 3
    assert builtin_schema("SCNM", "en").text_labels == (
        "Society", "Literature", "Academia", "Technology", "Nature",
    )
