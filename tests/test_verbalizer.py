from __future__ import annotations

import json
import math
import tempfile
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import (
    CountModel,
    MaskDistribution,
    Segmenter,
    Verbalizer,
    apply_template,
    build_from_wli,
    few_shot_sample,
    load_external_kv,
    predict,
    save_kv,
    shuffle_words,
)
from mremix.errors import DataError, SchemaError
from mremix.rng import SplitMix64
from mremix.verbalizer import MASK_PLACEHOLDER, FileDistributionProvider

from synth import planted_splits


def _union(query):
    """The distinct words of a query, first-seen order."""
    return list(dict.fromkeys(word for words in query for word in words))


def _label_dist(query, weights, total, covered=frozenset()):
    """Each label's summed weights from a word -> weight table (0 for other words)."""
    return MaskDistribution(sums=[sum(weights.get(w, 0) for w in words) for words in query],
                            total=total, covered=covered)


class StubProvider:
    """Answers every prompt from one fixed word -> weight table over one total
    (0 for other words)."""

    def __init__(self, weights, total=10, covered=None):
        self._weights = dict(weights)
        self._total = total
        self._covered = frozenset(weights if covered is None else covered)
        self.calls = 0

    def score(self, prompt, query):
        self.calls += 1
        return _label_dist(query, self._weights, self._total,
                           self._covered.intersection(_union(query)))


class PresenceOracleProvider:
    """Mass proportional to each query word's presence in the prompt."""

    def score(self, prompt, query):
        hits = {w: int(w in prompt) for w in _union(query)}
        return _label_dist(query, hits, max(sum(hits.values()), 1),
                           frozenset(w for w, hit in hits.items() if hit))


class FixedProvider:
    """Answers every prompt with one distribution."""

    def __init__(self, dist):
        self._dist = dist

    def score(self, prompt, query):
        return self._dist


def _kv(mapping, k=10):
    return Verbalizer(label_words=mapping, k=k)


def _scores(kv, weights, total=10, strategy="sum"):
    """``predict``'s label scores for a word -> weight table over ``total``."""
    provider = StubProvider(weights, total=total)
    return predict(f"t {MASK_PLACEHOLDER}", kv, provider, strategy=strategy).scores


class TestBuildFromWli:
    def test_frequency_order(self, scpos_adj_en, make_record):
        from mremix.ingest import Split

        records = (
            make_record("a", label="positive", pairs=[("positive", "fun"), ("positive", "fun")]),
            make_record("b", label="positive", pairs=[("positive", "nice")]),
            make_record("c", label="negative", pairs=[("negative", "bad")]),
        )
        kv = build_from_wli(Split(records, "train"), scpos_adj_en, k=2)
        assert list(kv.words_for("positive")) == ["fun", "nice"]
        assert list(kv.words_for("negative")) == ["bad"]

    def test_tie_breaks_lexicographically(self, scpos_adj_en, make_record):
        from mremix.ingest import Split

        records = (
            make_record("a", label="positive", pairs=[("positive", "zeta"), ("positive", "alpha")]),
            make_record("b", label="negative", pairs=[("negative", "bad")]),
        )
        kv = build_from_wli(Split(records, "train"), scpos_adj_en, k=1)
        assert list(kv.words_for("positive")) == ["alpha"]

    def test_five_labels_k100_bounds_total(self):
        desc, train, _, _ = planted_splits(n_train_per_label=10, pool_size=12)
        kv = build_from_wli(train, desc, k=100)
        total = sum(len(kv.words_for(label)) for label in kv.labels())
        assert total <= 500
        assert kv.labels() == desc.schema.text_labels

    def test_open_domain_refused(self, tconer_en, make_record):
        from mremix.ingest import Split

        split = Split((make_record("a", label="X", pairs=[("y", "z")]),), "train")
        with pytest.raises(SchemaError, match="fixed label schema"):
            build_from_wli(split, tconer_en, k=5)

    def test_label_without_entities_rejected(self, scpos_adj_en, make_record):
        from mremix.ingest import Split

        split = Split(
            (
                make_record("a", label="positive", pairs=[("positive", "fun")]),
                make_record("b", label="negative"),
            ),
            "train",
        )
        with pytest.raises(DataError, match="'negative' has no word-level entities"):
            build_from_wli(split, scpos_adj_en, k=5)

    def test_top_k_matches_full_sort_oracle(self):
        desc, train, _, _ = planted_splits(n_train_per_label=15, pool_size=20, seed=17)
        k = 7
        kv = build_from_wli(train, desc, k=k)
        for label in desc.schema.text_labels:
            counts = Counter()
            for record in train.records:
                if record.text_label == label:
                    for pair in record.pairs:
                        counts[pair.entity] += 1
            oracle = sorted(counts, key=lambda w: (-counts[w], w))[:k]
            assert list(kv.words_for(label)) == oracle

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["positive", "negative"]),
                st.lists(st.sampled_from(["a", "B", "ab", "é", "é", "東京", "京", "ß",
                                          "\U0001d538", "z"]), max_size=4),
            ),
            max_size=12,
        ),
        k=st.integers(1, 12),
    )
    def test_ranking_matches_the_count_then_word_key(self, scpos_adj_en, rows, k):
        from mremix import LabelEntityPair, MreRecord
        from mremix.ingest import Split

        rows = [("positive", ["a"]), ("negative", ["a"])] + rows
        records = tuple(
            MreRecord(id=str(i), text="some text", text_label=label,
                      pairs=tuple(LabelEntityPair(label, word) for word in words))
            for i, (label, words) in enumerate(rows)
        )
        kv = build_from_wli(Split(records, "train"), scpos_adj_en, k=k)
        for label in ("positive", "negative"):
            counts = Counter(word for row_label, words in rows if row_label == label
                             for word in words)
            ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]
            assert list(kv.words_for(label)) == [word for word, _ in ranked]


class TestExternalKv:
    def _write(self, path, blocks):
        lines = []
        for label, words in blocks.items():
            lines.append(f"[{label}]")
            lines.extend(words)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_load_counts(self, tmp_path, scnm_en):
        path = tmp_path / "kv.txt"
        blocks = {label: [f"{label.lower()}{i}" for i in range(100)] for label in scnm_en.schema.text_labels}
        self._write(path, blocks)
        kv = load_external_kv(path, scnm_en.schema, k=100)
        assert sum(len(kv.words_for(l)) for l in kv.labels()) == 500

    def test_unknown_label_rejected(self, tmp_path, scnm_en):
        path = tmp_path / "kv.txt"
        self._write(path, {"Sports": ["ball"]})
        with pytest.raises(DataError, match="unknown label 'Sports'"):
            load_external_kv(path, scnm_en.schema)

    def test_missing_label_named(self, tmp_path, scpos_adj_en):
        path = tmp_path / "kv.txt"
        self._write(path, {"positive": ["fun"]})
        with pytest.raises(DataError, match="'negative'"):
            load_external_kv(path, scpos_adj_en.schema)

    def test_empty_block_rejected(self, tmp_path, scpos_adj_en):
        path = tmp_path / "kv.txt"
        path.write_text("[positive]\nfun\n[negative]\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty word list"):
            load_external_kv(path, scpos_adj_en.schema)

    def test_truncation_to_k(self, tmp_path, scpos_adj_en):
        path = tmp_path / "kv.txt"
        self._write(
            path,
            {"positive": [f"w{i}" for i in range(120)], "negative": ["bad"]},
        )
        kv = load_external_kv(path, scpos_adj_en.schema, k=100)
        assert len(kv.words_for("positive")) == 100
        assert list(kv.words_for("positive"))[:3] == ["w0", "w1", "w2"]

    def test_dedupe_keeps_first(self, tmp_path, scpos_adj_en):
        path = tmp_path / "kv.txt"
        self._write(path, {"positive": ["fun", "fun", "nice"], "negative": ["bad"]})
        kv = load_external_kv(path, scpos_adj_en.schema, k=10)
        assert list(kv.words_for("positive")) == ["fun", "nice"]

    def test_save_reload_roundtrip_and_stability(self, tmp_path, scnm_en):
        desc, train, _, _ = planted_splits(n_train_per_label=5)
        kv = build_from_wli(train, desc, k=6)
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        save_kv(kv, path_a)
        reloaded = load_external_kv(path_a, desc.schema, k=6)
        assert reloaded.label_words == kv.label_words
        save_kv(reloaded, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_second_block_for_a_label_names_both_lines(self, tmp_path, scpos_adj_en):
        path = tmp_path / "kv.txt"
        path.write_text("[positive]\nfun\n[negative]\nbad\n\n[positive]\nnice\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_external_kv(path, scpos_adj_en.schema)
        assert str(caught.value) == (f"{path}: line 6: second block for label 'positive' "
                                     "(first on line 1)")

    @pytest.mark.parametrize("word", ["C#", "[Nature]", "[]", "", " pad", "pad\t", "two\nlines",
                                      "cr\r", "\u3000wide"])
    def test_word_that_would_not_reload_is_refused_before_writing(self, tmp_path, word):
        kv = Verbalizer({"positive": ("fun", word), "negative": ("bad",)}, k=2)
        path = tmp_path / "kv.txt"
        with pytest.raises(DataError) as caught:
            save_kv(kv, path)
        assert str(caught.value) == (f"label 'positive': word {word!r} would not reload "
                                     "from a word-list file")
        assert not path.exists()

    def test_brackets_and_inner_spaces_reload(self, tmp_path, scpos_adj_en):
        kv = Verbalizer({"positive": ("[fun", "fun]", "a b", "a\u3000b", "東京"),
                         "negative": ("bad",)}, k=5)
        save_kv(kv, tmp_path / "kv.txt")
        assert load_external_kv(tmp_path / "kv.txt", scpos_adj_en.schema, k=5) == kv


class TestAggregate:
    """Label scores: a label's sum over the total (over the total times its word count for mean)."""

    def test_worked_example(self):
        kv = _kv({"A": ["good", "great"], "B": ["bad"]})
        scores = _scores(kv, {"good": 3, "great": 2, "bad": 4})
        assert scores == {"A": 0.5, "B": 0.4}

    def test_all_zero(self):
        kv = _kv({"A": ["x"], "B": ["y"]})
        scores = _scores(kv, {})
        assert scores == {"A": 0.0, "B": 0.0}

    def test_shared_word_contributes_to_both(self):
        kv = _kv({"A": ["shared"], "B": ["shared"]})
        scores = _scores(kv, {"shared": 2})
        assert scores == {"A": 0.2, "B": 0.2}

    def test_masses_must_answer_the_whole_query(self):
        kv = _kv({"A": ["x"], "B": ["y"]})
        provider = FixedProvider(MaskDistribution(sums=[5], total=10))
        with pytest.raises(ValueError, match="1 sums for 2 labels"):
            predict(f"t {MASK_PLACEHOLDER}", kv, provider)

    def test_unknown_strategy_rejected(self):
        kv = _kv({"A": ["x"]})
        with pytest.raises(ValueError, match="unknown aggregation strategy: 'max'"):
            predict(f"t {MASK_PLACEHOLDER}", kv, StubProvider({"x": 1}), strategy="max")

    def test_mean_strategy_divides_by_word_count(self):
        kv = _kv({"A": ["a1", "a2"], "B": ["b1"]})
        scores = _scores(kv, {"a1": 4, "a2": 0, "b1": 3}, strategy="mean")
        assert scores == {"A": 0.2, "B": 0.3}

    def test_matches_brute_force_double_loop(self):
        rng = SplitMix64(404)
        for _ in range(1000):
            n_labels = 2 + rng.randbelow(4)
            vocab = [f"w{i}" for i in range(20)]
            mapping = {}
            for li in range(n_labels):
                count = 1 + rng.randbelow(6)
                mapping[f"L{li}"] = tuple(rng.sample(vocab, count))
            kv = Verbalizer(label_words=mapping, k=10)
            weights = {w: rng.randbelow(1000) for w in rng.sample(vocab, 12)}
            scores = _scores(kv, weights, total=1000)
            for label, words in mapping.items():
                brute = 0
                for word in words:
                    for dword, dweight in weights.items():
                        if dword == word:
                            brute += dweight
                assert scores[label] == brute / 1000


class TestPredict:
    def test_argmax(self):
        kv = _kv({"A": ["good", "great"], "B": ["bad"]})
        provider = StubProvider({"good": 3, "great": 2, "bad": 4})
        result = predict(f"text {MASK_PLACEHOLDER}", kv, provider)
        assert result.label == "A"
        assert result.scores == {"A": 0.5, "B": 0.4}
        assert not result.no_coverage

    def test_tie_breaks_to_first_label(self):
        kv = _kv({"A": ["x"], "B": ["y"]})
        provider = StubProvider({"x": 5, "y": 5})
        assert predict(f"t {MASK_PLACEHOLDER}", kv, provider).label == "A"

    def test_no_coverage_warning(self):
        kv = _kv({"A": ["x"], "B": ["y"]})
        provider = StubProvider({"x": 0, "y": 0}, covered=())
        result = predict(f"t {MASK_PLACEHOLDER}", kv, provider)
        assert result.label == "A"
        assert result.no_coverage

    def test_single_provider_call(self):
        kv = _kv({"A": ["x"], "B": ["y"]})
        provider = StubProvider({"x": 10, "y": 0})
        predict(f"t {MASK_PLACEHOLDER}", kv, provider)
        assert provider.calls == 1

    def test_mask_slot_count_enforced(self):
        kv = _kv({"A": ["x"]})
        provider = StubProvider({"x": 10})
        with pytest.raises(ValueError, match="exactly one"):
            predict("no mask here", kv, provider)
        with pytest.raises(ValueError, match="exactly one"):
            predict(f"{MASK_PLACEHOLDER} and {MASK_PLACEHOLDER}", kv, provider)


def _exact_scores(weight, total, verbalizer, strategy):
    """Each label's exact score from a word -> weight table over ``total``."""
    exact = {}
    for label in verbalizer.labels():
        words = verbalizer.words_for(label)
        score = Fraction(sum(weight.get(w, 0) for w in words), total)
        exact[label] = score / len(words) if strategy == "mean" else score
    return exact


def _fraction_argmax(exact_scores):
    """The earliest label with the largest exact score."""
    best = None
    for label, score in exact_scores.items():
        if best is None or score > exact_scores[best]:
            best = label
    return best


class TableProvider:
    """Label sums from a word -> integer weight table (0 for words it lacks), over
    the union's weights plus ``spare`` (at least 1)."""

    def __init__(self, weights, spare):
        self._weights = weights
        self._spare = spare

    def score(self, prompt, query):
        union = _union(query)
        total = max(sum(self._weights.get(w, 0) for w in union) + self._spare, 1)
        return _label_dist(query, self._weights, total,
                           frozenset(self._weights).intersection(union))


_WORDS = [f"w{i}" for i in range(8)]
# small weights tie often; large ones are not exact as floats, nor are their sums
_WEIGHTS = st.one_of(st.integers(0, 6), st.integers(2**53 - 4, 2**53 + 4),
                     st.integers(0, 2**1100))


@st.composite
def _verbalizers(draw):
    label_words = {}
    for i in range(draw(st.integers(1, 5))):
        label_words[f"L{i}"] = tuple(
            draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6, unique=True)))
    return Verbalizer(label_words=label_words, k=6)


class TestPositionalScoring:
    """Integer label sums against exact fractions: scores rounded once, labels by the earliest argmax."""

    @settings(max_examples=400, deadline=None)
    @given(
        kv=_verbalizers(),
        known=st.dictionaries(st.sampled_from(_WORDS), _WEIGHTS, max_size=8),
        spare=st.one_of(st.just(0), st.integers(0, 2**1100)),
        strategy=st.sampled_from(["sum", "mean"]),
    )
    def test_scores_equal_reference_and_labels_equal_exact_argmax(
        self, kv, known, spare, strategy
    ):
        prompt = f"t {MASK_PLACEHOLDER}"
        provider = TableProvider(known, spare)
        dist = provider.score(prompt, tuple(kv.label_words.values()))
        exact = _exact_scores(known, dist.total, kv, strategy)
        reference = {label: float(score) for label, score in exact.items()}

        result = predict(prompt, kv, provider, strategy=strategy)
        assert result.scores == reference
        assert list(result.scores) == list(reference)
        assert result.label == _fraction_argmax(exact)
        assert result.no_coverage == (not known or max(exact.values()) == 0)

    def test_planted_tie_goes_to_the_earliest_label(self):
        # Weights (alpha 1 + count): x 5, y1..y5 1 each, z 1, so X and Y both
        # sum to 5 of 11. Adding five float masses of 1/11 would give
        # 0.4545454545454546, above X's 5/11 = 0.45454545454545453.
        model = CountModel.train(["c x"] * 4, Segmenter("en"))
        kv = _kv({"X": ["x"], "Y": [f"y{i}" for i in range(1, 6)], "Z": ["z"]})
        result = predict(f"c {MASK_PLACEHOLDER}", kv, model)
        assert result.scores["Y"] == result.scores["X"] == 5 / 11
        assert result.label == "X"
        mean = predict(f"c {MASK_PLACEHOLDER}", _kv({"Y": ["y1"], "X": ["x"]}), model,
                       strategy="mean")
        assert mean.label == "X"

    @pytest.mark.parametrize("single, part", [
        (Fraction(1), Fraction(1, 3)),
        (Decimal("0.3"), Decimal("0.1")),
    ], ids=["thirds", "decimal-tenths"])
    def test_tie_on_rational_weights_goes_to_the_earliest_label(self, single, part):
        # Exact weights: b is worth three parts, and A has three words of one
        # part. The provider states them as integers over their common denominator.
        weight = {w: Fraction(v) for w, v in {"b": single, "a1": part, "a2": part,
                                              "a3": part}.items()}
        scale = math.lcm(*(v.denominator for v in weight.values()))

        class RationalProvider:
            def score(self, prompt, query):
                return _label_dist(query, {w: int(v * scale) for w, v in weight.items()},
                                   int(2 * Fraction(single) * scale), frozenset(weight))

        kv = _kv({"B": ["b"], "A": ["a1", "a2", "a3"]})
        assert predict(f"t {MASK_PLACEHOLDER}", kv, RationalProvider()).label == "B"

    @settings(max_examples=300, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.sampled_from(_WORDS[:5]), min_size=1, max_size=5),
                        min_size=1, max_size=6),
        context=st.lists(st.sampled_from(_WORDS[:5] + ["oov"]), max_size=4),
        kv=_verbalizers(),
        strategy=st.sampled_from(["sum", "mean"]),
        alpha=st.sampled_from([1.0, 2, 3, 0.3]),
    )
    def test_count_model_labels_equal_integer_oracle(self, corpus, context, kv, strategy, alpha):
        model = CountModel.train([" ".join(text) for text in corpus], Segmenter("en"),
                                 alpha=alpha)
        pairs = Counter()
        for text in corpus:
            for i in range(len(text)):
                for j in range(i + 1, len(text)):
                    pairs[frozenset((text[i], text[j]))] += 1
        # exact weights: the binary value of alpha plus an integer count
        weight = {w: Fraction(alpha) + sum(pairs[frozenset((c, w))] for c in context)
                  for w in _union(tuple(kv.label_words.values()))}
        exact = _exact_scores(weight, sum(weight.values()), kv, strategy)
        prompt = " ".join(context) + f" {MASK_PLACEHOLDER}"
        result = predict(prompt, kv, model, strategy=strategy)
        assert result.label == _fraction_argmax(exact)
        assert result.scores == {label: float(score) for label, score in exact.items()}


class TestApplyTemplate:
    def test_substitution(self):
        prompt = apply_template("some text", "{text} Topic: {mask}")
        assert prompt == "some text Topic: {mask}"

    def test_two_masks_rejected(self):
        with pytest.raises(ValueError):
            apply_template("t", "{text} {mask} {mask}")

    def test_missing_text_placeholder_rejected(self):
        with pytest.raises(ValueError):
            apply_template("t", "Topic: {mask}")


class TestShuffleWords:
    def test_preserves_counts_and_pool(self):
        desc, train, _, _ = planted_splits(n_train_per_label=8)
        kv = build_from_wli(train, desc, k=10)
        shuffled = shuffle_words(kv, seed=5)
        assert shuffled.labels() == kv.labels()
        for label in kv.labels():
            assert len(shuffled.words_for(label)) == len(kv.words_for(label))
        pool = sorted(w for l in kv.labels() for w in kv.words_for(l))
        shuffled_pool = sorted(w for l in shuffled.labels() for w in shuffled.words_for(l))
        assert pool == shuffled_pool

    def test_deterministic_and_seed_sensitive(self):
        desc, train, _, _ = planted_splits(n_train_per_label=8)
        kv = build_from_wli(train, desc, k=10)
        assert shuffle_words(kv, 5).label_words == shuffle_words(kv, 5).label_words
        assert shuffle_words(kv, 5).label_words != shuffle_words(kv, 6).label_words


    def test_words_under_four_of_five_labels(self):
        # 5 labels x 100 words: 100 words each under 4 labels, 20 under one
        label_words = {label: tuple([f"s{i}" for i in range(100) if i % 5 != j]
                                    + [f"{label}{i}" for i in range(20)])
                       for j, label in enumerate("ABCDE")}
        kv = Verbalizer(label_words, k=100)
        for seed in range(5):
            shuffled = shuffle_words(kv, seed)
            assert [len(words) for words in shuffled.label_words.values()] == [100] * 5
            assert _pool(shuffled) == _pool(kv)


def _pool(kv: Verbalizer) -> Counter:
    return Counter(chain.from_iterable(kv.label_words.values()))


@st.composite
def _verbalizers(draw) -> Verbalizer:
    """Labels of unequal sizes, some empty, over a small pool, so that words share labels."""
    pool = [f"w{i}" for i in range(draw(st.integers(1, 10)))]
    lists = draw(st.lists(st.lists(st.sampled_from(pool), unique=True), min_size=1, max_size=6))
    return Verbalizer({f"L{i}": tuple(words) for i, words in enumerate(lists)},
                      k=max(1, *map(len, lists)))


@settings(max_examples=300, deadline=None)
@given(kv=_verbalizers(), seed=st.integers(0, 2**64 - 1))
def test_shuffle_keeps_label_sizes_and_the_word_pool(kv, seed):
    shuffled = shuffle_words(kv, seed)
    assert shuffled.labels() == kv.labels() and shuffled.k == kv.k
    for label in kv.labels():
        words = shuffled.words_for(label)
        assert len(words) == len(kv.words_for(label)) and len(set(words)) == len(words)
    assert _pool(shuffled) == _pool(kv)
    assert shuffle_words(kv, seed) == shuffled


class TestPlantedSignalOracle:
    def test_perfect_accuracy_with_presence_oracle(self):
        desc, train, test, _ = planted_splits(n_train_per_label=10, n_test_per_label=10)
        kv = build_from_wli(train, desc, k=10)
        provider = PresenceOracleProvider()
        correct = 0
        for record in test.records:
            prompt = apply_template(record.text, "{text}\n{mask}")
            if predict(prompt, kv, provider).label == record.text_label:
                correct += 1
        assert correct == len(test.records)


def test_few_shot_then_build(scnm_en):
    desc, train, _, _ = planted_splits(n_train_per_label=12)
    subset = few_shot_sample(train, desc, 10, seed=1)
    kv = build_from_wli(subset, desc, k=5)
    assert kv.labels() == desc.schema.text_labels


_FILE_WORDS = st.text(alphabet="abcxyz東", min_size=1, max_size=4)
# up to 1e300, so that the few values of a row keep a finite sum
_FILE_PROBS = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.5e-310, 0.1, 1e300]),
    st.integers(0, 2**80),
)


@st.composite
def _prob_rows(draw):
    probs = draw(st.dictionaries(_FILE_WORDS, _FILE_PROBS, max_size=6))
    row = {"prompt": draw(st.text(max_size=8)) + MASK_PLACEHOLDER, "probs": probs}
    if draw(st.booleans()):
        row["covered"] = draw(st.lists(_FILE_WORDS, max_size=4))
    return row


def _spoil(draw, row):
    """``row`` with one defect the reader must refuse."""
    kind = draw(st.sampled_from(["prompt", "probs", "value", "sum", "covered", "missing",
                                 "shape"]))
    row = dict(row, probs=dict(row["probs"]))
    if kind == "prompt":
        row["prompt"] = draw(st.sampled_from([7, None, ["p"], 1.5, True]))
    elif kind == "probs":
        row["probs"] = draw(st.sampled_from([[0.5, 0.5], "x", 3, None, True]))
    elif kind == "value":
        bad = draw(st.sampled_from([True, False, "0.5", -1, -0.5, -5e-324, math.nan, math.inf,
                                    -math.inf, 2**1024, None, [0.1], {"p": 0.1}]))
        row["probs"][draw(_FILE_WORDS)] = bad
    elif kind == "sum":  # each value finite, their sum not
        row["probs"].update({"big1": 1e308, "big2": 1e308})
    elif kind == "covered":
        row["covered"] = draw(st.sampled_from(["x", 3, None, {"x": 1}, ["x", 2], [None]]))
    elif kind == "missing":
        del row[draw(st.sampled_from(["prompt", "probs"]))]
    else:
        return draw(st.sampled_from([[row], "row", 5, None]))
    return row


def _probs_file(directory, lines):
    path = Path(directory) / "probs.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestFileProvider:
    """The precomputed-probability reader: exact integer weights, or a one-line error."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_prob_rows(), max_size=5, unique_by=lambda row: row["prompt"]))
    def test_valid_rows_give_the_files_floats_exactly(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            provider = FileDistributionProvider(
                _probs_file(tmp, [json.dumps(row) for row in rows]))
        for row in rows:
            probs = row["probs"]
            words = [*probs, "absent"] if "absent" not in probs else list(probs)
            # one label a word gives each word's weight; one label of all of them, their sum
            dist = provider.score(row["prompt"], [(w,) for w in words] + [tuple(words)])
            assert all(type(s) is int and s >= 0 for s in dist.sums) and dist.total > 0
            for word, s in zip(words, dist.sums):
                assert s / dist.total == float(probs.get(word, 0))
            assert dist.sums[-1] == sum(dist.sums[:-1])
            assert dist.covered == frozenset(row.get("covered", probs)).intersection(words)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), good=_prob_rows(), blanks=st.integers(0, 2))
    def test_malformed_row_is_a_one_line_error_naming_its_line(self, data, good, blanks):
        bad = _spoil(data.draw, data.draw(_prob_rows()))
        lines = [json.dumps(good)] + [""] * blanks + [json.dumps(bad)]
        with tempfile.TemporaryDirectory() as tmp:
            path = _probs_file(tmp, lines)
            with pytest.raises(DataError) as caught:
                FileDistributionProvider(path)
        message = str(caught.value)
        assert "\n" not in message
        assert message.startswith(f"{path}: line {2 + blanks}: ")
