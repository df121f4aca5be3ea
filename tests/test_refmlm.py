from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mremix import CountModel, Segmenter, lexicon_from_split
from mremix.errors import DataError
from mremix.rng import SplitMix64
from mremix.verbalizer import MASK_PLACEHOLDER

from synth import planted_splits


def _words(queries):
    """A query of one label per word, so each label's sum is that word's weight."""
    return [(q,) for q in queries]


def _masses(model, prompt, queries):
    """The model's mass of each query word, by word."""
    return dict(zip(queries, model.score(prompt, _words(queries)).probs))


class TestSegmenters:
    def test_english_whitespace(self):
        seg = Segmenter("en")
        assert seg("Tanaka visited  Tokyo.") == ["Tanaka", "visited", "Tokyo."]

    def test_greedy_longest_match(self):
        seg = Segmenter("ja", ["東京", "東京都", "京都"])
        assert seg("東京都は京都") == ["東京都", "は", "京都"]

    def test_greedy_prefers_longest_at_each_position(self):
        seg = Segmenter("ja", ["東京", "京都"])
        # '東京' wins at position 0, leaving '都' as a single-char fallback
        assert seg("東京都") == ["東京", "都"]

    def test_single_char_fallback_skips_whitespace(self):
        seg = Segmenter("zh", ["北京"])
        assert seg("北京 很 大") == ["北京", "很", "大"]

    def test_lexicon_entries_with_spaces(self):
        seg = Segmenter("zh", ["a b"])
        assert seg("xa by") == ["x", "a b", "y"]

    def test_lexicon_from_split(self):
        _, train, _, _ = planted_splits(n_train_per_label=2)
        entities = [pair.entity for record in train.records for pair in record.pairs]
        assert list(lexicon_from_split(train)) == entities
        # a lexicon language reads it into a set; a whitespace language never reads it
        assert Segmenter("zh", lexicon_from_split(train)).lexicon == frozenset(entities)
        lex = lexicon_from_split(train)
        assert Segmenter("en", lex).lexicon == frozenset()
        assert next(lex) == entities[0]


def reference_segment(text: str, lexicon: frozenset[str], max_len: int) -> list[str]:
    """The greedy loop as it stood before the first-character set, kept as an
    oracle: at each position every length from the longest down is looked up."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        longest = min(max_len, n - i)
        matched = None
        for length in range(longest, 0, -1):
            candidate = text[i : i + length]
            if candidate in lexicon:
                matched = candidate
                break
        if matched is not None:
            tokens.append(matched)
            i += len(matched)
            continue
        ch = text[i]
        if not ch.isspace():
            tokens.append(ch)
        i += 1
    return tokens


# shared prefixes (東, 東京, 東京都), spaces and other whitespace, and astral
# characters (𠀋, 😀), which are one code point each
_SEG_CHARS = "東京都大阪ab \t\u3000𠀋😀"


@st.composite
def _lexicon_and_text(draw) -> tuple[list[str], str]:
    """A lexicon (one-character entries, entries with spaces, maybe an empty
    one) and a text of its words, other characters and whitespace."""
    lexicon = draw(st.lists(st.text(alphabet=_SEG_CHARS, max_size=4), max_size=8))
    piece = st.text(alphabet=_SEG_CHARS, min_size=1, max_size=3)
    if lexicon:
        piece = st.one_of(st.sampled_from(lexicon), piece)
    return lexicon, "".join(draw(st.lists(piece, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(case=_lexicon_and_text(), language=st.sampled_from(["zh", "ja"]))
@example(case=(["", "東", "東京都", "a b", "𠀋😀"], "東京都東京 a b𠀋😀 𠀋"), language="zh")
@example(case=([""], "東 京"), language="ja")
@example(case=([" ", "\t東"], " \t東 東"), language="ja")
def test_segmenter_matches_the_greedy_reference(case, language):
    lexicon, text = case
    expected = reference_segment(text, frozenset(lexicon), max(map(len, lexicon), default=1))
    assert Segmenter(language, lexicon)(text) == expected


def _pair_count(model, a, b):
    """The count of (a, b) position pairs, read through the model's table."""
    vocab = model._vocab
    if a not in vocab or b not in vocab:
        return 0
    return model._table.context_sums([vocab[a]], [[vocab[b]]])[0]


class TestTrainCounts:
    def test_direct_counts(self):
        model = CountModel.train(["a b", "a c"], Segmenter("en"), [])
        assert _pair_count(model, "a", "b") == 1
        assert _pair_count(model, "b", "a") == 1
        assert _pair_count(model, "a", "c") == 1
        assert _pair_count(model, "b", "c") == 0

    def test_single_word_text_has_no_pairs_but_global(self):
        model = CountModel.train(["solo"], Segmenter("en"), [])
        assert model.vocabulary() == frozenset({"solo"})
        assert _pair_count(model, "solo", "solo") == 0

    def test_duplicated_text_doubles_counts(self):
        once = CountModel.train(["a b c"], Segmenter("en"), [])
        twice = CountModel.train(["a b c", "a b c"], Segmenter("en"), [])
        assert _pair_count(twice, "a", "b") == 2 * _pair_count(once, "a", "b") == 2

    def test_repeated_token_within_text(self):
        model = CountModel.train(["a a"], Segmenter("en"), [])
        assert _pair_count(model, "a", "a") == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty corpus"):
            CountModel.train([], Segmenter("en"), [])

    def test_alpha_must_be_positive(self):
        with pytest.raises(DataError, match="alpha"):
            CountModel.train(["a b"], Segmenter("en"), [], alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(DataError, match="alpha must be finite and positive"):
            CountModel.train(["a b"], Segmenter("en"), [], alpha=alpha)


class TestScore:
    def test_forced_arithmetic_example(self):
        # count(a,b)=3, count(a,c)=1, alpha=1, context {a} -> P(b)=4/6, P(c)=2/6
        corpus = ["a b", "a b", "a b", "a c"]
        queries = [_words(["b", "c"]), [("b", "c"), ("c",)]]
        model = CountModel.train(corpus, Segmenter("en"), queries, alpha=1.0)
        dist = model.score(f"a {MASK_PLACEHOLDER}", _words(["b", "c"]))
        assert dist.probs == [4 / 6, 2 / 6]
        assert (list(dist.sums), dist.total) == ([4, 2], 6)
        both = model.score(f"a {MASK_PLACEHOLDER}", [("b", "c"), ("c",)])
        assert (list(both.sums), both.total) == ([6, 2], 6)

    def test_no_context_overlap_gives_uniform(self):
        model = CountModel.train(["a b"], Segmenter("en"), [_words(["a", "b"])])
        dist = model.score(f"zzz {MASK_PLACEHOLDER}", _words(["a", "b"]))
        assert dist.probs == [0.5, 0.5]

    def test_fractional_alpha_weights_are_exact(self):
        # alpha 0.1 is the binary ratio A/D: weights A + D * count, their sum the total
        a, d = (0.1).as_integer_ratio()
        query = _words([f"oov{i}" for i in range(9)] + ["b"])
        model = CountModel.train(["a b", "a b"], Segmenter("en"), [query], alpha=0.1)
        dist = model.score(f"a {MASK_PLACEHOLDER}", query)
        assert dist.sums == [a] * 9 + [a + 2 * d]
        assert dist.total == 10 * a + 2 * d
        assert dist.probs[0] == float(Fraction(a, 10 * a + 2 * d))

    def test_distribution_sums_to_one(self):
        desc, train, _, _ = planted_splits(n_train_per_label=6)
        seg = Segmenter("en")
        queries = [f"societyw{i:02d}" for i in range(12)] + ["unseen1", "unseen2"]
        model = CountModel.train([r.text for r in train.records], seg, [_words(queries)])
        dist = model.score(train.records[0].text + f" {MASK_PLACEHOLDER}", _words(queries))
        assert len(dist.probs) == len(queries)
        assert sum(dist.probs) == pytest.approx(1.0, abs=1e-9)

    def test_oov_query_gets_floor_but_not_coverage(self):
        model = CountModel.train(["a b"], Segmenter("en"), [_words(["b", "zzz"]), [("b", "zzz")]])
        dist = model.score(f"a {MASK_PLACEHOLDER}", _words(["b", "zzz"]))
        assert "zzz" not in dist.covered
        assert "b" in dist.covered
        assert dist.probs[1] > 0.0
        # in a label with a known word, the unknown word still adds its floor
        assert model.score(f"a {MASK_PLACEHOLDER}", [("b", "zzz")]).sums == [3]

    def test_shared_word_counts_in_both_sums_and_once_in_the_total(self):
        model = CountModel.train(["a b", "a c"], Segmenter("en"), [[("b", "c"), ("c", "zzz")]])
        dist = model.score(f"a {MASK_PLACEHOLDER}", [("b", "c"), ("c", "zzz")])
        # weights b 2, c 2, zzz 1: the union b, c, zzz totals 5
        assert (list(dist.sums), dist.total) == ([4, 3], 5)
        assert dist.covered == frozenset({"b", "c"})

    def test_duplicate_queries_rejected(self):
        # a label listing a word twice is refused at training, whatever follows it
        with pytest.raises(ValueError, match="query words must be distinct"):
            CountModel.train(["a b"], Segmenter("en"), [[("b", "b"), ("c",)]])
        with pytest.raises(ValueError, match="query words must be distinct"):
            CountModel.train(["a b"], Segmenter("en"), [_words(["b", "c"]), [("c",), ("b", "b")]])
        model = CountModel.train(["a b"], Segmenter("en"), [_words(["b", "c"])])
        assert model.score(f"a {MASK_PLACEHOLDER}", _words(["b", "c"])).sums == [2, 1]

    def test_determinism(self):
        _, train, _, _ = planted_splits(n_train_per_label=4)
        seg = Segmenter("en")
        queries = [f"naturew{i:02d}" for i in range(8)]
        model = CountModel.train([r.text for r in train.records], seg, [_words(queries)])
        prompt = train.records[0].text + f" {MASK_PLACEHOLDER}"
        assert model.score(prompt, _words(queries)) == model.score(prompt, _words(queries))

    def test_scaling_counts_preserves_order(self):
        # [DERIVED] expected probabilities recomputed directly from the count tables
        rng = SplitMix64(31)
        vocab = [f"t{i}" for i in range(8)]
        for _ in range(50):
            corpus = []
            for _ in range(1 + rng.randbelow(6)):
                words = [vocab[rng.randbelow(len(vocab))] for _ in range(2 + rng.randbelow(5))]
                corpus.append(" ".join(words))
            queries = vocab[:5]
            base = CountModel.train(corpus, Segmenter("en"), [_words(queries)], alpha=1.0)
            scaled = CountModel.train(corpus * 10, Segmenter("en"), [_words(queries)], alpha=1.0)
            context = corpus[0]
            prompt = context + f" {MASK_PLACEHOLDER}"

            # independent recomputation of both distributions from position pairs
            ctx_tokens = context.split()
            for model, copies in ((base, 1), (scaled, 10)):
                pairs = Counter()
                for text in corpus:
                    tokens = text.split()
                    for i in range(len(tokens)):
                        for j in range(i + 1, len(tokens)):
                            pairs[frozenset((tokens[i], tokens[j]))] += copies
                raw = []
                for q in queries:
                    raw.append(1.0 + sum(pairs[frozenset((c, q))] for c in ctx_tokens))
                expected = [value / sum(raw) for value in raw]
                dist = model.score(prompt, _words(queries))
                for p, e in zip(dist.probs, expected):
                    assert p == pytest.approx(e, abs=1e-12)

            base_masses = _masses(base, prompt, queries)
            scaled_masses = _masses(scaled, prompt, queries)
            base_order = sorted(queries, key=lambda w: (-base_masses[w], w))
            scaled_order = sorted(queries, key=lambda w: (-scaled_masses[w], w))
            assert base_order == scaled_order

    def test_monotonicity_bump_never_decreases(self):
        rng = SplitMix64(67)
        vocab = [f"m{i}" for i in range(6)]
        for _ in range(30):
            corpus = [
                " ".join(vocab[rng.randbelow(len(vocab))] for _ in range(3 + rng.randbelow(4)))
                for _ in range(3)
            ]
            target_c, target_w = "m0", "m1"
            queries = [target_w, "m2", "m3"]
            before = CountModel.train(corpus, Segmenter("en"), [_words(queries)])
            after = CountModel.train(corpus + [f"{target_c} {target_w}"], Segmenter("en"),
                                     [_words(queries)])
            prompt = f"{target_c} {MASK_PLACEHOLDER}"
            p_before = _masses(before, prompt, queries)[target_w]
            p_after = _masses(after, prompt, queries)[target_w]
            assert p_after >= p_before
