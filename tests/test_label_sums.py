"""Differential tests of label-level scoring against the per-word path it replaced.

Providers now return one integer sum per label and the union's total, and
the co-occurrence table packs one field per group of query ids. The
references below are the per-word path as it stood before: a table with one
fixed-width field per query id, a count model that weighs each word of the
union, and the fold that sums those weights by label position. For every
input, the label sums, the totals, the covered words, the predicted labels
and the ``scores`` floats must be equal.
"""

from __future__ import annotations

import json
import operator
import sys
import tempfile
from array import array
from collections import Counter
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import CountModel, Segmenter, Verbalizer, predict
from mremix.cooc import CoocTable
from mremix.verbalizer import MASK_PLACEHOLDER, FileDistributionProvider

# -- the per-word references ------------------------------------------------------

_TYPECODES = {array(code).itemsize * 8: code for code in "QLIH"}


def _field_width(bound: int) -> int:
    for width in (16, 32, 64):
        if bound < 1 << width:
            return width
    raise ValueError(f"co-occurrence counts up to {bound} do not fit in 64 bits")


class _Index(NamedTuple):
    rows: dict[int, int]
    width: int
    chunk: int


def _fields(packed: int, count: int, width: int) -> list[int]:
    fields = array(_TYPECODES[width], packed.to_bytes(count * width // 8, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields.tolist()


class ReferenceCoocTable:
    """One packed field per query id: the table before label-level scoring."""

    def __init__(self) -> None:
        self._texts: list[array] = []
        self._bound = 0

    def observe(self, ids) -> None:
        self._texts.append(array("q", ids))
        self._bound += len(ids) ** 2

    def context_sums(self, context_ids, query_ids) -> list[int]:
        query_ids = tuple(query_ids)
        rows, width, chunk = self._index(query_ids)
        n = len(query_ids)
        sums = _fields(sum(map(rows.get, context_ids[:chunk], repeat(0))), n, width)
        for start in range(chunk, len(context_ids), chunk):
            total = sum(map(rows.get, context_ids[start:start + chunk], repeat(0)))
            sums = list(map(add, sums, _fields(total, n, width)))
        return sums

    def _index(self, query_ids: tuple[int, ...]) -> _Index:
        width = _field_width(self._bound)
        unit: dict[int, int] = {}
        for position, q in enumerate(query_ids):
            unit[q] = unit.get(q, 0) + (1 << position * width)
        rows: dict[int, int] = {}
        for ids in self._texts:
            hits = sum(map(unit.get, ids, repeat(0)))
            if hits:
                for c in ids:
                    rows[c] = rows.get(c, 0) + hits
        occurrences = Counter(chain.from_iterable(self._texts))
        mask = (1 << width) - 1
        for position, q in enumerate(query_ids):
            row = rows.get(q)
            if row is not None:
                shift = position * width
                field = row >> shift & mask
                row -= (field - (field - occurrences[q]) // 2) << shift
                if row:
                    rows[q] = row
                else:
                    del rows[q]
        return _Index(rows, width, mask // max(self._bound, 1))


class WordDistribution(NamedTuple):
    weights: list[int]
    total: int
    covered: frozenset[str]


def reference_model_score(model: CountModel, table: ReferenceCoocTable, prompt: str,
                          words: tuple[str, ...]) -> WordDistribution:
    """One integer weight per distinct word, the way ``CountModel.score`` gave them."""
    assert len(set(words)) == len(words)
    vocab = model._vocab
    known = [(i, vocab[w]) for i, w in enumerate(words) if w in vocab]
    context_text = prompt.replace(MASK_PLACEHOLDER, " ")
    context_ids = [vocab[token] for token in model.segmenter(context_text) if token in vocab]
    floor, scale = model.alpha.as_integer_ratio()
    weights = [floor] * len(words)
    if known and context_ids:
        sums = table.context_sums(context_ids, [wid for _, wid in known])
        for (i, _), s in zip(known, sums):
            weights[i] = floor + scale * s
    return WordDistribution(weights, sum(weights), frozenset(words[i] for i, _ in known))


def reference_file_score(provider: FileDistributionProvider, prompt: str,
                         words: tuple[str, ...]) -> WordDistribution:
    """The file's weight of each word, the way ``FileDistributionProvider.score`` gave them."""
    weights, total, covered = provider._table[prompt]
    return WordDistribution([weights.get(w, 0) for w in words], total,
                            covered.intersection(words))


def reference_predict(verbalizer: Verbalizer, score, strategy: str):
    """The label, the scores and the no-coverage flag of the per-word fold;
    ``score(words)`` answers the union of the labels' words."""
    union = (word for words in verbalizer.label_words.values() for word in words)
    position = {word: i for i, word in enumerate(dict.fromkeys(union))}
    folds = [(label, tuple(map(position.__getitem__, words)))
             for label, words in verbalizer.label_words.items()]
    words = tuple(position)
    dist = score(words)
    mean = strategy == "mean"
    at = dist.weights.__getitem__
    sums = [(label, sum(map(at, positions)), (len(positions) or 1) if mean else 1)
            for label, positions in folds]
    best_label, best_sum, best_n = sums[0]
    for label, s, n in sums:
        if s * best_n > best_sum * n:
            best_label, best_sum, best_n = label, s, n
    scores = {label: s / (dist.total * n) for label, s, n in sums}
    no_coverage = best_sum == 0 or dist.covered.isdisjoint(words)
    label_sums = [s for _, s, _ in sums]
    return best_label, scores, no_coverage, label_sums, dist.total, dist.covered


# -- the table --------------------------------------------------------------------

IDS = st.integers(min_value=0, max_value=9)


@st.composite
def table_cases(draw):
    """Texts (each a drawn id list repeated up to 40 times, so long texts push the
    old fields to 32 bits and chunk its contexts), groups that overlap and may
    repeat an id, and contexts, some empty."""
    times = draw(st.integers(min_value=1, max_value=40))
    texts = draw(st.lists(st.builds(operator.mul, st.lists(IDS, max_size=8), st.just(times)),
                          max_size=8))
    groups = draw(st.lists(st.lists(IDS, max_size=5), max_size=6))
    contexts = draw(st.lists(st.builds(operator.mul, st.lists(IDS, max_size=8),
                                       st.integers(min_value=1, max_value=40)), max_size=4))
    return texts, groups, contexts


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_group_sums_equal_the_summed_per_word_sums(case):
    texts, groups, contexts = case
    table, reference = CoocTable(), ReferenceCoocTable()
    for ids in texts:
        table.observe(ids)
        reference.observe(ids)
    for context in contexts:
        expected = [sum(reference.context_sums(context, group)) for group in groups]
        assert table.context_sums(context, groups) == expected


# -- the providers through predict ------------------------------------------------

_CORPUS = [f"w{i}" for i in range(8)]
_QUERY = _CORPUS + ["oov1", "oov2", "oov3"]


@st.composite
def verbalizers(draw):
    """Labels whose word lists overlap and hold words outside the corpus."""
    label_words = {
        f"L{i}": tuple(draw(st.lists(st.sampled_from(_QUERY), min_size=1, max_size=6,
                                     unique=True)))
        for i in range(draw(st.integers(1, 5)))
    }
    return Verbalizer(label_words=label_words, k=6)


@settings(max_examples=300, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_CORPUS), min_size=1, max_size=7),
                    min_size=1, max_size=8),
    times=st.sampled_from([1, 1, 1, 30]),
    contexts=st.lists(st.lists(st.sampled_from(_CORPUS + ["oov1", "zzz"]), max_size=6),
                      min_size=1, max_size=3),
    kv=verbalizers(),
    strategy=st.sampled_from(["sum", "mean"]),
    alpha=st.sampled_from([1.0, 2, 3, 0.3, 0.1, 2.5]),
)
def test_count_model_equals_the_per_word_oracle(corpus, times, contexts, kv, strategy, alpha):
    texts = [" ".join(words * times) for words in corpus]
    model = CountModel.train(texts, Segmenter("en"), alpha=alpha)
    table = ReferenceCoocTable()
    for text in texts:
        table.observe([model._vocab[token] for token in text.split()])
    for context in contexts:
        prompt = " ".join(context) + f" {MASK_PLACEHOLDER}"
        label, scores, no_coverage, sums, total, covered = reference_predict(
            kv, lambda words: reference_model_score(model, table, prompt, words), strategy)
        dist = model.score(prompt, tuple(kv.label_words.values()))
        assert (list(dist.sums), dist.total, dist.covered) == (sums, total, covered)
        result = predict(prompt, kv, model, strategy=strategy)
        assert (result.label, result.no_coverage) == (label, no_coverage)
        assert json.dumps(result.scores) == json.dumps(scores)


_PROBS = st.one_of(st.floats(min_value=0.0, max_value=1e300), st.just(0.0), st.just(0.125),
                   st.integers(0, 2**80))


@settings(max_examples=300, deadline=None)
@given(
    probs=st.dictionaries(st.sampled_from(_QUERY), _PROBS, max_size=8),
    covered=st.one_of(st.none(), st.lists(st.sampled_from(_QUERY + ["other"]), max_size=5)),
    kv=verbalizers(),
    strategy=st.sampled_from(["sum", "mean"]),
)
def test_file_provider_equals_the_per_word_oracle(probs, covered, kv, strategy):
    prompt = f"t {MASK_PLACEHOLDER}"
    row = {"prompt": prompt, "probs": probs}
    if covered is not None:
        row["covered"] = covered
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probs.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        provider = FileDistributionProvider(path)
    label, scores, no_coverage, sums, total, covered_words = reference_predict(
        kv, lambda words: reference_file_score(provider, prompt, words), strategy)
    dist = provider.score(prompt, tuple(kv.label_words.values()))
    assert (list(dist.sums), dist.total, dist.covered) == (sums, total, covered_words)
    result = predict(prompt, kv, provider, strategy=strategy)
    assert (result.label, result.no_coverage) == (label, no_coverage)
    assert json.dumps(result.scores) == json.dumps(scores)
