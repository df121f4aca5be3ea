"""The co-occurrence index build against the per-text ``Counter`` build it replaced.

``CoocTable._build`` scatter-adds each text's query-id hits to the row of
every id occurrence and takes each query id's self-pair excess off once,
after the last text. The reference below is the build as it stood before:
one ``Counter`` per text and one multiply-add per distinct id, with the
self-pair correction made text by text. For every corpus and group tuple
the two must give the same ``_Index``: the same rows, field width and
chunk.
"""

from __future__ import annotations

import importlib.util
import sys
from array import array
from collections import Counter
from itertools import repeat
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import CountModel, Segmenter
from mremix.cooc import _SPARE_BITS, CoocTable, _Index
from mremix.runner import descriptor
from mremix.verbalizer import MASK_PLACEHOLDER, load_external_kv

ROOT = Path(__file__).resolve().parents[1]


class CounterBuildTable:
    """The texts and bound a ``CoocTable`` keeps, and the per-text ``Counter`` build."""

    def __init__(self) -> None:
        self._texts: list[array] = []
        self._bound = 0

    def observe(self, ids) -> None:
        self._texts.append(array("q", ids))
        self._bound += len(ids) ** 2

    def build(self, groups: tuple[tuple[int, ...], ...]) -> _Index:
        bound = max(map(len, groups), default=0) * self._bound
        width = bound.bit_length() + _SPARE_BITS
        unit: dict[int, int] = {}
        for shift, group in zip(range(0, len(groups) * width, width), groups):
            for q in group:
                unit[q] = unit.get(q, 0) + (1 << shift)
        rows: dict[int, int] = {}
        for ids in self._texts:
            hits = sum(map(unit.get, ids, repeat(0)))
            if hits:
                counts = Counter(ids)
                for c, k in counts.items():
                    rows[c] = rows.get(c, 0) + k * hits
                for q in counts.keys() & unit.keys():
                    k = counts[q]
                    rows[q] -= (k * k + k) // 2 * unit[q]
        rows = {c: row for c, row in rows.items() if row}
        return _Index(groups, rows, width, ((1 << width) - 1) // max(bound, 1))


def _built_index(table: CoocTable, groups) -> _Index:
    """The index a ``context_sums`` call over ``groups`` builds and keeps."""
    table.context_sums([], groups)
    return table._index


# Small ids and ids above 256, which CPython does not cache as shared objects.
IDS = st.sampled_from([0, 1, 2, 3, 4, 5, 300, 301, 70_000])


@st.composite
def corpora(draw):
    """Label groups and their union, as ``CountModel`` joins them, and texts.

    ``twice`` and ``thrice`` are query ids; ``shared`` sits under two labels
    and so in three groups. Planted among the drawn texts: one text holding
    ``twice`` two times, one holding ``thrice`` three or more times, an
    empty text and texts with no query id.
    """
    twice, thrice, shared, other = draw(st.permutations([0, 1, 300, 301]))
    labels = [
        (shared, twice, *draw(st.lists(IDS, max_size=2, unique=True))),
        (shared, thrice),
        (other, *draw(st.lists(IDS, max_size=2, unique=True))),
    ]
    labels = [tuple(dict.fromkeys(words)) for words in labels]
    union = tuple(dict.fromkeys(q for words in labels for q in words))
    groups = (*labels, union)
    no_query = st.lists(IDS.filter(lambda i: i not in union), min_size=1, max_size=6)
    planted = [
        draw(st.permutations([twice, twice, *draw(st.lists(IDS.filter(
            lambda i: i != twice), max_size=4))])),
        draw(st.permutations([thrice] * draw(st.integers(3, 6))
                             + draw(st.lists(IDS, max_size=4)))),
        [],
        draw(no_query),
        draw(no_query),
    ]
    texts = draw(st.permutations(planted + draw(st.lists(st.lists(IDS, max_size=10),
                                                         max_size=8))))
    return groups, texts


@settings(max_examples=300, deadline=None)
@given(corpora())
def test_build_equals_the_counter_build(corpus):
    groups, texts = corpus
    table, reference = CoocTable(), CounterBuildTable()
    for ids in texts:
        table.observe(ids)
        reference.observe(ids)
    assert _built_index(table, groups) == reference.build(groups)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.lists(st.lists(IDS, max_size=10), min_size=1, max_size=4))
def test_observe_after_a_build_drops_the_index(corpus, later):
    groups, texts = corpus
    table, reference = CoocTable(), CounterBuildTable()
    for ids in texts:
        table.observe(ids)
        reference.observe(ids)
    assert _built_index(table, groups) == reference.build(groups)
    for ids in later:
        table.observe(ids)
        reference.observe(ids)
        assert table._index is None
    assert _built_index(table, groups) == reference.build(groups)


def test_build_equals_the_counter_build_on_the_benchmark_score_corpus(tmp_path, monkeypatch):
    # perfbench's score-en inputs at seed 7: 5,000 training texts and the
    # origin-KV query, at the field widths and bounds of a real run
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  ROOT / "perfbench" / "corpus.py")
    corpus_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus_module)  # its dataclasses look it up
    spec.loader.exec_module(corpus_module)
    corpus = corpus_module.Corpus(corpus_module.Sizes("en", n_train=5000, n_test=1), 7)
    texts = [record["text"] for record in corpus.split("train")]
    (tmp_path / "origin_kv.txt").write_text(corpus.origin_kv(), encoding="utf-8")
    kv = load_external_kv(tmp_path / "origin_kv.txt", descriptor("SCNM", "en").schema)
    segmenter = Segmenter("en")
    model = CountModel.train(texts, segmenter, [kv.query])
    model.score(f"{texts[0]} {MASK_PLACEHOLDER}", kv.query)
    index = model._table._index
    reference = CounterBuildTable()
    for text in texts:
        reference.observe([model._vocab[token] for token in segmenter(text)])
    assert len(index.groups) == 6 and index.width > 40 and len(index.rows) > 20_000
    assert index == reference.build(index.groups)
