"""The scoring caches against uncached references.

The co-occurrence table answers ``context_sums`` from a per-query-set index, the
count model plans each word list once, the segmenter builds its lexicon set
once and the verbalizer its word union once. Each must give exactly what
the uncached computation gives, through new texts and alternating
word lists, down to the bytes ``run_kv`` writes.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import (
    CountModel,
    DatasetDescriptor,
    LabelEntityPair,
    MreRecord,
    build_from_wli,
    cooc,
    make_segmenter,
    refmlm,
    save_kv,
    save_split,
    shuffle_words,
)
from mremix.cli import main
from mremix.cooc import CoocTable
from mremix.errors import DataError
from mremix.ingest import Split
from mremix.rng import SplitMix64
from mremix.runner import ExperimentConfig, run_kv
from mremix.verbalizer import MASK_PLACEHOLDER, Verbalizer

from synth import planted_splits

IDS = st.integers(min_value=0, max_value=9)


class NaiveCoocTable:
    """The reference table: a full pair dict and one lookup per (context, query) pair."""

    def __init__(self):
        self.pairs: dict[tuple[int, int], int] = {}

    def observe(self, ids):
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                key = (ids[i], ids[j]) if ids[i] <= ids[j] else (ids[j], ids[i])
                self.pairs[key] = self.pairs.get(key, 0) + 1

    def pair_count(self, a, b):
        return self.pairs.get((a, b) if a <= b else (b, a), 0)

    def context_sums(self, context_ids, query_ids):
        return [sum(self.pair_count(c, q) for c in context_ids) for q in query_ids]


@st.composite
def table_scripts(draw, repeats=st.just(1)):
    """Query-id lists (reused, with repeats) and a script of observed texts and queries.

    Each observed text and each context is a drawn id list repeated ``repeats`` times.
    """
    query_sets = draw(st.lists(st.lists(IDS, max_size=6), min_size=1, max_size=6))
    ids = st.builds(operator.mul, st.lists(IDS, max_size=8), repeats)
    step = st.one_of(
        st.tuples(st.just("observe"), ids),
        st.tuples(st.just("query"), ids,
                  st.integers(min_value=0, max_value=len(query_sets) - 1)),
    )
    return query_sets, draw(st.lists(step, max_size=40))


def _replay(script):
    """Run a table script on the table and the reference; every query must agree."""
    query_sets, steps = script
    table, reference = CoocTable(), NaiveCoocTable()
    for step in steps:
        if step[0] == "observe":
            table.observe(step[1])
            reference.observe(step[1])
        else:
            _, context, which = step
            queries = query_sets[which]
            assert table.context_sums(context, queries) == reference.context_sums(context, queries)


@settings(max_examples=300, deadline=None)
@given(table_scripts())
def test_context_sums_equals_pair_dict_reference(script):
    _replay(script)


@settings(max_examples=100, deadline=None)
@given(table_scripts(repeats=st.integers(min_value=1, max_value=40)))
def test_long_texts_and_contexts_equal_pair_dict_reference(script):
    # texts of up to 320 ids push the bound past 2**16 (32-bit fields), and
    # contexts of up to 320 ids span several chunks while fields are 16 bits
    _replay(script)


def test_field_width_is_the_narrowest_above_the_bound():
    bounds = (0, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1)
    assert [cooc._field_width(b) for b in bounds] == [16, 16, 32, 32, 64, 64]
    with pytest.raises(DataError, match="64 bits"):
        cooc._field_width(2**64)
    table = CoocTable()
    table.observe([1] * 256)  # bound 256**2 = 2**16
    table.context_sums([1], [1])
    assert table._indexes[(1,)].width == 32


def test_context_sums_chunks_contexts_so_no_field_carries():
    table, reference = CoocTable(), NaiveCoocTable()
    text = [0] * 90 + [1] * 10  # bound 100**2: 16-bit fields, chunks of 6 ids
    table.observe(text)
    reference.observe(text)
    query = (0, 1, 2)
    context = [0] * 20 + [1] * 5 + [2]  # query 0 sums to 84,600, past 2**16
    assert table.context_sums(context, query) == reference.context_sums(context, query)
    assert table.context_sums(context, query) == [84600, 18225, 0]
    index = table._indexes[query]
    assert (index.width, index.chunk) == (16, 6)


def test_context_sums_self_pair_and_repeats():
    table = CoocTable()
    table.observe([1, 1, 2])  # pairs (1,1)=1, (1,2)=2
    assert table.context_sums([1, 1, 2], [1, 2, 1]) == [4, 4, 4]
    table.observe([1, 1, 1])  # (1,1) += 3; drops the index built above
    assert table.context_sums([1, 1, 2], [1, 2, 1]) == [10, 4, 10]


def test_index_rows_hold_only_nonzero_query_pairs():
    texts = [
        [5, 7, 5, 1],  # query id 5 twice: a self-pair and k = 2 against 7 and 1
        [7, 2, 2],     # context id 7 is also a query id
        [1, 2, 3],     # no query id: contributes to no row
        [9],           # 9's only pair would be a self-pair with k = 1
        [7, 7, 4],
    ]
    query = (5, 7, 5, 9)  # repeats 5
    table, reference = CoocTable(), NaiveCoocTable()
    for ids in texts:
        table.observe(ids)
        reference.observe(ids)
    universe = range(11)
    for c in universe:
        assert table.context_sums([c], query) == reference.context_sums([c], query)
    assert table.context_sums([7, 1, 7, 9, 10], query) == reference.context_sums([7, 1, 7, 9, 10], query)
    rows = table._indexes[query].rows
    assert 9 not in rows and 3 not in rows
    assert 0 not in rows.values()
    nonzero = sum(1 for c in universe for q in query if reference.pair_count(c, q))
    assert table.num_pairs() == nonzero == 11


_CORPUS_WORDS = [f"w{i}" for i in range(8)]


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=6),
                    min_size=1, max_size=8),
    lists=st.lists(st.lists(st.sampled_from(_CORPUS_WORDS + ["oov1", "oov2"]), max_size=7,
                            unique=True),
                   min_size=2, max_size=2),
    contexts=st.lists(st.lists(st.sampled_from(_CORPUS_WORDS + ["oov3"]), max_size=6),
                      min_size=1, max_size=4),
)
def test_alternating_word_lists_match_a_fresh_model(corpus, lists, contexts):
    texts = [" ".join(words) for words in corpus]
    model = CountModel.train(texts, make_segmenter("en"))
    for context in contexts:
        prompt = " ".join(context) + f" {MASK_PLACEHOLDER}"
        for words in lists:
            fresh = CountModel.train(texts, make_segmenter("en")).score(prompt, words)
            got = model.score(prompt, list(words))
            assert got == fresh
            assert list(got.probs) == list(fresh.probs) and len(got.probs) == len(words)
            assert list(got.weights) == list(fresh.weights)


def test_segmenter_builds_lexicon_set_only_for_lexicon_languages():
    assert make_segmenter("en", ["東京"])._lexicon_set == frozenset()
    ja = make_segmenter("ja", ["東京", "東京都"])
    assert ja._lexicon_set == frozenset({"東京", "東京都"}) and ja._max_len == 3
    assert ja == make_segmenter("ja", ["東京", "東京都"])
    assert ja("東京都と東京") == ["東京都", "と", "東京"]


def test_all_words_returns_a_fresh_list():
    kv = Verbalizer({"a": ("x", "y"), "b": ("y", "z")}, k=2)
    words = kv.all_words()
    words.append("mutated")
    assert kv.all_words() == ["x", "y", "z"]


def _zh_splits():
    """Planted SCNM/zh splits: per-label two-character entities in unspaced text."""
    desc = DatasetDescriptor.builtin("SCNM", "zh")
    chars = [chr(0x4E00 + i) for i in range(200)]
    pools = {label: [chars[2 * (12 * n + j)] + chars[2 * (12 * n + j) + 1] for j in range(12)]
             for n, label in enumerate(desc.schema.text_labels)}
    fillers = chars[150:]
    rng = SplitMix64(5)

    def split(role: str, per_label: int) -> Split:
        records = []
        for label in desc.schema.text_labels:
            for i in range(per_label):
                words = rng.sample(pools[label], 5 + rng.randbelow(4))
                text = "".join(w + fillers[rng.randbelow(len(fillers))] for w in words)
                pairs = tuple(LabelEntityPair("people", w) for w in words)
                records.append(MreRecord(f"{role}-{label}-{i}", text, label, pairs))
        return Split(records=tuple(records), role=role)

    return desc, split("train", 10), split("test", 8)


def _splits(language: str):
    """(desc, train, test) of a planted SCNM split in ``language``."""
    if language == "en":
        return planted_splits(n_train_per_label=10, n_test_per_label=8)[:3]
    return _zh_splits()


@pytest.mark.parametrize("language", ["en", "zh"])
def test_run_kv_bytes_equal_with_naive_context_sums(tmp_path, monkeypatch, language):
    desc, train, test = _splits(language)
    save_split(tmp_path / "train.jsonl", train)
    save_split(tmp_path / "test.jsonl", test)
    save_kv(shuffle_words(build_from_wli(train, desc, k=10), seed=99), tmp_path / "origin.txt")
    config = ExperimentConfig(
        family="SCNM", language=language, seed=3, few_shot_k=5, test_sample_size=20,
        test_repeats=2, kv_words_per_label=10, train_path=str(tmp_path / "train.jsonl"),
        test_path=str(tmp_path / "test.jsonl"), external_kv_path=str(tmp_path / "origin.txt"),
    )
    trees = {}
    for name, table in (("indexed", CoocTable), ("naive", NaiveCoocTable)):
        monkeypatch.setattr(refmlm, "CoocTable", table)
        out = tmp_path / name
        run_kv(config, out_dir=out)
        trees[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(trees["indexed"]) == 10
    assert trees["indexed"] == trees["naive"]


@pytest.mark.parametrize("language", ["en", "zh"])
def test_score_bytes_equal_with_naive_context_sums(tmp_path, monkeypatch, language):
    # score trains on the whole train split, so its index covers every training text
    desc, train, test = _splits(language)
    save_split(tmp_path / "train.jsonl", train)
    save_split(tmp_path / "test.jsonl", test)
    save_kv(build_from_wli(train, desc, k=10), tmp_path / "kv.txt")
    trees = {}
    for name, table in (("indexed", CoocTable), ("naive", NaiveCoocTable)):
        monkeypatch.setattr(refmlm, "CoocTable", table)
        out = tmp_path / name
        code = main(["score", "--family", "SCNM", "--language", language,
                     "--kv", str(tmp_path / "kv.txt"), "--input", str(tmp_path / "test.jsonl"),
                     "--train", str(tmp_path / "train.jsonl"), "--out", str(out / "preds.jsonl")])
        assert code == 0
        trees[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(trees["indexed"]) == ["preds.jsonl", "preds.jsonl.config.json"]
    assert trees["indexed"] == trees["naive"]
