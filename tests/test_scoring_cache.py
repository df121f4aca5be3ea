"""The scoring caches against uncached references.

The co-occurrence table answers ``context_sums`` from one index for the last
group tuple; the count model is built for its queries, plans each at
training, joins their groups into one tuple, so the table builds that index
once, and keeps the last prompt's sums; and the segmenter builds its lexicon
set once. Each must give exactly what the uncached computation gives,
through new texts and alternating queries, down to the bytes ``run_kv``
writes, and a draw record's prompt is segmented and summed once for both
verbalizers.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import (
    CountModel,
    DatasetDescriptor,
    LabelEntityPair,
    MreRecord,
    Segmenter,
    build_from_wli,
    refmlm,
    runner,
    save_kv,
    save_split,
    shuffle_words,
)
from mremix.cli import main
from mremix.cooc import CoocTable
from mremix.ingest import Split
from mremix.rng import SplitMix64
from mremix.runner import ExperimentConfig, run_kv
from mremix.verbalizer import MASK_PLACEHOLDER

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

    def context_sums(self, context_ids, groups):
        return [sum(self.pair_count(c, q) for c in context_ids for q in group)
                for group in groups]


@st.composite
def table_scripts(draw, repeats=st.just(1)):
    """Group tuples (reused; groups overlap and may repeat an id) and a script of
    observed texts and queries.

    Each observed text and each context is a drawn id list repeated ``repeats`` times.
    """
    query_sets = draw(st.lists(st.lists(st.lists(IDS, max_size=4), max_size=4),
                               min_size=1, max_size=6))
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
    # texts of up to 320 ids push the bound B past 2**16, and each query id
    # is counted against contexts of up to 320 ids
    _replay(script)


def test_field_width_is_the_group_bound_plus_16_bits():
    table = CoocTable()
    table.observe([1] * 256)  # B = 256**2 = 2**16
    for groups, width in ((((1,),), 33), (((1,), (1, 2, 3)), 34), ((), 16)):
        table.context_sums([1], groups)  # 1 * B has 17 bits; 3 * B has 18
        assert table._index.width == width


def test_context_sums_chunks_contexts_so_no_field_carries():
    text = [0] * 90 + [1] * 10  # B = 100**2: 30-bit fields for one-id groups
    table = CoocTable()
    table.observe(text)
    groups = ((0,), (1,), (2,))
    # pair counts (0,0) 4,005, (0,1) 900, (1,1) 45; group 0 sums to
    # 1,201,504,500 here, past 2**30, so one sum of all the rows would carry
    context = [0] * 300_000 + [1] * 5 + [2]
    assert table.context_sums(context, groups) == [
        300_000 * 4005 + 5 * 900, 300_000 * 900 + 5 * 45, 0]
    index = table._index
    assert (index.width, index.chunk) == (30, (2**30 - 1) // 10_000)
    reference = NaiveCoocTable()
    reference.observe(text)
    assert table.context_sums(context[-300:], groups) == reference.context_sums(
        context[-300:], groups)


def test_context_sums_self_pair_and_repeats():
    table = CoocTable()
    table.observe([1, 1, 2])  # pairs (1,1)=1, (1,2)=2
    groups = ([1], [2], [1, 2], [1, 1])
    assert table.context_sums([1, 1, 2], groups) == [4, 4, 8, 8]
    table.observe([1, 1, 1])  # (1,1) += 3; drops the index built above
    assert table.context_sums([1, 1, 2], groups) == [10, 4, 14, 20]


def test_index_rows_hold_only_nonzero_query_pairs():
    texts = [
        [5, 7, 5, 1],  # query id 5 twice: a self-pair and k = 2 against 7 and 1
        [7, 2, 2],     # context id 7 is also a query id
        [1, 2, 3],     # no query id: contributes to no row
        [9],           # 9's only pair would be a self-pair with k = 1
        [7, 7, 4],
    ]
    groups = ((5, 7), (5,), (9,), (7, 7))  # 5 in two groups, 7 twice in one
    table, reference = CoocTable(), NaiveCoocTable()
    for ids in texts:
        table.observe(ids)
        reference.observe(ids)
    universe = range(11)
    for c in universe:
        assert table.context_sums([c], groups) == reference.context_sums([c], groups)
    context = [7, 1, 7, 9, 10]
    assert table.context_sums(context, groups) == reference.context_sums(context, groups)
    rows = table._index.rows
    assert 9 not in rows and 3 not in rows
    assert 0 not in rows.values()
    nonzero = sum(1 for c in universe for s in reference.context_sums([c], groups) if s)
    assert table.num_pairs() == nonzero == 13


_CORPUS_WORDS = [f"w{i}" for i in range(8)]


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=6),
                    min_size=1, max_size=8),
    queries=st.lists(st.lists(st.lists(st.sampled_from(_CORPUS_WORDS + ["oov1", "oov2"]),
                                       min_size=1, max_size=4, unique=True).map(tuple),
                              max_size=4),
                     min_size=2, max_size=6),
    contexts=st.lists(st.lists(st.sampled_from(_CORPUS_WORDS + ["oov3"]), max_size=6),
                      min_size=1, max_size=4),
)
def test_alternating_word_lists_match_a_fresh_model(corpus, queries, contexts):
    # one model built for every query, driven prompt-major (each prompt with
    # every query in turn: the last prompt's sums are reused) and then
    # query-major (each query over every prompt); each query goes in as the
    # tuple it was trained with (found by identity) and as fresh lists (by
    # value), and must score as a model trained with that query alone
    texts = [" ".join(words) for words in corpus]
    prompts = [" ".join(context) + f" {MASK_PLACEHOLDER}" for context in contexts]
    fresh = {(prompt, i): CountModel.train(texts, Segmenter("en"), [query]).score(prompt, query)
             for prompt in prompts for i, query in enumerate(queries)}
    reused = [tuple(query) for query in queries]
    model = CountModel.train(texts, Segmenter("en"), reused)
    order = ([(prompt, i) for prompt in prompts for i in range(len(queries))]
             + [(prompt, i) for i in range(len(queries)) for prompt in prompts])
    for prompt, i in order:
        for query in (reused[i], [list(words) for words in queries[i]]):
            got = model.score(prompt, query)
            assert got == fresh[prompt, i]
            assert list(got.probs) == list(fresh[prompt, i].probs)
            assert list(got.sums) == list(fresh[prompt, i].sums) and len(got.sums) == len(query)


def _count_builds(monkeypatch) -> Counter:
    """Count ``CoocTable._build`` calls from here on, under the key "builds"."""
    calls: Counter = Counter()
    build = CoocTable._build

    def counted(table, groups):
        calls["builds"] += 1
        return build(table, groups)

    monkeypatch.setattr(CoocTable, "_build", counted)
    return calls


@pytest.mark.parametrize("n_queries", [6, 9])
def test_bound_queries_share_one_joint_tuple_and_one_index_build(monkeypatch, n_queries):
    calls = _count_builds(monkeypatch)
    queries = [(("a",), (word,)) for word in "bcdefghij"[:n_queries]]
    model = CountModel.train(["a b c d e f g h i j", "b c d", "a e f"], Segmenter("en"), queries)
    # each query's three groups (two labels, then their union) follow the last query's
    vocab = model._vocab
    assert model._groups == tuple(chain.from_iterable(
        ((vocab["a"],), (vocab[word],), (vocab["a"], vocab[word])) for (_, (word,)) in queries))
    assert [model._plans[query].start for query in queries] == list(range(0, 3 * n_queries, 3))
    prompts = [f"a b {MASK_PLACEHOLDER}", f"c d {MASK_PLACEHOLDER}"]
    for prompt in prompts:
        for query in queries:
            model.score(prompt, query)
            model.score(prompt, [list(words) for words in query])
    # the table keeps the one index of the joint tuple, built at the first prompt
    assert calls["builds"] == 1 and model._table._index.groups is model._groups
    with pytest.raises(ValueError, match="not trained with this query"):
        model.score(prompts[0], (("a",), ("k",)))
    with pytest.raises(ValueError, match="not trained with this query"):
        model.score(prompts[0], [("a",)])


def test_segmenter_builds_lexicon_set_only_for_lexicon_languages():
    assert Segmenter("en", ["東京"]).lexicon == frozenset()
    ja = Segmenter("ja", ["東京", "東京都"])
    assert ja.lexicon == frozenset({"東京", "東京都"}) and ja._max_len == 3
    assert ja == Segmenter("ja", ["東京", "東京都"])
    assert ja("東京都と東京") == ["東京都", "と", "東京"]


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


def test_run_kv_segments_and_sums_each_draw_record_once(tmp_path, monkeypatch):
    desc, train, test = _splits("en")
    save_split(tmp_path / "train.jsonl", train)
    save_split(tmp_path / "test.jsonl", test)
    save_kv(shuffle_words(build_from_wli(train, desc, k=10), seed=99), tmp_path / "origin.txt")
    repeats, n = 3, 20
    config = ExperimentConfig(
        family="SCNM", language="en", seed=3, few_shot_k=5, test_sample_size=n,
        test_repeats=repeats, kv_words_per_label=10, train_path=str(tmp_path / "train.jsonl"),
        test_path=str(tmp_path / "test.jsonl"), external_kv_path=str(tmp_path / "origin.txt"),
    )
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[owner.__name__ + "." + name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((CoocTable, "context_sums"), (CoocTable, "_build"),
                        (Segmenter, "__call__"), (CountModel, "score"), (runner, "predict")):
        counted(owner, name)
    report = run_kv(config)
    trained = report.metadata["provider"]["training_texts"]
    # both verbalizers predict for every draw record, and each call scores once
    assert calls["mremix.runner.predict"] == calls["CountModel.score"] == 2 * repeats * n
    # a record's prompt is segmented and summed once for both, over one index
    # built for both
    assert calls["CoocTable.context_sums"] == repeats * n
    assert calls["Segmenter.__call__"] == trained + repeats * n
    assert calls["CoocTable._build"] == 1


@pytest.mark.parametrize("language", ["en", "zh"])
def test_score_bytes_equal_with_naive_context_sums(tmp_path, monkeypatch, language):
    # score trains on the whole train split, so its index covers every training text
    desc, train, test = _splits(language)
    save_split(tmp_path / "train.jsonl", train)
    save_split(tmp_path / "test.jsonl", test)
    save_kv(build_from_wli(train, desc, k=10), tmp_path / "kv.txt")
    calls = _count_builds(monkeypatch)
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
    assert calls["builds"] == 1  # the indexed score command built its index once
