from __future__ import annotations

from itertools import product

import pytest

from mremix import (
    FormatTag,
    LabelEntityPair,
    build_example,
    evaluate_run,
    pair_f1,
    pair_f1_micro,
    text_f1,
    text_macro_f1,
)
from mremix.errors import DataError
from mremix.evaluation import (
    DrawScore,
    EvalReport,
    KvComparisonReport,
    KvRow,
    Prf,
    ablation_table,
    mean_std,
    report_from_dict,
    report_markdown,
    report_tsv,
)
from mremix.formats import FormattedExample
from mremix.parsing import GenerationRow
from mremix.rng import SplitMix64

from synth import planted_splits


def P(label, entity):
    return LabelEntityPair(label, entity)


def oracle_match_count(gold, pred):
    """Greedy counting oracle: each prediction consumes at most one gold copy."""
    remaining = list(gold)
    matched = 0
    for p in pred:
        for i, g in enumerate(remaining):
            if g == p:
                matched += 1
                del remaining[i]
                break
    return matched


def oracle_prf(gold, pred):
    if not gold and not pred:
        return (1.0, 1.0, 1.0)
    m = oracle_match_count(gold, pred)
    precision = m / len(pred) if pred else 0.0
    recall = m / len(gold) if gold else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


class TestPairF1:
    def test_half_overlap(self):
        gold = [P("person", "Tanaka"), P("place", "Tokyo")]
        pred = [P("person", "Tanaka"), P("product", "X")]
        score = pair_f1(gold, pred)
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_identity(self):
        gold = [P("a", "x"), P("b", "y")]
        assert pair_f1(gold, gold).f1 == 1.0

    def test_both_empty_convention(self):
        score = pair_f1([], [])
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_pred_nonempty_gold(self):
        score = pair_f1([P("a", "x")], [])
        assert score.precision == 0.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_duplicate_pred_consumes_one_gold_copy(self):
        gold = [P("a", "x")]
        pred = [P("a", "x"), P("a", "x")]
        score = pair_f1(gold, pred)
        assert score.precision == 0.5
        assert score.recall == 1.0

    def test_duplicate_gold_requires_duplicate_pred(self):
        gold = [P("a", "x"), P("a", "x")]
        pred = [P("a", "x")]
        score = pair_f1(gold, pred)
        assert score.precision == 1.0
        assert score.recall == 0.5

    def test_permutation_invariance(self):
        rng = SplitMix64(55)
        universe = [P(f"l{i}", f"e{j}") for i in range(3) for j in range(3)]
        for _ in range(200):
            gold = [universe[rng.randbelow(len(universe))] for _ in range(rng.randbelow(5))]
            pred = [universe[rng.randbelow(len(universe))] for _ in range(rng.randbelow(5))]
            base = pair_f1(gold, pred)
            gold2, pred2 = list(gold), list(pred)
            rng.shuffle(gold2)
            rng.shuffle(pred2)
            assert pair_f1(gold2, pred2) == base

    def test_label_case_folding_for_en_only(self):
        gold = [P("Person", "Tanaka")]
        pred = [P("person", "Tanaka")]
        assert pair_f1(gold, pred).f1 == 0.0
        assert pair_f1(gold, pred, fold_label_case=True).f1 == 1.0
        # entity case is never folded
        assert pair_f1([P("a", "X")], [P("a", "x")], fold_label_case=True).f1 == 0.0

    def test_matches_counting_oracle_exhaustive_small(self):
        universe = [P(l, e) for l in ("a", "b") for e in ("x", "y")]
        sides = []
        for size in range(3):
            sides.extend(list(combo) for combo in product(universe, repeat=size))
        for gold in sides:
            for pred in sides:
                score = pair_f1(gold, pred)
                assert (score.precision, score.recall, score.f1) == oracle_prf(gold, pred)


class TestTextF1:
    def test_three_of_four(self):
        score = text_f1(["a", "b", "c", "d"], ["a", "b", "c", "x"])
        assert score.f1 == 0.75

    def test_all_unparseable_scores_zero(self):
        assert text_f1(["a", "b"], [None, None]).f1 == 0.0

    def test_all_correct(self):
        assert text_f1(["a", "b"], ["a", "b"]).f1 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="differ"):
            text_f1(["a"], ["a", "b"])

    def test_macro_weights_labels_equally(self):
        gold = ["a", "a", "a", "b"]
        pred = ["a", "a", "b", "b"]
        # label a: P=1, R=2/3, F1=0.8; label b: P=0.5, R=1, F1=2/3
        score = text_macro_f1(gold, pred)
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx((2 / 3 + 1) / 2)
        assert score.f1 == pytest.approx((0.8 + 2 / 3) / 2)
        assert text_f1(gold, pred).f1 == 0.75  # micro differs on the same case

    def test_macro_counts_spurious_predicted_labels(self):
        score = text_macro_f1(["a", "a"], ["a", "c"])
        # labels a and c both contribute; c has P=0 (one false positive)
        assert score.f1 == pytest.approx((2 / 3 + 0.0) / 2)


class TestLeftToRightMeans:
    """Means add left to right, so they round alike on every Python version
    (``sum()`` of floats compensates since Python 3.12)."""

    def test_mean_std_adds_left_to_right(self):
        assert mean_std([1e16, 1.0, -1e16])["mean"] == 0.0
        assert mean_std([0.1, 0.2, 0.3])["mean"] == (0.1 + 0.2 + 0.3) / 3 == 0.20000000000000004

    def test_macro_f1_adds_left_to_right(self):
        # per-label precision a 1/2, b 0, c 2/3, d 0, e 1/3
        score = text_macro_f1(list("bacdaceabe"), list("eccbecdaae"))
        assert score.precision == (0.5 + 0.0 + 2 / 3 + 0.0 + 1 / 3) / 5 == 0.29999999999999993


class TestMicro:
    def test_micro_pools_counts(self):
        gold_lists = [[P("a", "x")], [P("a", "y"), P("b", "z")]]
        pred_lists = [[P("a", "x")], []]
        score = pair_f1_micro(gold_lists, pred_lists)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(1 / 3)

    def test_all_empty_is_perfect(self):
        assert pair_f1_micro([[], []], [[], []]).f1 == 1.0


def _draws_and_generations(desc, tag, n_records=6, mangle=None):
    _, train, _, _ = planted_splits(n_train_per_label=3, n_test_per_label=1)
    records = train.records[:n_records]
    examples = [build_example(record, tag, desc) for record in records]
    generations = [
        GenerationRow(record_id=e.record_id, output=mangle(e.target) if mangle else e.target)
        for e in examples
    ]
    return [examples], [generations]


class TestEvaluateRun:
    def test_perfect_generations_score_one(self, scnm_en):
        for tag in (FormatTag.TRAD_WORD, FormatTag.WITH_WLI_TO_TLI, FormatTag.JOINT_MRE):
            draws, gens = _draws_and_generations(scnm_en, tag)
            report = evaluate_run(draws, gens, scnm_en, tag)
            summary = report.summary()
            if tag is FormatTag.TRAD_WORD:
                assert summary["word"]["f1"]["mean"] == 1.0
                assert summary["text"] is None
            elif tag is FormatTag.WITH_WLI_TO_TLI:
                assert summary["text"]["f1"]["mean"] == 1.0
                assert summary["word"] is None
            else:
                assert summary["word"]["f1"]["mean"] == 1.0
                assert summary["text"]["f1"]["mean"] == 1.0
            assert report.parse_totals()["CLEAN"] == len(draws[0])

    def test_tag_routing_uses_text_branch(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.WITH_WLI_TO_TLI)
        report = evaluate_run(draws, gens, scnm_en, FormatTag.WITH_WLI_TO_TLI)
        assert report.draws[0].text is not None
        assert report.draws[0].word is None

    def test_mean_is_arithmetic_mean(self, scnm_en):
        # three draws with known per-draw accuracies 1.0, 0.5, 0.0
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT, n_records=2)
        examples = draws[0]
        perfect = gens[0]
        half = [
            GenerationRow(None, examples[0].target),
            GenerationRow(None, "definitely wrong"),
        ]
        wrong = [GenerationRow(None, "nope"), GenerationRow(None, "nope")]
        report = evaluate_run(
            [examples, examples, examples],
            [perfect, half, wrong],
            scnm_en,
            FormatTag.TRAD_TEXT,
        )
        per_draw = [d.text.f1 for d in report.draws]
        assert per_draw == [1.0, 0.5, 0.0]
        summary = report.summary()
        assert abs(summary["text"]["f1"]["mean"] - sum(per_draw) / 3) <= 1e-12

    def test_unparseable_counts_and_zero_credit(self, scnm_en):
        draws, gens = _draws_and_generations(
            scnm_en, FormatTag.TRAD_WORD, mangle=lambda t: "garbage with no colon"
        )
        report = evaluate_run(draws, gens, scnm_en, FormatTag.TRAD_WORD)
        totals = report.parse_totals()
        assert totals["UNPARSEABLE"] == len(draws[0])
        assert report.draws[0].word.recall == 0.0

    def test_draw_count_mismatch(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
        with pytest.raises(DataError, match="generation files"):
            evaluate_run(draws, [], scnm_en, FormatTag.TRAD_TEXT)

    def test_nothing_to_evaluate_is_an_error(self, scnm_en):
        with pytest.raises(DataError, match="no draws to evaluate"):
            evaluate_run([], [], scnm_en, FormatTag.TRAD_TEXT)
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
        with pytest.raises(DataError, match="^draw 1: no examples$"):
            evaluate_run([draws[0], []], [gens[0], []], scnm_en, FormatTag.TRAD_TEXT)

    def test_generation_count_mismatch_names_draw(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
        with pytest.raises(DataError, match="draw 0"):
            evaluate_run(draws, [gens[0][:-1]], scnm_en, FormatTag.TRAD_TEXT)

    def test_record_id_mismatch_is_hard_error(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
        bad = [GenerationRow("wrong-id", row.output) for row in gens[0]]
        with pytest.raises(DataError, match="wrong-id"):
            evaluate_run(draws, [bad], scnm_en, FormatTag.TRAD_TEXT)

    def test_metadata_carries_matching_policy(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
        report = evaluate_run(draws, gens, scnm_en, FormatTag.TRAD_TEXT)
        policy = report.metadata["matching_policy"]
        assert "multiset" in policy["pair_match"]
        assert "independent" in policy["draws"]

    def test_draw_row_of_another_format_is_hard_error(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_WORD)
        record_id = draws[0][0].record_id
        with pytest.raises(DataError) as caught:
            evaluate_run(draws, gens, scnm_en, FormatTag.WO_TLI_TO_WLI)
        assert str(caught.value) == (
            f"draw 0: record {record_id!r}: the draw row is of format TRAD_WORD, "
            "not WO_TLI_TO_WLI"
        )

    def test_joint_gold_without_separator_is_not_canonical(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.JOINT_MRE)
        first = draws[0][0]
        draws[0][0] = FormattedExample(first.input, "Society", first.tag, first.record_id)
        with pytest.raises(DataError, match=rf"^draw 0: record {first.record_id!r}: gold "
                                            "target is not canonical"):
            evaluate_run(draws, gens, scnm_en, FormatTag.JOINT_MRE)

    def test_unknown_text_metric_is_data_error(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
        with pytest.raises(DataError, match="text_metric must be one of"):
            evaluate_run(draws, gens, scnm_en, FormatTag.TRAD_TEXT, text_metric="weighted")

    def test_report_roundtrips_through_json(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.JOINT_MRE)
        report = evaluate_run(draws, gens, scnm_en, FormatTag.JOINT_MRE)
        rebuilt = report_from_dict(report.to_dict())
        assert rebuilt == report


@pytest.mark.parametrize("edit, message", [
    (lambda r: r.update(metadata="ab"), "'metadata' must be an object, got 'ab'"),
    (lambda r: r.update(draws=[1]), "draws[0] must be an object, got 1"),
    (lambda r: r["draws"][0]["text"].update(x=0.5),
     "'text' must be null or an object with the keys ('precision', 'recall', 'f1'), got "),
    (lambda r: r.pop("tag"), "missing field 'tag'"),
    (lambda r: r.update(tag="JOINT"), "'tag' must be one of ("),
    (lambda r: r["draws"][0].pop("index"), "'index' must be an integer, got None"),
    (lambda r: r["draws"][0]["text"].update(f1=10**400), "'f1' must be a number from 0 to 1"),
    (lambda r: r["draws"][0]["text"].update(recall=1.5), "'recall' must be a number from 0 to 1"),
])
def test_report_shape_errors_name_the_field(scnm_en, edit, message):
    draws, gens = _draws_and_generations(scnm_en, FormatTag.TRAD_TEXT)
    data = evaluate_run(draws, gens, scnm_en, FormatTag.TRAD_TEXT).to_dict()
    edit(data)
    with pytest.raises(DataError) as caught:
        report_from_dict(data)
    assert str(caught.value).startswith(message)


def test_report_must_be_an_object():
    with pytest.raises(DataError, match=r"^expected an object, got \[1\]$"):
        report_from_dict([1])


class TestRendering:
    def test_markdown_and_tsv_contain_scores(self, scnm_en):
        draws, gens = _draws_and_generations(scnm_en, FormatTag.WITH_TLI_TO_WLI)
        report = evaluate_run(draws, gens, scnm_en, FormatTag.WITH_TLI_TO_WLI)
        md = report_markdown(report)
        tsv = report_tsv(report)
        assert "100.00" in md
        assert "draw" in tsv.splitlines()[0]
        assert tsv.splitlines()[-1].startswith("mean\t100.00")

    def test_ablation_table_layout(self, scnm_en):
        reports = []
        for tag in (
            FormatTag.WO_TLI_TO_WLI,
            FormatTag.WITH_TLI_TO_WLI,
            FormatTag.WO_WLI_TO_TLI,
            FormatTag.WITH_WLI_TO_TLI,
        ):
            draws, gens = _draws_and_generations(scnm_en, tag)
            reports.append(evaluate_run(draws, gens, scnm_en, tag))
        md, tsv = ablation_table(reports)
        for row in ("w/o TLI", "with TLI", "w/o WLI", "with WLI"):
            assert row in md
            assert row in tsv
        assert "SCNM/en" in md
        assert md.count("100.00") == 4


def _report(tag, family, language, sides):
    """A report of hand-set draws: ``sides`` is one (word, text) Prf pair per draw."""
    draws = tuple(DrawScore(i, word, text, {"CLEAN": 3, "RECOVERED": 1})
                  for i, (word, text) in enumerate(sides))
    return EvalReport(tag, family, language, draws, {})


def _same(f1):
    return Prf(f1, f1, f1)


def test_tables_byte_for_byte():
    kv = KvComparisonReport(rows=(
        KvRow("Origin KV", (_same(0.5), _same(0.25)), 3),
        KvRow("WLI KV", (_same(1 / 3), _same(0.875)), 0),
    ), metadata={})
    assert kv.markdown() == (
        "| verbalizer | draw 0 | draw 1 | mean F1 |\n"
        "|---|---|---|---|\n"
        "| Origin KV | 50.00 | 25.00 | 37.50 |\n"
        "| WLI KV | 33.33 | 87.50 | 60.42 |\n"
    )
    assert kv.tsv() == (
        "verbalizer\tdraw0\tdraw1\tmean_f1\n"
        "Origin KV\t50.00\t25.00\t37.50\n"
        "WLI KV\t33.33\t87.50\t60.42\n"
    )

    word_only = _report(FormatTag.TRAD_WORD, "SCNM", "en", [(Prf(0.5, 0.25, 1 / 3), None)])
    assert report_markdown(word_only) == (
        "# Evaluation: SCNM / en / TRAD_WORD\n"
        "\n"
        "| draw | word P | word R | word F1 | text P | text R | text F1 "
        "| clean | recovered | unparseable |\n"
        "|---|---|---|---|---|---|---|---|---|---|\n"
        "| 0 | 50.00 | 25.00 | 33.33 | - | - | - | 3 | 1 | 0 |\n"
        "\n"
        "- word-level F1: mean 33.33, spread -\n"
    )
    assert report_tsv(word_only) == (
        "draw\tword_p\tword_r\tword_f1\ttext_p\ttext_r\ttext_f1\n"
        "0\t50.00\t25.00\t33.33\t-\t-\t-\n"
        "mean\t50.00\t25.00\t33.33\t-\t-\t-\n"
    )
    joint = _report(FormatTag.JOINT_MRE, "SCNM", "en",
                    [(_same(0.5), _same(0.25)), (_same(0.75), _same(0.5))])
    assert report_markdown(joint).endswith(
        "\n- word-level F1: mean 62.50, spread 17.68\n"
        "- text-level F1: mean 37.50, spread 17.68\n"
    )

    md, tsv = ablation_table([
        _report(FormatTag.WO_TLI_TO_WLI, "SCNM", "en", [(_same(0.5), None)]),
        _report(FormatTag.WITH_TLI_TO_WLI, "SCNM", "en", [(_same(0.75), None)]),
        _report(FormatTag.TRAD_TEXT, "SCNM", "en", [(None, _same(0.125))]),
        _report(FormatTag.WITH_WLI_TO_TLI, "SCNM", "en", [(None, _same(1.0))]),
        _report(FormatTag.WITH_WLI_TO_TLI, "SCPOS:N&Adj", "zh", [(None, _same(0.5))]),
    ])
    assert md == (
        "| format | SCNM/en | SCPOS:N&Adj/zh |\n"
        "|---|---|---|\n"
        "| w/o TLI | 50.00 | - |\n"
        "| with TLI | 75.00 | - |\n"
        "| w/o WLI | 12.50 | - |\n"
        "| with WLI | 100.00 | 50.00 |\n"
    )
    assert tsv == (
        "format\tSCNM/en\tSCPOS:N&Adj/zh\n"
        "w/o TLI\t50.00\t-\n"
        "with TLI\t75.00\t-\n"
        "w/o WLI\t12.50\t-\n"
        "with WLI\t100.00\t50.00\n"
    )
