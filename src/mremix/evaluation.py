"""Every score, report and table: pair and text F1, the run, KV and ablation reports.

Pair matching is multiset intersection on exact (label, entity) equality
(surfaces are whitespace-trimmed at construction): a duplicated correct
entity in the prediction consumes one gold copy only, so generative
repetition earns no double credit. Order never matters. Entity strings
are never case-folded; pair labels are case-folded for English datasets
only.

Text-level scoring is micro-F1, which for single-label classification
equals accuracy; unparseable predictions count as wrong.

A run is scored per draw and averaged across draws, with the sample
standard deviation as the spread. Which levels a run is scored on, how a
gold target splits into them and which ablation row a report fills all
come from the layout table ``formats.LAYOUT``.

Every table is laid out by ``_markdown_table`` or ``_tsv_table``, and
every percent cell by ``_fmt``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Optional, Sequence

from .core import FAMILIES, LANGUAGES, DatasetDescriptor, LabelEntityPair, _field, _one_of
from .errors import DataError
from .formats import LAYOUT, TAGS, FormatTag, FormattedExample, split_target, target_level
from .pairs import parse_canonical
from .parsing import GenerationRow, ParseFlag, parse_prediction


@dataclass(frozen=True)
class Prf:
    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


_PRF = ("precision", "recall", "f1")


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _match_count(
    gold: Sequence[LabelEntityPair],
    pred: Sequence[LabelEntityPair],
    fold_label_case: bool,
) -> int:
    if gold == pred:  # an exact prediction, the common case
        return len(gold)
    if not gold or not pred:
        return 0
    if fold_label_case:
        gold = [(label.casefold(), entity) for label, entity in gold]
        pred = [(label.casefold(), entity) for label, entity in pred]
    unmatched = list(gold)  # each predicted pair consumes at most one gold copy
    for pair in pred:
        if pair in unmatched:
            unmatched.remove(pair)
    return len(gold) - len(unmatched)


def _prf_from_counts(match: int, n_pred: int, n_gold: int) -> Prf:
    if n_gold == 0 and n_pred == 0:
        return Prf(1.0, 1.0, 1.0)
    precision = match / n_pred if n_pred else 0.0
    recall = match / n_gold if n_gold else 0.0
    return Prf(precision, recall, _f1(precision, recall))


def pair_f1(
    gold: Sequence[LabelEntityPair],
    pred: Sequence[LabelEntityPair],
    *,
    fold_label_case: bool = False,
) -> Prf:
    """Multiset-exact pair F1 for one example.

    Both sides empty scores 1.0 across the board; an empty prediction
    against non-empty gold has precision 0 by convention.
    """
    match = _match_count(gold, pred, fold_label_case)
    return _prf_from_counts(match, len(pred), len(gold))


def pair_f1_micro(
    gold_lists: Sequence[Sequence[LabelEntityPair]],
    pred_lists: Sequence[Sequence[LabelEntityPair]],
    *,
    fold_label_case: bool = False,
) -> Prf:
    """Micro-averaged pair F1 over many examples (global match/pred/gold counts)."""
    if len(gold_lists) != len(pred_lists):
        raise DataError(
            f"gold and prediction counts differ: {len(gold_lists)} vs {len(pred_lists)}"
        )
    match = n_pred = n_gold = 0
    for gold, pred in zip(gold_lists, pred_lists):
        match += _match_count(gold, pred, fold_label_case)
        n_pred += len(pred)
        n_gold += len(gold)
    return _prf_from_counts(match, n_pred, n_gold)


def text_f1(gold: Sequence[str], pred: Sequence[Optional[str]]) -> Prf:
    """Micro-F1 over aligned label lists; equals accuracy for single labels.

    ``None`` predictions (unparseable generations) never match.
    """
    if len(gold) != len(pred):
        raise DataError(f"gold and prediction counts differ: {len(gold)} vs {len(pred)}")
    if not gold:
        return Prf(1.0, 1.0, 1.0)
    correct = sum(1 for g, p in zip(gold, pred) if p is not None and g == p)
    accuracy = correct / len(gold)
    return Prf(accuracy, accuracy, accuracy)


def text_macro_f1(gold: Sequence[str], pred: Sequence[Optional[str]]) -> Prf:
    """Macro-F1: one-vs-rest P/R/F1 per label, averaged with equal label weight.

    The label set is every label observed in gold or in a non-None
    prediction. Micro (the default elsewhere) is the reported headline
    number; this is the optional alternative.
    """
    if len(gold) != len(pred):
        raise DataError(f"gold and prediction counts differ: {len(gold)} vs {len(pred)}")
    if not gold:
        return Prf(1.0, 1.0, 1.0)
    labels = sorted({*gold, *(p for p in pred if p is not None)})
    precisions: list[float] = []
    recalls: list[float] = []
    f1s: list[float] = []
    for label in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, pred) if g != label and p == label)
        fn = sum(1 for g, p in zip(gold, pred) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(_f1(precision, recall))
    return Prf(mean(precisions), mean(recalls), mean(f1s))


@dataclass(frozen=True)
class DrawScore:
    """Scores for one test draw."""

    index: int
    word: Optional[Prf]
    text: Optional[Prf]
    parse_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "word": self.word.to_dict() if self.word else None,
            "text": self.text.to_dict() if self.text else None,
            "parse_counts": dict(self.parse_counts),
        }


def mean(values: Sequence[float]) -> float:
    """The left-to-right sum over the count (``sum()`` of floats is compensated
    since Python 3.12, so it would round differently across versions)."""
    return reduce(add, values, 0) / len(values)


def mean_std(values: Sequence[float]) -> dict:
    """Arithmetic mean and sample standard deviation (None below two values)."""
    std = statistics.stdev(values) if len(values) >= 2 else None
    return {"mean": mean(values), "std": std}


@dataclass(frozen=True)
class EvalReport:
    """Per-draw precision/recall/F1 plus cross-draw mean and spread."""

    tag: FormatTag
    family: str
    language: str
    draws: tuple[DrawScore, ...]
    metadata: dict

    def summary(self) -> dict:
        out: dict = {}
        for side in ("word", "text"):
            scores = [getattr(d, side) for d in self.draws]
            out[side] = None if None in scores else {
                metric: mean_std([getattr(s, metric) for s in scores]) for metric in _PRF
            }
        return out

    def parse_totals(self) -> dict[str, int]:
        totals = {flag.value: 0 for flag in ParseFlag}
        for draw in self.draws:
            for key, value in draw.parse_counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> dict:
        return {
            "tag": self.tag.value,
            "family": self.family,
            "language": self.language,
            "draws": [d.to_dict() for d in self.draws],
            "summary": self.summary(),
            "parse_totals": self.parse_totals(),
            "metadata": dict(self.metadata),
        }


def _prf_from_dict(draw: dict, side: str) -> Optional[Prf]:
    """A draw's scores on one side; null (or absent) for a side not scored."""
    scores = draw.get(side)
    if scores is None:
        return None
    if not isinstance(scores, dict) or scores.keys() != set(_PRF):
        raise DataError(f"{side!r} must be null or an object with the keys {_PRF}, got {scores!r}")
    for key in _PRF:  # compared, not converted to float: a JSON integer has any size
        if type(scores[key]) not in (int, float) or not 0 <= scores[key] <= 1:
            raise DataError(f"{key!r} must be a number from 0 to 1, got {scores[key]!r}")
    return Prf(**scores)


_FLAG_NAMES = tuple(flag.value for flag in ParseFlag)


def _parse_counts(draw: dict) -> dict[str, int]:
    """A draw's parse counts: non-negative integers keyed by parse flag."""
    counts = draw.get("parse_counts", {})
    if not isinstance(counts, dict) or not all(
        key in _FLAG_NAMES and type(n) is int and n >= 0 for key, n in counts.items()
    ):
        raise DataError(f"'parse_counts' must be counts keyed by parse flag, got {counts!r}")
    return dict(counts)


def report_from_dict(data: object) -> EvalReport:
    """Rebuild an EvalReport from its JSON form (inverse of to_dict). A shape
    error (a missing field, a field of the wrong type or outside its
    vocabulary) is a DataError naming the field."""
    if not isinstance(data, dict):
        raise DataError(f"expected an object, got {data!r}")
    draws = []
    for i, d in enumerate(_field(data, "draws", list)):
        if not isinstance(d, dict):
            raise DataError(f"draws[{i}] must be an object, got {d!r}")
        index = d.get("index")
        if type(index) is not int:
            raise DataError(f"'index' must be an integer, got {index!r}")
        draws.append(DrawScore(index, _prf_from_dict(d, "word"), _prf_from_dict(d, "text"),
                               _parse_counts(d)))
    if not draws:
        raise DataError("'draws' must not be empty")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"'metadata' must be an object, got {metadata!r}")
    return EvalReport(
        tag=TAGS[_one_of(data, "tag", TAGS)],
        family=_one_of(data, "family", FAMILIES),
        language=_one_of(data, "language", LANGUAGES),
        draws=tuple(draws),
        metadata=dict(metadata),
    )


MATCHING_POLICY = {
    "pair_match": "exact multiset on (label, entity) after whitespace trim",
    "pair_order": "ignored (set/multiset semantics regardless of generation order)",
    "unparseable": "zero credit, kept in the denominator",
    "entity_case": "never folded",
    "label_case": "folded for en only",
    "text_level": "micro-F1 (= accuracy for single-label)",
    "draws": "independent across repetitions; without replacement within a draw",
}


TEXT_METRICS = {"micro": text_f1, "macro": text_macro_f1}


def evaluate_run(
    draws: Sequence[Sequence[FormattedExample]],
    generations: Sequence[Sequence[GenerationRow]],
    desc: DatasetDescriptor,
    tag: FormatTag,
    text_metric: str = "micro",
) -> EvalReport:
    """Score generation files against gold draws for one format.

    Draw files carry the gold targets, and each of their rows must be of
    format ``tag``; generations align with them by position (and by record
    id when the generation rows carry ids). Any misalignment is a hard error
    naming the draw. ``text_metric`` names the text-level metric of
    ``TEXT_METRICS`` and is recorded in the report metadata.
    """
    if not draws:
        raise DataError("no draws to evaluate")
    if len(draws) != len(generations):
        raise DataError(f"expected {len(draws)} generation files, got {len(generations)}")
    score_text = TEXT_METRICS.get(text_metric)
    if score_text is None:
        raise DataError(f"text_metric must be one of {tuple(TEXT_METRICS)}, got {text_metric!r}")
    fold = desc.language == "en"
    level = target_level(tag)
    word_side, text_side = level != "text", level != "word"
    draw_scores: list[DrawScore] = []
    for d, (gold_examples, gen_rows) in enumerate(zip(draws, generations)):
        if not gold_examples:
            raise DataError(f"draw {d}: no examples")
        if len(gold_examples) != len(gen_rows):
            raise DataError(
                f"draw {d}: expected {len(gold_examples)} generations, got {len(gen_rows)}"
            )
        gold_pairs: list[tuple[LabelEntityPair, ...]] = []
        pred_pairs: list[tuple[LabelEntityPair, ...]] = []
        gold_labels: list[str] = []
        pred_labels: list[Optional[str]] = []
        counts = {flag.value: 0 for flag in ParseFlag}

        for i, (example, row) in enumerate(zip(gold_examples, gen_rows)):
            if example.tag is not tag:
                raise DataError(f"draw {d}: record {example.record_id!r}: the draw row is of "
                                f"format {example.tag}, not {tag}")
            if row.record_id is not None and row.record_id != example.record_id:
                raise DataError(
                    f"draw {d}: position {i}: generation is for record "
                    f"{row.record_id!r}, expected {example.record_id!r}"
                )
            prediction = parse_prediction(row.output, tag, desc.schema)
            flag = prediction.flag
            counts[flag] += 1  # a flag is the str of its name: no Python-level ``.value``

            gold_label, gold_target = split_target(example.target, tag)
            if word_side:
                if flag is ParseFlag.CLEAN and row.output == example.target:
                    # the same pairs string, which parse_canonical accepted
                    parsed_gold = prediction.pairs
                else:
                    parsed_gold = None if gold_target is None else parse_canonical(gold_target)
                    if parsed_gold is None:
                        raise DataError(
                            f"draw {d}: record {example.record_id!r}: gold target is "
                            "not canonical; draw files must come from the format builder"
                        )
                gold_pairs.append(parsed_gold)
                pred_pairs.append(prediction.pairs)
            if text_side:
                gold_labels.append(gold_label)
                pred_labels.append(prediction.text_label)

        word = pair_f1_micro(gold_pairs, pred_pairs, fold_label_case=fold) if word_side else None
        text = score_text(gold_labels, pred_labels) if text_side else None
        draw_scores.append(DrawScore(index=d, word=word, text=text, parse_counts=counts))

    return EvalReport(
        tag=tag,
        family=desc.family,
        language=desc.language,
        draws=tuple(draw_scores),
        metadata={"matching_policy": MATCHING_POLICY, "text_metric": text_metric},
    )


# -- reports and tables -------------------------------------------------------


@dataclass(frozen=True)
class KvRow:
    """One verbalizer system's scores across the repeated test draws."""

    name: str
    draws: tuple[Prf, ...]
    no_coverage: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "draws": [d.to_dict() for d in self.draws],
            "f1": mean_std([d.f1 for d in self.draws]),
            "no_coverage_predictions": self.no_coverage,
        }

    def mean_f1(self) -> float:
        return mean([d.f1 for d in self.draws])


def kv_row(name: str, gold: Sequence[Sequence[str]], predictions: Sequence[list[dict]]) -> KvRow:
    """A verbalizer's row: its text F1 against each draw's gold labels, and no-coverage count."""
    return KvRow(
        name=name,
        draws=tuple(text_f1(labels, [row["label"] for row in rows])
                    for labels, rows in zip(gold, predictions)),
        no_coverage=sum(row["no_coverage"] for rows in predictions for row in rows),
    )


@dataclass(frozen=True)
class KvComparisonReport:
    """Origin-KV vs WLI-KV text classification comparison."""

    rows: tuple[KvRow, ...]
    metadata: dict

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows], "metadata": dict(self.metadata)}

    def _cells(self) -> list[list[str]]:
        return [[row.name, *(_fmt(d.f1) for d in row.draws), _fmt(row.mean_f1())]
                for row in self.rows]

    def markdown(self) -> str:
        draws = [f"draw {i}" for i in range(len(self.rows[0].draws))]
        return _markdown_table(["verbalizer", *draws, "mean F1"], self._cells())

    def tsv(self) -> str:
        draws = [f"draw{i}" for i in range(len(self.rows[0].draws))]
        return _tsv_table(["verbalizer", *draws, "mean_f1"], self._cells())


def _fmt(value: Optional[float]) -> str:
    """A score as a percent cell with two decimals; '-' for a missing score."""
    return "-" if value is None else f"{100.0 * value:.2f}"


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A pipe table: the header line, the ``|---`` rule, then one line per row."""
    lines = ["| " + " | ".join(cells) + " |" for cells in (header, *rows)]
    lines.insert(1, "|---" * len(header) + "|")
    return "\n".join(lines) + "\n"


def _tsv_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Tab-separated lines: the header, then one line per row."""
    return "".join("\t".join(cells) + "\n" for cells in (header, *rows))


def _draw_cells(draw: DrawScore) -> list[str]:
    """A draw's index, then its word and text precision, recall and F1."""
    return [str(draw.index)] + [_fmt(getattr(prf, metric) if prf else None)
                                for prf in (draw.word, draw.text) for metric in _PRF]


def report_markdown(report: EvalReport) -> str:
    header = ["draw", "word P", "word R", "word F1", "text P", "text R", "text F1",
              *(flag.lower() for flag in _FLAG_NAMES)]
    rows = [_draw_cells(draw) + [str(draw.parse_counts.get(flag, 0)) for flag in _FLAG_NAMES]
            for draw in report.draws]
    text = f"# Evaluation: {report.family} / {report.language} / {report.tag}\n\n"
    text += _markdown_table(header, rows) + "\n"
    for side, scores in report.summary().items():
        if scores is not None:
            f1 = scores["f1"]
            text += f"- {side}-level F1: mean {_fmt(f1['mean'])}, spread {_fmt(f1['std'])}\n"
    return text


def report_tsv(report: EvalReport) -> str:
    summary = report.summary()
    mean_row = ["mean"] + [_fmt(summary[side][metric]["mean"] if summary[side] else None)
                           for side in ("word", "text") for metric in _PRF]
    header = ["draw", "word_p", "word_r", "word_f1", "text_p", "text_r", "text_f1"]
    return _tsv_table(header, [*map(_draw_cells, report.draws), mean_row])


# The four ablation rows by format layout (formats.LAYOUT), scored on the target
# level's mean F1; a traditional format has its w/o row's layout, so fills it too.
ABLATION_ROWS: tuple[tuple[str, tuple[Optional[str], str]], ...] = (
    ("w/o TLI", (None, "word")),
    ("with TLI", ("text", "word")),
    ("w/o WLI", (None, "text")),
    ("with WLI", ("word", "text")),
)


def ablation_table(reports: Sequence[EvalReport]) -> tuple[str, str]:
    """Render mean F1 for the four ablation rows across datasets.

    Returns (markdown, tsv). Columns are the distinct (family, language)
    pairs present, in first-seen order. Two reports that land in one cell
    must agree on its mean F1; if they differ the table would depend on the
    input order, so that is a ``DataError``.
    """
    columns: list[tuple[str, str]] = []
    cells: dict[tuple[str, tuple[str, str]], float] = {}
    first_tag: dict[tuple[str, tuple[str, str]], FormatTag] = {}
    for report in reports:
        col = (report.family, report.language)
        if col not in columns:
            columns.append(col)
        summary = report.summary()
        layout = LAYOUT[report.tag]
        for row_name, row_layout in ABLATION_ROWS:
            if layout == row_layout and summary.get(layout[1]):
                key, mean = (row_name, col), summary[layout[1]]["f1"]["mean"]
                if cells.setdefault(key, mean) != mean:
                    raise DataError(
                        f"ablation cell {row_name!r} of {col[0]}/{col[1]} has two mean F1s: "
                        f"{first_tag[key].name} gives {cells[key]!r}, "
                        f"{report.tag.name} gives {mean!r}"
                    )
                first_tag.setdefault(key, report.tag)

    header = ["format", *(f"{family}/{language}" for family, language in columns)]
    rows = [[row_name, *(_fmt(cells.get((row_name, col))) for col in columns)]
            for row_name, _ in ABLATION_ROWS]
    return _markdown_table(header, rows), _tsv_table(header, rows)
