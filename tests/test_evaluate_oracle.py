"""Differential tests of the evaluation path against its reference loops.

``FormattedExample.from_dict`` and ``GenerationRow.from_dict`` build a row
straight from a decoded line that passes exact type checks, and
``evaluate_run`` reuses the parse of a generation equal to its CLEAN gold
instead of parsing that gold target. The references below are the code as it stood before:
the readers' checked loops, and ``evaluate_run`` with a ``parse_canonical``
per gold row over dataclass rows, copied verbatim. For every input the fast
code must give the same rows and the same report, or a ``DataError`` with
the same text.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from mremix import DatasetDescriptor, LabelEntityPair, MreRecord, build_example, evaluate_run
from mremix.core import _field, _one_of
from mremix.errors import DataError
from mremix.evaluation import (
    MATCHING_POLICY,
    TEXT_METRICS,
    DrawScore,
    EvalReport,
    pair_f1_micro,
)
from mremix.formats import (
    LAYOUT,
    TAGS,
    FormatTag,
    FormattedExample,
    read_examples,
    split_target,
    target_level,
)
from mremix.jsonio import read_jsonl_numbered
from mremix.pairs import parse_canonical, serialize_pairs
from mremix.parsing import GenerationRow, ParseFlag, parse_prediction, read_generations


@dataclass(frozen=True)
class RefExample:
    input: str
    target: str
    tag: FormatTag
    record_id: str


@dataclass(frozen=True)
class RefGeneration:
    record_id: Optional[str]
    output: str


def reference_evaluate_run(
    draws: Sequence[Sequence[RefExample]],
    generations: Sequence[Sequence[RefGeneration]],
    desc: DatasetDescriptor,
    tag: FormatTag,
    text_metric: str = "micro",
) -> EvalReport:
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
            counts[prediction.flag.value] += 1

            gold_label, gold_target = split_target(example.target, tag)
            if word_side:
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


def reference_example_from_dict(data: object) -> FormattedExample:
    if not isinstance(data, dict):
        raise DataError(f"expected an object, got {data!r}")
    return FormattedExample(
        input=_field(data, "input"),
        target=_field(data, "target"),
        tag=TAGS[_one_of(data, "tag", TAGS)],
        record_id=_field(data, "record_id"),
    )


def reference_read_examples(path) -> list[FormattedExample]:
    examples = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            examples.append(reference_example_from_dict(row))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: not a formatted example ({exc})") from exc
    return examples


def reference_read_generations(path) -> list[GenerationRow]:
    out: list[GenerationRow] = []
    for lineno, row in read_jsonl_numbered(path):
        if not isinstance(row, dict) or "output" not in row:
            raise DataError(f"{path}: line {lineno}: expected an object with an 'output' field")
        try:
            rid = None if row.get("record_id") is None else _field(row, "record_id")
            out.append(GenerationRow(rid, _field(row, "output")))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DataError as exc:
        return "error", str(exc)


# -- evaluate_run ---------------------------------------------------------------

DESCS = [DatasetDescriptor.builtin("SCNM", "en"), DatasetDescriptor.builtin("SCNM", "zh"),
         DatasetDescriptor.builtin("TCONER", "en")]
_ENTITY = st.text(alphabet="ab; \\:東", min_size=1, max_size=5).map(str.strip).filter(bool)
_KINDS = ("exact", "exact", "label_case", "wrong", "recovered", "unparseable", "noise")


@st.composite
def _records(draw, desc: DatasetDescriptor) -> list[MreRecord]:
    """Up to five valid records of ``desc`` (some with no pairs, entities that
    need escapes or hold ': ')."""
    schema = desc.schema
    records = []
    for i in range(draw(st.integers(1, 5))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(schema.word_labels), _ENTITY),
                              max_size=3))
        records.append(MreRecord(f"r{i}", f"text {i}", draw(st.sampled_from(schema.text_labels)),
                                 tuple(LabelEntityPair(*pair) for pair in pairs)))
    return records


def _label_case(record: MreRecord, tag: FormatTag) -> str:
    """The target with every label upper-cased: pair labels stay canonical, so
    they match only where labels are folded (en); a text label is recovered."""
    pairs = serialize_pairs([LabelEntityPair(p.label.upper(), p.entity) for p in record.pairs])
    level = target_level(tag)
    if level == "word":
        return pairs
    return record.text_label.upper() + ("\n" + pairs if level == "joint" else "")


def _generate(draw, kind: str, example: FormattedExample, record: MreRecord,
              examples: list[FormattedExample]) -> str:
    target = example.target
    if kind == "exact":
        return target
    if kind == "label_case":
        return _label_case(record, example.tag)
    if kind == "wrong":
        return draw(st.sampled_from(examples)).target
    if kind == "recovered":
        return draw(st.sampled_from([target.replace(": ", ":"), f" {target} ", target.lower(),
                                     target + "; ;"]))
    if kind == "unparseable":
        return draw(st.sampled_from(["", "garbage", "no entities found", "\n"]))
    return draw(st.text(alphabet="ab:; \n", max_size=6))


@st.composite
def _runs(draw):
    """(desc, tag, draws, generations, text metric): draws that repeat records
    across and within draws, every kind of generation, ids or nulls, and in
    about one run of four a row that must be refused."""
    desc = draw(st.sampled_from(DESCS))
    tag = draw(st.sampled_from(list(FormatTag)))
    records = draw(_records(desc))
    examples = [build_example(record, tag, desc) for record in records]
    draws, generations = [], []
    for _ in range(draw(st.integers(1, 3))):
        picks = draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=6))
        rows = [examples[k] for k in picks]
        gens = [GenerationRow(draw(st.sampled_from([example.record_id, None])),
                              _generate(draw, draw(st.sampled_from(_KINDS)), example,
                                        records[k], examples))
                for k, example in zip(picks, rows)]
        draws.append(rows)
        generations.append(gens)
    spoil = draw(st.sampled_from(["none"] * 9 + ["target", "tag", "record_id"]))
    if spoil != "none":
        d = draw(st.integers(0, len(draws) - 1))
        i = draw(st.integers(0, len(draws[d]) - 1))
        example = draws[d][i]
        if spoil == "target":  # a gold target no builder writes, maybe generated as it is
            target = draw(st.sampled_from(["people:x", "Society", "a; b", " NONE", "NONE;"]))
            draws[d][i] = example._replace(target=target)
            if draw(st.booleans()):
                generations[d][i] = generations[d][i]._replace(output=target)
        elif spoil == "tag":  # a row of another format
            draws[d][i] = example._replace(tag=draw(st.sampled_from(list(FormatTag))))
        else:
            generations[d][i] = generations[d][i]._replace(record_id="r-other")
    return desc, tag, draws, generations, draw(st.sampled_from(list(TEXT_METRICS)))


def _report_or_error(fn, *args):
    kind, value = _outcome(fn, *args)
    return kind, value.to_dict() if kind == "ok" else value


@settings(max_examples=400, deadline=None)
@given(run=_runs())
def test_evaluate_run_matches_the_per_row_gold_parse(run):
    desc, tag, draws, generations, metric = run
    ref_draws = [[RefExample(*row) for row in rows] for rows in draws]
    ref_generations = [[RefGeneration(*row) for row in rows] for rows in generations]
    expected = _report_or_error(reference_evaluate_run, ref_draws, ref_generations, desc, tag,
                                metric)
    assert _report_or_error(evaluate_run, draws, generations, desc, tag, metric) == expected


def test_refusals_match_the_reference(scnm_en):
    """A non-canonical gold target (after a row whose generation reused its
    parse), a tag mismatch and a record-id mismatch, each in a later draw."""
    record = MreRecord("r0", "t", "Society", (LabelEntityPair("people", "x"),))
    tag = FormatTag.JOINT_MRE
    good = build_example(record, tag, scnm_en)
    exact = GenerationRow("r0", good.target)
    cases = [
        ([[good], [good, good._replace(target="Society")]], [[exact], [exact, exact]]),
        ([[good], [good._replace(tag=FormatTag.TRAD_WORD)]], [[exact], [exact]]),
        ([[good], [good]], [[exact], [GenerationRow("r1", good.target)]]),
    ]
    for draws, generations in cases:
        ref = ([[RefExample(*row) for row in rows] for rows in draws],
               [[RefGeneration(*row) for row in rows] for rows in generations])
        got = _outcome(evaluate_run, draws, generations, scnm_en, tag)
        assert got[0] == "error"
        assert got == _outcome(reference_evaluate_run, *ref, scnm_en, tag)


# -- the row readers ------------------------------------------------------------

_STRINGS = st.text(alphabet="ab\n東", max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _STRINGS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_STRINGS, inner, max_size=2),
    max_leaves=4,
)
_TAG_VALUES = st.sampled_from([tag.value for tag in LAYOUT] + ["trad_word", "BOGUS", ""])


@st.composite
def _rows(draw, fields: dict) -> object:
    """A row object with each field a good value, another JSON value or absent;
    now and then no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    row = draw(st.dictionaries(st.sampled_from(["x", "extra"]), _JSON, max_size=1))
    for key, good in fields.items():
        pick = draw(st.integers(0, 11))
        if pick:
            row[key] = draw(good if pick > 2 else _JSON)
    return row


def _file_of(rows: list) -> str:
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


def _same_rows(reader, reference, text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text(text, encoding="utf-8")
        got, expected = _outcome(reader, path), _outcome(reference, path)
    assert got == expected
    if got[0] == "ok":  # equal tuples, and of equal types to the field (a tag is no str)
        assert [(type(row), *map(type, row)) for row in got[1]] == [
            (type(row), *map(type, row)) for row in expected[1]]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_rows({"input": _STRINGS, "target": _STRINGS, "tag": _TAG_VALUES,
                            "record_id": _STRINGS}), max_size=4))
def test_read_examples_matches_the_checked_loop(rows):
    _same_rows(read_examples, reference_read_examples, _file_of(rows))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_rows({"output": _STRINGS, "record_id": st.none() | _STRINGS}),
                     max_size=4))
def test_read_generations_matches_the_checked_loop(rows):
    _same_rows(read_generations, reference_read_generations, _file_of(rows))
