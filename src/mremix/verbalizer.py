"""Knowledgeable verbalizers: construction, aggregation, and prediction.

A verbalizer maps each text-level label to a ranked list of words. To
classify a text, a probability provider scores every verbalizer word at
the mask position of a prompt, returning one non-negative integer weight
per queried word in query order and one integer total: a word's mass is
its weight over the total. The query is the union of the labels' words,
and each label knows its words' positions in it, so a label's score is
the integer sum of the weights at its positions over the total (over the
total times the label's word count for ``mean``), rounded once. The
label with the highest exact score wins; a tie goes to the earliest
label.

Verbalizers come from two sources: frequency statistics over a training
split's word-level entities (``build_from_wli``), or an external word-list
file (``load_external_kv``). Both require a fixed label schema; open-domain
datasets are excluded.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Protocol, Sequence

from .core import LabelSchema
from .errors import DataError, MremixError, SchemaError
from .ingest import Split
from .jsonio import read_jsonl_numbered, read_lines_numbered, write_text
from .rng import SplitMix64, derive_seed_token

MASK_PLACEHOLDER = "{mask}"
TEXT_PLACEHOLDER = "{text}"

AGGREGATION_STRATEGIES = ("sum", "mean")

DEFAULT_WORDS_PER_LABEL = 100

_FLOAT_MAX = int(sys.float_info.max)


@dataclass(frozen=True)
class MaskDistribution:
    """Integer weights of the queried words at the mask position.

    ``weights[i]`` is the non-negative integer weight of the i-th queried
    word, so ``weights`` is as long as the query and in its order; a word
    the provider does not know still has an entry (its smoothing floor, or
    0). Its mass is ``weights[i] / total``, with ``total`` a positive
    integer (0 only for an empty query); ``probs`` derives those masses.
    ``covered`` holds the queried words the provider could actually score.
    No completeness over any vocabulary is implied.
    """

    weights: Sequence[int]
    total: int
    covered: frozenset[str] = field(default_factory=frozenset)

    @property
    def probs(self) -> list[float]:
        total = self.total
        return [weight / total for weight in self.weights]


class ProbabilityProvider(Protocol):
    """Deterministic source of mask-position word weights."""

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution:
        """One weight per word of ``words``, in the same order; the words are distinct."""
        ...


@dataclass(frozen=True)
class Verbalizer:
    """Ranked words per text-level label, at most k per label.

    Construction also fixes the query, ``_all_words``: the labels' words,
    first-seen order, once each. ``_folds`` holds, per label, the positions
    of its words in the query.
    """

    label_words: Mapping[str, tuple[str, ...]]
    k: int
    _all_words: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    _folds: tuple[tuple[str, tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "label_words",
            {label: tuple(words) for label, words in self.label_words.items()},
        )
        for label, words in self.label_words.items():
            if len(words) > self.k:
                raise DataError(f"label {label!r} has more than k={self.k} words")
            if len(set(words)) != len(words):
                raise DataError(f"label {label!r} lists a word more than once")
        union = (word for words in self.label_words.values() for word in words)
        position = {word: i for i, word in enumerate(dict.fromkeys(union))}
        folds = tuple((label, tuple(map(position.__getitem__, words)))
                      for label, words in self.label_words.items())
        object.__setattr__(self, "_all_words", tuple(position))
        object.__setattr__(self, "_folds", folds)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.label_words)

    def words_for(self, label: str) -> tuple[str, ...]:
        return self.label_words[label]

    def all_words(self) -> list[str]:
        """Union of all labels' words, first-seen order, deduplicated (a fresh list)."""
        return list(self._all_words)


def _require_fixed_schema(schema: LabelSchema) -> None:
    if schema.open_domain:
        raise SchemaError(
            "knowledgeable verbalizers require a fixed label schema; "
            "open-domain datasets are excluded from KV experiments"
        )


def build_from_wli(train: Split, desc, k: int = DEFAULT_WORDS_PER_LABEL) -> Verbalizer:
    """Build a verbalizer from word-level entity frequencies in a train split.

    For each text-level label, entity surface strings of records carrying
    that label are counted; the k most frequent are kept (ties broken by
    code-point order).
    """
    _require_fixed_schema(desc.schema)
    if train.role != "train":
        raise DataError(f"verbalizer construction requires a train split, got {train.role!r}")
    if k <= 0:
        raise DataError("words-per-label k must be positive")

    counts: dict[str, dict[str, int]] = {label: {} for label in desc.schema.text_labels}
    for record in train.records:
        table = counts.get(record.text_label)
        if table is None:
            continue
        for pair in record.pairs:
            table[pair.entity] = table.get(pair.entity, 0) + 1

    label_words: dict[str, tuple[str, ...]] = {}
    for label in desc.schema.text_labels:
        table = counts[label]
        if not table:
            raise DataError(f"label {label!r} has no word-level entities in the training split")
        ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))[:k]
        label_words[label] = tuple(word for word, _ in ranked)
    return Verbalizer(label_words=label_words, k=k)


def load_external_kv(
    path: str | Path, schema: LabelSchema, k: int = DEFAULT_WORDS_PER_LABEL
) -> Verbalizer:
    """Load a verbalizer from a word-list file.

    File format: per-label blocks, a ``[label]`` header line followed by
    one word per line; '#' starts a comment. Every schema label must have a
    non-empty block; words are deduplicated keeping first occurrence and
    truncated to k.
    """
    _require_fixed_schema(schema)
    blocks: dict[str, list[str]] = {}
    current: Optional[str] = None
    for lineno, raw in read_lines_numbered(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            label = line[1:-1].strip()
            if label not in schema.text_labels:
                raise DataError(
                    f"{path}: line {lineno}: unknown label {label!r} "
                    "(not in the text-level schema)"
                )
            current = label
            blocks.setdefault(label, [])
            continue
        if current is None:
            raise DataError(f"{path}: line {lineno}: word before any [label] header")
        blocks[current].append(line)

    label_words: dict[str, tuple[str, ...]] = {}
    for label in schema.text_labels:
        words = blocks.get(label)
        if words is None:
            raise DataError(f"{path}: missing block for schema label {label!r}")
        deduped = list(dict.fromkeys(words))
        if not deduped:
            raise DataError(f"{path}: label {label!r} has an empty word list")
        label_words[label] = tuple(deduped[:k])
    return Verbalizer(label_words=label_words, k=k)


def save_kv(verbalizer: Verbalizer, path: str | Path) -> None:
    """Export a verbalizer in the external word-list format (auditable, reloadable)."""
    lines: list[str] = []
    for label in verbalizer.labels():
        lines.append(f"[{label}]")
        lines.extend(verbalizer.words_for(label))
        lines.append("")
    write_text(path, "\n".join(lines))


def _label_sums(
    dist: MaskDistribution, verbalizer: Verbalizer, strategy: str
) -> list[tuple[str, int, int]]:
    """(label, sum of its words' weights, divisor) per label; the divisor is
    the label's word count for ``mean`` and 1 for ``sum``."""
    if strategy not in AGGREGATION_STRATEGIES:
        raise ValueError(f"unknown aggregation strategy: {strategy!r}")
    weights = dist.weights
    if len(weights) != len(verbalizer._all_words):
        raise ValueError(
            f"distribution has {len(weights)} weights for {len(verbalizer._all_words)} query words"
        )
    mean = strategy == "mean"
    at = weights.__getitem__
    return [(label, sum(map(at, positions)), (len(positions) or 1) if mean else 1)
            for label, positions in verbalizer._folds]


def aggregate(
    dist: MaskDistribution, verbalizer: Verbalizer, strategy: str = "sum"
) -> dict[str, float]:
    """Per-label scores: the sum of the label's word masses (or their mean).

    ``dist`` answers the query ``verbalizer.all_words()``, one weight per
    word in that order. Each label's score is the integer sum of its
    words' weights over ``dist.total`` (times the word count for
    ``mean``): one correctly rounded division. A word listed under several
    labels contributes its mass to each of them.
    """
    total = dist.total
    return {label: s / (total * n) for label, s, n in _label_sums(dist, verbalizer, strategy)}


@dataclass(frozen=True)
class Prediction:
    """Result of one mask-position classification."""

    label: str
    scores: dict[str, float]
    no_coverage: bool  # provider could not score any verbalizer word


def predict(
    prompt: str,
    verbalizer: Verbalizer,
    provider: ProbabilityProvider,
    strategy: str = "sum",
) -> Prediction:
    """Classify one prompt: query the provider once, aggregate, take the argmax.

    The argmax compares the labels' exact scores: their integer weight
    sums, cross-multiplied by the word counts for ``mean``. Ties
    (including the all-zero degenerate case) resolve to the earliest label
    in the verbalizer's schema order.
    """
    slots = prompt.count(MASK_PLACEHOLDER)
    if slots != 1:
        raise ValueError(f"prompt must contain exactly one {MASK_PLACEHOLDER} slot, found {slots}")
    words = verbalizer._all_words
    dist = provider.score(prompt, words)
    sums = _label_sums(dist, verbalizer, strategy)

    best_label, best_sum, best_n = sums[0]  # verbalizers are never empty
    for label, s, n in sums:
        if s * best_n > best_sum * n:
            best_label, best_sum, best_n = label, s, n

    total = dist.total
    scores = {label: s / (total * n) for label, s, n in sums}
    no_coverage = best_sum == 0 or dist.covered.isdisjoint(words)
    return Prediction(label=best_label, scores=scores, no_coverage=no_coverage)


def apply_template(text: str, template: str) -> str:
    """Substitute the text into a prompt template, preserving the mask slot.

    The template must contain exactly one ``{text}`` placeholder and one
    ``{mask}`` placeholder.
    """
    if template.count(TEXT_PLACEHOLDER) != 1:
        raise ValueError(f"template must contain exactly one {TEXT_PLACEHOLDER} placeholder")
    if template.count(MASK_PLACEHOLDER) != 1:
        raise ValueError(f"template must contain exactly one {MASK_PLACEHOLDER} placeholder")
    return template.replace(TEXT_PLACEHOLDER, text)


def shuffle_words(verbalizer: Verbalizer, seed: int) -> Verbalizer:
    """Reassign the pooled words across labels at random (a control baseline).

    Per-label word counts are preserved; only the
    word-to-label assignment changes. Deterministic for a given seed.
    """
    flat: list[str] = []
    for label in verbalizer.labels():
        flat.extend(verbalizer.words_for(label))
    rng = SplitMix64(derive_seed_token(seed, "kv-shuffle"))
    rng.shuffle(flat)

    label_words: dict[str, tuple[str, ...]] = {}
    remaining = flat
    for label in verbalizer.labels():
        need = len(verbalizer.words_for(label))
        taken: list[str] = []
        used: set[str] = set()
        rest: list[str] = []
        for word in remaining:
            if len(taken) < need and word not in used:
                taken.append(word)
                used.add(word)
            else:
                rest.append(word)
        if len(taken) < need:
            raise MremixError(
                "cannot shuffle verbalizer: duplicate words across labels leave "
                f"no valid assignment for label {label!r}"
            )
        label_words[label] = tuple(taken)
        remaining = rest
    return Verbalizer(label_words=label_words, k=verbalizer.k)


class FileDistributionProvider:
    """Provider backed by precomputed per-word probabilities.

    The file is JSONL with one object per prompt:
    ``{"prompt": ..., "probs": {word: p, ...}, "covered": [word, ...]}``;
    ``covered`` is optional and defaults to the keys of ``probs``. Querying
    a prompt absent from the file is an error, and so is a row of the wrong
    shape: a non-string prompt, ``probs`` that is not an object of finite,
    non-negative numbers, or ``covered`` that is not a list of strings.

    Each row's probabilities, as floats, become integer weights over their
    common denominator once, at load, so ``weights[i] / total`` is the
    file's float exactly.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = str(path)
        self._table: dict[str, tuple[dict[str, int], int, frozenset[str]]] = {}
        for i, row in read_jsonl_numbered(path):
            if not isinstance(row, dict) or "prompt" not in row or "probs" not in row:
                raise DataError(f"{path}: line {i}: expected 'prompt' and 'probs' fields")
            prompt, probs = row["prompt"], row["probs"]
            if not isinstance(prompt, str):
                raise DataError(f"{path}: line {i}: 'prompt' must be a string")
            numbers = isinstance(probs, dict) and all(
                type(p) in (int, float) for p in probs.values()
            )
            if not numbers:
                raise DataError(f"{path}: line {i}: 'probs' must map words to numbers")
            # an exact comparison, so an integer beyond the float range fails too
            if not all(0 <= p <= _FLOAT_MAX for p in probs.values()):
                raise DataError(f"{path}: line {i}: 'probs' must be finite and non-negative")
            covered = row.get("covered", list(probs))
            if not isinstance(covered, list) or not all(isinstance(w, str) for w in covered):
                raise DataError(f"{path}: line {i}: 'covered' must be a list of words")
            ratios = [float(p).as_integer_ratio() for p in probs.values()]
            # float denominators are powers of two, so the largest is their common one
            total = max((d for _, d in ratios), default=1)
            weights = {w: n * (total // d) for w, (n, d) in zip(probs, ratios)}
            if sum(weights.values()) > _FLOAT_MAX * total:  # a label's mass could overflow
                raise DataError(f"{path}: line {i}: 'probs' must have a finite sum")
            self._table[prompt] = (weights, total, frozenset(covered))

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution:
        """The file's weight of each word (0 when it has none), in query order."""
        entry = self._table.get(prompt)
        if entry is None:
            raise DataError(f"{self._path}: no precomputed distribution for prompt {prompt!r}")
        weights, total, covered = entry
        return MaskDistribution(weights=[weights.get(word, 0) for word in words], total=total,
                                covered=covered.intersection(words))
