"""Knowledgeable verbalizers: construction, aggregation, and prediction.

A verbalizer maps each text-level label to a ranked list of words. To
classify a text, a probability provider scores every verbalizer word at
the mask position of a prompt; the per-label scores are the (weighted) sum
of the word probabilities, and the label with the highest score wins.

Verbalizers come from two sources: frequency statistics over a training
split's word-level entities (``build_from_wli``), or an external word-list
file (``load_external_kv``). Both require a fixed label schema; open-domain
datasets are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Protocol, Sequence

from .core import LabelSchema
from .errors import DataError, MremixError, SchemaError
from .ingest import Split
from .jsonio import open_text, read_jsonl_numbered, write_text
from .rng import SplitMix64, derive_seed_token

MASK_PLACEHOLDER = "{mask}"
TEXT_PLACEHOLDER = "{text}"

AGGREGATION_STRATEGIES = ("sum", "mean")

DEFAULT_WORDS_PER_LABEL = 100


@dataclass(frozen=True)
class MaskDistribution:
    """Probability mass per queried word at the mask position.

    ``covered`` holds the queried words the provider could actually score;
    uncovered words may still carry a smoothing floor, depending on the
    provider. No completeness over any vocabulary is implied.
    """

    probs: Mapping[str, float]
    covered: frozenset[str] = field(default_factory=frozenset)


class ProbabilityProvider(Protocol):
    """Deterministic source of mask-position word probabilities."""

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution: ...


@dataclass(frozen=True)
class Verbalizer:
    """Ranked (word, weight) lists per text-level label, at most k per label."""

    label_words: Mapping[str, tuple[tuple[str, float], ...]]
    k: int
    _all_words: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "label_words",
            {label: tuple(words) for label, words in self.label_words.items()},
        )
        for label, words in self.label_words.items():
            if len(words) > self.k:
                raise DataError(f"label {label!r} has more than k={self.k} words")
            surfaces = [w for w, _ in words]
            if len(set(surfaces)) != len(surfaces):
                raise DataError(f"label {label!r} lists a word more than once")
            if any(weight < 0 for _, weight in words):
                raise DataError(f"label {label!r} has a negative word weight")
        union = (word for words in self.label_words.values() for word, _ in words)
        object.__setattr__(self, "_all_words", tuple(dict.fromkeys(union)))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.label_words)

    def words_for(self, label: str) -> tuple[tuple[str, float], ...]:
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
    code-point order) with unit weight.
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

    label_words: dict[str, tuple[tuple[str, float], ...]] = {}
    for label in desc.schema.text_labels:
        table = counts[label]
        if not table:
            raise DataError(f"label {label!r} has no word-level entities in the training split")
        ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))[:k]
        label_words[label] = tuple((word, 1.0) for word, _ in ranked)
    return Verbalizer(label_words=label_words, k=k)


def load_external_kv(
    path: str | Path, schema: LabelSchema, k: int = DEFAULT_WORDS_PER_LABEL
) -> Verbalizer:
    """Load a verbalizer from a word-list file.

    File format: per-label blocks, a ``[label]`` header line followed by
    one word per line; '#' starts a comment. Every schema label must have a
    non-empty block; words are deduplicated keeping first occurrence and
    truncated to k, with unit weight.
    """
    _require_fixed_schema(schema)
    path = Path(path)
    blocks: dict[str, list[str]] = {}
    current: Optional[str] = None
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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

    label_words: dict[str, tuple[tuple[str, float], ...]] = {}
    for label in schema.text_labels:
        words = blocks.get(label)
        if words is None:
            raise DataError(f"{path}: missing block for schema label {label!r}")
        deduped: list[str] = []
        seen: set[str] = set()
        for word in words:
            if word not in seen:
                seen.add(word)
                deduped.append(word)
        if not deduped:
            raise DataError(f"{path}: label {label!r} has an empty word list")
        label_words[label] = tuple((word, 1.0) for word in deduped[:k])
    return Verbalizer(label_words=label_words, k=k)


def save_kv(verbalizer: Verbalizer, path: str | Path) -> None:
    """Export a verbalizer in the external word-list format (auditable, reloadable)."""
    lines: list[str] = []
    for label in verbalizer.labels():
        lines.append(f"[{label}]")
        lines.extend(word for word, _ in verbalizer.words_for(label))
        lines.append("")
    write_text(path, "\n".join(lines))


def aggregate(
    dist: MaskDistribution, verbalizer: Verbalizer, strategy: str = "sum"
) -> dict[str, float]:
    """Per-label scores: weighted sum of word probabilities (or per-label mean).

    Words absent from the distribution contribute zero. A word listed under
    several labels contributes its mass to each of them.
    """
    if strategy not in AGGREGATION_STRATEGIES:
        raise ValueError(f"unknown aggregation strategy: {strategy!r}")
    scores: dict[str, float] = {}
    for label in verbalizer.labels():
        words = verbalizer.words_for(label)
        total = 0.0
        for word, weight in words:
            total += weight * dist.probs.get(word, 0.0)
        if strategy == "mean" and words:
            total /= len(words)
        scores[label] = total
    return scores


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

    Ties (including the all-zero degenerate case) resolve to the earliest
    label in the verbalizer's schema order.
    """
    slots = prompt.count(MASK_PLACEHOLDER)
    if slots != 1:
        raise ValueError(f"prompt must contain exactly one {MASK_PLACEHOLDER} slot, found {slots}")
    words = verbalizer.all_words()
    dist = provider.score(prompt, words)
    scores = aggregate(dist, verbalizer, strategy=strategy)

    best_label: Optional[str] = None
    best_score = float("-inf")
    for label in verbalizer.labels():
        if scores[label] > best_score:
            best_label = label
            best_score = scores[label]
    assert best_label is not None  # verbalizers are never empty

    covered_any = any(word in dist.covered for word in words)
    all_zero = all(score == 0.0 for score in scores.values())
    return Prediction(label=best_label, scores=scores, no_coverage=not covered_any or all_zero)


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

    Per-label word counts and weights are preserved; only the
    word-to-label assignment changes. Deterministic for a given seed.
    """
    flat: list[tuple[str, float]] = []
    for label in verbalizer.labels():
        flat.extend(verbalizer.words_for(label))
    rng = SplitMix64(derive_seed_token(seed, "kv-shuffle"))
    rng.shuffle(flat)

    label_words: dict[str, tuple[tuple[str, float], ...]] = {}
    remaining = flat
    for label in verbalizer.labels():
        need = len(verbalizer.words_for(label))
        taken: list[tuple[str, float]] = []
        used: set[str] = set()
        rest: list[tuple[str, float]] = []
        for item in remaining:
            if len(taken) < need and item[0] not in used:
                taken.append(item)
                used.add(item[0])
            else:
                rest.append(item)
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
    """

    def __init__(self, path: str | Path) -> None:
        self._path = str(path)
        self._table: dict[str, tuple[dict[str, float], frozenset[str]]] = {}
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
            if not all(0 <= p < math.inf for p in probs.values()):
                raise DataError(f"{path}: line {i}: 'probs' must be finite and non-negative")
            covered = row.get("covered", list(probs))
            if not isinstance(covered, list) or not all(isinstance(w, str) for w in covered):
                raise DataError(f"{path}: line {i}: 'covered' must be a list of words")
            self._table[prompt] = ({w: float(p) for w, p in probs.items()}, frozenset(covered))

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution:
        entry = self._table.get(prompt)
        if entry is None:
            raise DataError(f"{self._path}: no precomputed distribution for prompt {prompt!r}")
        probs, covered = entry
        queried = {word: probs.get(word, 0.0) for word in words}
        return MaskDistribution(probs=queried, covered=frozenset(w for w in words if w in covered))
