"""Knowledgeable verbalizers: construction, aggregation, and prediction.

A verbalizer maps each text-level label to a ranked list of words. To
classify a text, a probability provider scores every verbalizer word at
the mask position of a prompt, returning one mass per queried word in
query order. The query is the union of the labels' words, and each label
knows its words' positions in it, so a label's score is a fold of the
masses at its positions: the (weighted) sum, in label-word order, or
that sum over the label's word count. The label with the highest score
wins; a tie, decided exactly on the provider's unnormalized weights
rather than on the rounded scores, goes to the earliest label.

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
    """Probability mass of each queried word at the mask position.

    ``probs[i]`` is the mass of the i-th queried word, so ``probs`` is as
    long as the query and in its order; a word the provider does not know
    still has an entry (its smoothing floor, or 0.0). ``weights``, when
    given, are the exact unnormalized masses that ``probs`` are proportional
    to (same length and order, numbers with an exact ``as_integer_ratio()``
    such as ints, floats, ``Fraction`` or ``Decimal``; None means ``probs``
    are their own weights); they settle ties exactly and take no part in
    equality. ``covered`` holds the queried words the provider could
    actually score. No completeness over any vocabulary is implied.
    """

    probs: Sequence[float]
    covered: frozenset[str] = field(default_factory=frozenset)
    weights: Optional[Sequence] = field(default=None, compare=False)


class ProbabilityProvider(Protocol):
    """Deterministic source of mask-position word probabilities."""

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution:
        """One mass per word of ``words``, in the same order."""
        ...


# A float label score of n words is its exact value times (1 + e), with
# |e| below about (n + 3) * 2**-53: one rounding for each word's float
# weight (such as alpha + count), its mass (weight over total) and the
# product with the word's label weight, the n - 1 additions of the fold
# and the mean's division. Two scores further apart than twice that,
# relative to their sum, are ordered as their exact values are; the factor
# two also covers the rounding of the comparison itself.
_ROUNDING_PER_STEP = 2.0 ** -52
# Absolute slack: more than all the subnormal rounding error of a fold.
_ROUNDING_FLOOR = 2.0 ** -1022


@dataclass(frozen=True)
class Verbalizer:
    """Ranked (word, weight) lists per text-level label, at most k per label.

    Construction also fixes the query, ``_all_words``: the labels' words,
    first-seen order, once each. ``_folds`` holds, per label, the positions
    of its words in the query and their weights.
    """

    label_words: Mapping[str, tuple[tuple[str, float], ...]]
    k: int
    _all_words: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    _folds: tuple[tuple[str, tuple[int, ...], tuple[float, ...]], ...] = field(
        init=False, repr=False, compare=False, default=())
    _tolerance: float = field(init=False, repr=False, compare=False, default=0.0)

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
        position = {word: i for i, word in enumerate(dict.fromkeys(union))}
        folds = tuple(
            (label, tuple(position[w] for w, _ in words), tuple(weight for _, weight in words))
            for label, words in self.label_words.items()
        )
        longest = max((len(words) for words in self.label_words.values()), default=0)
        object.__setattr__(self, "_all_words", tuple(position))
        object.__setattr__(self, "_folds", folds)
        object.__setattr__(self, "_tolerance", (longest + 3) * _ROUNDING_PER_STEP)

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

    ``dist`` answers the query ``verbalizer.all_words()``, one mass per
    word in that order. Each label's score is the sequential fold
    ``0.0 + w1*p1 + w2*p2 + ...`` over its words in label order, divided
    by the word count for ``mean``. A word listed under several labels
    contributes its mass to each of them.
    """
    if strategy not in AGGREGATION_STRATEGIES:
        raise ValueError(f"unknown aggregation strategy: {strategy!r}")
    probs = dist.probs
    if len(probs) != len(verbalizer._all_words):
        raise ValueError(
            f"distribution has {len(probs)} masses for {len(verbalizer._all_words)} query words"
        )
    mean = strategy == "mean"
    scores: dict[str, float] = {}
    for label, positions, weights in verbalizer._folds:
        total = 0.0
        for i, weight in zip(positions, weights):
            total += weight * probs[i]
        if mean and positions:
            total /= len(positions)
        scores[label] = total
    return scores


def _exact_argmax(
    candidates: set[str], dist: MaskDistribution, verbalizer: Verbalizer, strategy: str
) -> str:
    """The earliest of ``candidates`` with the largest exact score.

    The masses are proportional to the provider's weights, by one factor
    for all words, so comparing the labels' sums of label weight times
    provider weight compares their true scores. Each product is an exact
    ratio of integers, and every sum is taken over the least common
    denominator of all of them. For ``mean`` the sums are cross-multiplied
    by the word counts.
    """
    masses = dist.probs if dist.weights is None else dist.weights
    terms = {
        label: [(weight.as_integer_ratio(), masses[i].as_integer_ratio())
                for i, weight in zip(positions, weights)]
        for label, positions, weights in verbalizer._folds if label in candidates
    }
    scale = math.lcm(*(d * e for pairs in terms.values() for (_, d), (_, e) in pairs))
    best, best_sum, best_count = "", -1, 1
    for label, pairs in terms.items():
        exact = sum(n * m * (scale // (d * e)) for (n, d), (m, e) in pairs)
        count = len(pairs) if strategy == "mean" and pairs else 1
        if exact * best_count > best_sum * count:
            best, best_sum, best_count = label, exact, count
    return best


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
    label in the verbalizer's schema order. A tie is one of exact scores:
    when another label's float score lies within the rounding bound of the
    best one, the candidates are compared on the provider's unnormalized
    weights in exact arithmetic (see ``_exact_argmax``), so rounding never
    decides the label.
    """
    slots = prompt.count(MASK_PLACEHOLDER)
    if slots != 1:
        raise ValueError(f"prompt must contain exactly one {MASK_PLACEHOLDER} slot, found {slots}")
    words = verbalizer._all_words
    dist = provider.score(prompt, words)
    scores = aggregate(dist, verbalizer, strategy=strategy)

    best_label: Optional[str] = None
    best_score = float("-inf")
    for label, score in scores.items():
        if score > best_score:
            best_label = label
            best_score = score
    assert best_label is not None  # verbalizers are never empty

    tolerance = verbalizer._tolerance
    near = {label for label, score in scores.items()
            if best_score - score <= tolerance * (best_score + score) + _ROUNDING_FLOOR}
    if len(near) > 1:
        best_label = _exact_argmax(near, dist, verbalizer, strategy)

    covered_any = not dist.covered.isdisjoint(words)
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
        """The file's probability of each word (0.0 when it has none), in query order."""
        entry = self._table.get(prompt)
        if entry is None:
            raise DataError(f"{self._path}: no precomputed distribution for prompt {prompt!r}")
        probs, covered = entry
        queried = [probs.get(word, 0.0) for word in words]
        return MaskDistribution(probs=queried, covered=covered.intersection(words))
