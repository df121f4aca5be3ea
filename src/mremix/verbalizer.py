"""Knowledgeable verbalizers: construction, aggregation, and prediction.

A verbalizer maps each text-level label to a ranked list of words. To
classify a text, a probability provider scores the verbalizer's words at
the mask position of a prompt. The query is each label's words, in label
order; the provider returns one non-negative integer sum per label (the
summed weights of its words) and one integer total over the union of the
words, so a word's mass is its weight over the total. A label's score is
its sum over the total (over the total times the label's word count for
``mean``), rounded once. The label with the highest exact score wins; a
tie goes to the earliest label.

Verbalizers come from two sources: frequency statistics over a training
split's word-level entities (``build_from_wli``), or an external word-list
file (``load_external_kv``). Both require a fixed label schema; open-domain
datasets are excluded.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Protocol, Sequence

from .core import LabelSchema
from .errors import DataError, SchemaError
from .ingest import Split
from .jsonio import read_jsonl_numbered, read_lines_numbered, write_text
from .rng import SplitMix64, derive_seed_token

MASK_PLACEHOLDER = "{mask}"
TEXT_PLACEHOLDER = "{text}"

AGGREGATION_STRATEGIES = ("sum", "mean")

DEFAULT_WORDS_PER_LABEL = 100

_FLOAT_MAX = int(sys.float_info.max)


class MaskDistribution(NamedTuple):
    """Integer label sums at the mask position.

    ``sums[i]`` is the non-negative integer sum of the weights of the i-th
    queried label's words, so ``sums`` is a list as long as the query and
    in its order; a word the provider does not know still adds its
    smoothing floor (or 0). ``total`` is the positive integer weight of the
    union of the query's words (0 only for an empty query), so a label's
    mass is ``sums[i] / total``; ``probs`` derives those masses.
    ``covered`` holds the queried words the provider could actually score.
    No completeness over any vocabulary is implied. A named tuple, equal to
    the plain tuple of its fields.
    """

    sums: Sequence[int]
    total: int
    covered: frozenset[str] = frozenset()

    @property
    def probs(self) -> list[float]:
        total = self.total
        return [s / total for s in self.sums]


class ProbabilityProvider(Protocol):
    """Deterministic source of mask-position label sums."""

    def score(self, prompt: str, query: Sequence[tuple[str, ...]]) -> MaskDistribution:
        """One sum per label of ``query`` (its distinct words), in the same order."""
        ...


@dataclass(frozen=True)
class Verbalizer:
    """Ranked words per text-level label, at most k per label.

    ``query`` is the provider query: each label's words, in label order. It
    is fixed at construction, so every prediction passes the same object.
    """

    label_words: Mapping[str, tuple[str, ...]]
    k: int
    query: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "label_words",
            {label: tuple(words) for label, words in self.label_words.items()},
        )
        object.__setattr__(self, "query", tuple(self.label_words.values()))
        for label, words in self.label_words.items():
            if len(words) > self.k:
                raise DataError(f"label {label!r} has more than k={self.k} words")
            if len(set(words)) != len(words):
                raise DataError(f"label {label!r} lists a word more than once")

    def labels(self) -> tuple[str, ...]:
        return tuple(self.label_words)

    def words_for(self, label: str) -> tuple[str, ...]:
        return self.label_words[label]


def require_fixed_schema(schema: LabelSchema) -> None:
    """Refuse an open-domain schema: a verbalizer needs a fixed label set."""
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
    require_fixed_schema(desc.schema)
    if train.role != "train":
        raise DataError(f"verbalizer construction requires a train split, got {train.role!r}")
    if k <= 0:
        raise DataError("words-per-label k must be positive")

    second = itemgetter(1)  # a pair's entity, a (word, count) item's count
    pairs_of: dict[str, list] = {label: [] for label in desc.schema.text_labels}
    for record in train.records:
        label_pairs = pairs_of.get(record.text_label)
        if label_pairs is not None:
            label_pairs.append(record.pairs)

    label_words: dict[str, tuple[str, ...]] = {}
    for label, label_pairs in pairs_of.items():
        table = Counter(map(second, chain.from_iterable(label_pairs)))
        if not table:
            raise DataError(f"label {label!r} has no word-level entities in the training split")
        # by count, most first, ties by code point. Only words that reach the
        # k-th largest count can rank in the first k, so only those are
        # sorted: a stable sort on counts after a sort on words, with no key
        # built per word
        cut = sorted(table.values(), reverse=True)[min(k, len(table)) - 1]
        ranked = sorted(compress(table.items(), map(cut.__le__, table.values())))
        ranked.sort(key=second, reverse=True)
        label_words[label] = tuple(word for word, _ in ranked[:k])
    return Verbalizer(label_words=label_words, k=k)


def load_external_kv(
    path: str | Path, schema: LabelSchema, k: int = DEFAULT_WORDS_PER_LABEL
) -> Verbalizer:
    """Load a verbalizer from a word-list file.

    File format: per-label blocks, a ``[label]`` header line followed by
    one word per line; '#' starts a comment. Every schema label must have
    exactly one non-empty block; words are deduplicated keeping first
    occurrence and truncated to k.
    """
    require_fixed_schema(schema)
    blocks: dict[str, list[str]] = {}
    headers: dict[str, int] = {}  # label -> the line of its block's header
    current: Optional[list[str]] = None
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
            if label in headers:
                raise DataError(f"{path}: line {lineno}: second block for label {label!r} "
                                f"(first on line {headers[label]})")
            headers[label] = lineno
            current = blocks[label] = []
            continue
        if current is None:
            raise DataError(f"{path}: line {lineno}: word before any [label] header")
        current.append(line)

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


def kv_text(verbalizer: Verbalizer) -> str:
    """A verbalizer in the external word-list format (auditable, reloadable).

    A word that would not reload as itself is a ``DataError``: an empty
    word, one with surrounding whitespace, one holding a '#' or a line
    break, or one of the form ``[...]``.
    """
    lines: list[str] = []
    for label in verbalizer.labels():
        lines.append(f"[{label}]")
        for word in verbalizer.words_for(label):
            if (word != word.strip() or not word or "#" in word or "\n" in word or "\r" in word
                    or word.startswith("[") and word.endswith("]")):
                raise DataError(f"label {label!r}: word {word!r} would not reload "
                                "from a word-list file")
            lines.append(word)
        lines.append("")
    return "\n".join(lines)


def save_kv(verbalizer: Verbalizer, path: str | Path) -> None:
    """Write ``kv_text(verbalizer)``, refusing a bad word before the file is written."""
    write_text(path, kv_text(verbalizer))


class Prediction(NamedTuple):
    """Result of one mask-position classification (a named tuple)."""

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

    Each label's score is its integer sum over the total, divided by the
    label's word count for ``mean``. The argmax compares the exact scores:
    the sums, cross-multiplied by the word counts for ``mean``. Ties
    (including the all-zero degenerate case) resolve to the earliest label
    in the verbalizer's schema order.
    """
    if strategy not in AGGREGATION_STRATEGIES:
        raise ValueError(f"unknown aggregation strategy: {strategy!r}")
    slots = prompt.count(MASK_PLACEHOLDER)
    if slots != 1:
        raise ValueError(f"the prompt built from its text has {slots} {MASK_PLACEHOLDER} slots; "
                         "it must have exactly one")
    query = verbalizer.query
    dist = provider.score(prompt, query)
    if len(dist.sums) != len(query):
        raise ValueError(f"distribution has {len(dist.sums)} sums for {len(query)} labels")
    sums, total = dist.sums, dist.total
    if strategy == "mean":
        counts = [len(words) or 1 for words in query]
        best, best_sum, best_n = 0, sums[0], counts[0]  # verbalizers are never empty
        for i, (s, n) in enumerate(zip(sums, counts)):
            if s * best_n > best_sum * n:
                best, best_sum, best_n = i, s, n
        scores = [s / (total * n) for s, n in zip(sums, counts)]
    else:
        best_sum = max(sums)
        best = sums.index(best_sum)  # the earliest of the largest
        scores = [s / total for s in sums]
    labels = verbalizer.labels()
    no_coverage = best_sum == 0 or not dist.covered
    return Prediction(labels[best], dict(zip(labels, scores)), no_coverage)


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

    Each label keeps its word count and the pool keeps each word's copies;
    only the word-to-label assignment changes, and no label gets a word
    twice. The distinct words, shuffled under the ``kv-shuffle`` sub-stream
    and then stably sorted most-shared first, are dealt in turn to the
    labels with the most room left, ties going in shuffled label order. The
    input is itself a valid assignment, so dealt this way the words always
    fit (the Gale-Ryser construction). Deterministic for a given seed.
    """
    copies = Counter(chain.from_iterable(verbalizer.label_words.values()))
    words, labels = list(copies), list(verbalizer.labels())
    rng = SplitMix64(derive_seed_token(seed, "kv-shuffle"))
    rng.shuffle(words)
    rng.shuffle(labels)
    words.sort(key=copies.__getitem__, reverse=True)  # a stable sort, reversed or not
    room = {label: len(verbalizer.words_for(label)) for label in labels}
    dealt: dict[str, list[str]] = {label: [] for label in labels}
    for word in words:
        for label in sorted(labels, key=room.__getitem__, reverse=True)[:copies[word]]:
            dealt[label].append(word)
            room[label] -= 1
    return Verbalizer(label_words={label: tuple(dealt[label]) for label in verbalizer.labels()},
                      k=verbalizer.k)


class FileDistributionProvider:
    """Provider backed by precomputed per-word probabilities.

    The file is JSONL with one object per prompt:
    ``{"prompt": ..., "probs": {word: p, ...}, "covered": [word, ...]}``;
    ``covered`` is optional and defaults to the keys of ``probs``. Querying
    a prompt absent from the file is an error, and so is a row of the wrong
    shape: a non-string prompt, ``probs`` that is not an object of finite,
    non-negative numbers, or ``covered`` that is not a list of strings. A
    prompt may repeat only with an equal row (the same probabilities and
    covered words); a different one is an error naming both lines.

    Each row's probabilities, as floats, become integer weights over their
    common denominator once, at load, so a word's weight over the total is
    the file's float exactly, and a label's sum is its words' weights
    summed.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = str(path)
        self._table: dict[str, tuple[dict[str, int], int, frozenset[str]]] = {}
        lines: dict[str, int] = {}  # each prompt's first line
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
            entry = (weights, total, frozenset(covered))
            first = lines.setdefault(prompt, i)
            if self._table.setdefault(prompt, entry) != entry:
                raise DataError(f"{path}: line {i}: the row of prompt {prompt!r} differs "
                                f"from its row at line {first}")

    def score(self, prompt: str, query: Sequence[tuple[str, ...]]) -> MaskDistribution:
        """Each label's summed file weights (0 for a word it lacks), in query order."""
        entry = self._table.get(prompt)
        if entry is None:
            raise DataError(f"{self._path}: no precomputed distribution for prompt {prompt!r}")
        weights, total, covered = entry
        return MaskDistribution(sums=[sum(map(weights.get, words, repeat(0))) for words in query],
                                total=total, covered=covered.intersection(chain(*query)))
