"""A tiny count-based masked-word probability model.

This is the built-in ProbabilityProvider: deterministic, trainable on a
handful of texts, and good enough to exercise the whole verbalizer
pipeline at desk scale. It is not a neural model and makes no claim about
matching any fine-tuned system's scores.

Scoring: for a prompt with one mask slot and a set of query words,

    P(w)  proportional to  alpha + sum over context tokens c of count(c, w)

normalized over the distinct query words. Context tokens are all non-mask
words of the prompt; counts come from symmetric within-text co-occurrence
over the training corpus. The total is the left-to-right sum of the
weights ``alpha + sum`` as floats; the weights are also returned, in query
order like the probabilities. They are exact for an integer ``alpha``.

Segmentation is whitespace for English. For Chinese and Japanese it is a
greedy longest-match against a caller-supplied lexicon (typically the
dataset's own word-level entity strings) with single-character fallback,
which avoids any external segmenter while covering exactly the units the
verbalizer queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, truediv
from typing import Iterable, Optional, Sequence

from .cooc import CoocTable
from .errors import DataError
from .ingest import Split
from .verbalizer import MASK_PLACEHOLDER, MaskDistribution

WHITESPACE_LANGUAGES = frozenset({"en"})


@dataclass(frozen=True)
class Segmenter:
    """Word segmentation policy: whitespace or lexicon-driven greedy matching.

    Lexicon languages build the lookup set and the longest entry length
    once, at construction; whitespace languages hold neither.
    """

    language: str
    lexicon: tuple[str, ...] = ()
    _lexicon_set: frozenset[str] = field(init=False, repr=False, compare=False, default=frozenset())
    _max_len: int = field(init=False, repr=False, compare=False, default=1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lexicon", tuple(self.lexicon))
        if self.language not in WHITESPACE_LANGUAGES:
            object.__setattr__(self, "_lexicon_set", frozenset(self.lexicon))
            object.__setattr__(self, "_max_len", max(map(len, self.lexicon), default=1))

    def __call__(self, text: str) -> list[str]:
        if self.language in WHITESPACE_LANGUAGES:
            return text.split()
        return _greedy_segment(text, self._lexicon_set, self._max_len)


def _greedy_segment(text: str, lexicon: frozenset[str], max_len: int) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        longest = min(max_len, n - i)
        matched = None
        for length in range(longest, 0, -1):
            candidate = text[i : i + length]
            if candidate in lexicon:
                matched = candidate
                break
        if matched is not None:
            tokens.append(matched)
            i += len(matched)
            continue
        ch = text[i]
        if not ch.isspace():
            tokens.append(ch)
        i += 1
    return tokens


def make_segmenter(language: str, lexicon: Iterable[str] = ()) -> Segmenter:
    return Segmenter(language=language, lexicon=tuple(lexicon))


def lexicon_from_split(split: Split) -> tuple[str, ...]:
    """All distinct word-level entity strings of a split, sorted."""
    entities = {pair.entity for record in split.records for pair in record.pairs}
    return tuple(sorted(entities))


# Word lists whose query plan is kept at once; a new list beyond this drops
# the older plans.
_MAX_PLANS = 16


@dataclass(frozen=True)
class _QueryPlan:
    """The word-list-only part of scoring: distinct queries and their vocabulary ids."""

    queries: tuple[str, ...]  # first-seen order
    known_positions: tuple[int, ...]  # positions in ``queries`` of in-vocabulary words
    known_ids: tuple[int, ...]  # their vocabulary ids, in the same order
    covered: frozenset[str]
    # Each word's position in ``queries`` when a word repeats: the provider
    # contract takes any word list and answers every entry, and a repeated
    # word counts once in the total.
    spread: Optional[tuple[int, ...]]


class CountModel:
    """Bag-of-words co-occurrence model over a segmented corpus."""

    def __init__(self, table: CoocTable, vocab: dict[str, int], segmenter: Segmenter,
                 alpha: float = 1.0) -> None:
        if not 0 < alpha < math.inf:
            raise DataError("smoothing constant alpha must be finite and positive")
        self._table = table
        self._vocab = vocab
        self.segmenter = segmenter
        self.alpha = alpha
        self._plans: dict[tuple[str, ...], _QueryPlan] = {}

    @classmethod
    def train(cls, corpus: Sequence[str], segmenter: Segmenter, alpha: float = 1.0) -> "CountModel":
        """Count co-occurrences between all word positions of each text."""
        if not corpus:
            raise DataError("cannot train a count model on an empty corpus")
        table = CoocTable()
        vocab: dict[str, int] = {}
        for text in corpus:
            table.observe([vocab.setdefault(token, len(vocab)) for token in segmenter(text)])
        return cls(table=table, vocab=vocab, segmenter=segmenter, alpha=alpha)

    # -- introspection --

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._vocab)

    # -- the provider contract --

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution:
        """Mask-position distribution over the query words, in query order.

        Query words outside the training vocabulary keep the smoothing
        floor but are flagged uncovered. A repeated query word is counted
        once in the total and gets the same mass at each of its positions.
        The word-list-only part of the work is planned once per distinct
        word list (see ``_plan``).
        """
        key = tuple(words)
        plan = self._plans.get(key) or self._plan(key)
        if not plan.queries:
            return MaskDistribution(probs=[], covered=frozenset(), weights=[])

        context_text = prompt.replace(MASK_PLACEHOLDER, " ")
        vocab = self._vocab
        context_ids = [vocab[token] for token in self.segmenter(context_text) if token in vocab]
        alpha = self.alpha
        weights = [alpha] * len(plan.queries)
        if plan.known_ids and context_ids:
            sums = self._table.context_sums(context_ids, plan.known_ids)
            for i, s in zip(plan.known_positions, sums):
                weights[i] = alpha + s

        total = reduce(add, weights)  # sequential, unlike sum() of floats since Python 3.12
        probs = list(map(truediv, weights, repeat(total)))
        if plan.spread is not None:
            probs = [probs[i] for i in plan.spread]
            weights = [weights[i] for i in plan.spread]
        return MaskDistribution(probs=probs, covered=plan.covered, weights=weights)

    def _plan(self, words: tuple[str, ...]) -> "_QueryPlan":
        """Deduplicate ``words`` and resolve them against the vocabulary, and keep the result."""
        position = {word: i for i, word in enumerate(dict.fromkeys(words))}
        queries = tuple(position)
        known = [(i, self._vocab[w]) for i, w in enumerate(queries) if w in self._vocab]
        plan = _QueryPlan(
            queries=queries,
            known_positions=tuple(i for i, _ in known),
            known_ids=tuple(wid for _, wid in known),
            covered=frozenset(queries[i] for i, _ in known),
            spread=None if len(queries) == len(words) else tuple(map(position.get, words)),
        )
        if len(self._plans) >= _MAX_PLANS:
            self._plans.clear()
        self._plans[words] = plan
        return plan
