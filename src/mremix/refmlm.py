"""A tiny count-based masked-word probability model.

This is the built-in ProbabilityProvider: deterministic, trainable on a
handful of texts, and good enough to exercise the whole verbalizer
pipeline at desk scale. It is not a neural model and makes no claim about
matching any fine-tuned system's scores.

Scoring: for a prompt with one mask slot and a query of word groups (a
verbalizer's labels),

    P(w)  proportional to  alpha + sum over context tokens c of count(c, w)

normalized over the union of the groups' words. Context tokens are all
non-mask words of the prompt; counts come from symmetric within-text
co-occurrence over the training corpus. With ``alpha`` as the exact ratio
A/D, a word's weight is the integer ``A + D * sum``, so a group's sum is
``A * n + D * s`` for its n words and their summed counts s, and the total
is the same over the union: every mass is exact.

Segmentation is whitespace for English. For Chinese and Japanese it is a
greedy longest-match against a caller-supplied lexicon (typically the
dataset's own word-level entity strings) with single-character fallback,
which avoids any external segmenter while covering exactly the units the
verbalizer queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Sequence

from .cooc import CoocTable
from .errors import DataError
from .ingest import Split
from .verbalizer import MASK_PLACEHOLDER, MaskDistribution

WHITESPACE_LANGUAGES = frozenset({"en"})


@dataclass(frozen=True)
class Segmenter:
    """Word segmentation policy: whitespace or lexicon-driven greedy matching.

    Lexicon languages keep the lexicon as a set, its longest entry's length
    and the set of its entries' first characters, from construction;
    whitespace languages keep an empty lexicon.
    """

    language: str
    lexicon: frozenset[str] = frozenset()
    _max_len: int = field(init=False, repr=False, compare=False, default=1)
    _starts: frozenset[str] = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self) -> None:
        whitespace = self.language in WHITESPACE_LANGUAGES
        lexicon = frozenset() if whitespace else frozenset(self.lexicon)
        object.__setattr__(self, "lexicon", lexicon)
        object.__setattr__(self, "_max_len", max(map(len, lexicon), default=1))
        # each entry's ``[:1]``: an empty entry adds "", which no character equals
        object.__setattr__(self, "_starts", frozenset(map(itemgetter(slice(1)), lexicon)))

    def __call__(self, text: str) -> list[str]:
        if self.language in WHITESPACE_LANGUAGES:
            return text.split()
        return _greedy_segment(text, self.lexicon, self._max_len, self._starts)


def _greedy_segment(text: str, lexicon: frozenset[str], max_len: int,
                    starts: frozenset[str]) -> list[str]:
    """Longest lexicon match at each position, else the character itself
    (dropped if it is whitespace). A character that starts no entry costs
    one set lookup; only one that does is matched against the lexicon."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        matched = None
        if ch in starts:
            for length in range(min(max_len, n - i), 0, -1):
                candidate = text[i : i + length]
                if candidate in lexicon:
                    matched = candidate
                    break
        if matched is not None:
            tokens.append(matched)
            i += len(matched)
            continue
        if not ch.isspace():
            tokens.append(ch)
        i += 1
    return tokens


def lexicon_from_split(split: Split) -> Iterator[str]:
    """The word-level entity strings of a split, read only by a lexicon ``Segmenter``."""
    return map(itemgetter(1), chain.from_iterable(map(attrgetter("pairs"), split.records)))


@dataclass(frozen=True)
class _QueryPlan:
    """The query-only part of scoring: where its groups sit in the joint group
    tuple (each label's vocabulary ids, then the union's), and their floors."""

    start: int  # index of its first group in the model's joint group tuple
    floors: tuple[int, ...]  # A times each group's word count, unknown words included
    covered: frozenset[str]


class CountModel:
    """Bag-of-words co-occurrence model over a segmented corpus, built for the
    queries it will score: their groups share one joint tuple and one index."""

    def __init__(self, table: CoocTable, vocab: dict[str, int], segmenter: Segmenter,
                 queries: Sequence[Sequence[Sequence[str]]], alpha: float = 1.0) -> None:
        if not 0 < alpha < math.inf:
            raise DataError("smoothing constant alpha must be finite and positive")
        self._table = table
        self._vocab = vocab
        self.segmenter = segmenter
        self.alpha = alpha
        self._alpha_ratio = alpha.as_integer_ratio()
        floor = self._alpha_ratio[0]
        self._plans: dict[tuple[tuple[str, ...], ...], _QueryPlan] = {}  # by query
        groups: list[tuple[int, ...]] = []
        for query in queries:
            key = tuple(map(tuple, query))
            if any(len(set(words)) != len(words) for words in key):
                raise ValueError("query words must be distinct within a label")
            union = tuple(dict.fromkeys(chain.from_iterable(key)))
            # keyed by the caller's tuple of tuples, so its calls are found by identity
            self._plans[query if query == key else key] = _QueryPlan(
                len(groups), tuple(floor * len(words) for words in (*key, union)),
                frozenset(filter(vocab.__contains__, union)))
            groups += (tuple(vocab[w] for w in words if w in vocab) for words in (*key, union))
        # the keys above hold each query, so no other object can take its id
        self._by_identity = {id(query): plan for query, plan in self._plans.items()}
        self._groups = tuple(groups)
        self._prompt: Optional[str] = None  # the last prompt scored, and
        self._counts: Optional[list[int]] = None  # its context sums (None: all zero)

    @classmethod
    def train(cls, corpus: Sequence[str], segmenter: Segmenter,
              queries: Sequence[Sequence[Sequence[str]]], alpha: float = 1.0) -> "CountModel":
        """Count co-occurrences between all word positions of each text."""
        if not corpus:
            raise DataError("cannot train a count model on an empty corpus")
        table = CoocTable()
        vocab: dict[str, int] = {}
        for text in corpus:
            table.observe([vocab.setdefault(token, len(vocab)) for token in segmenter(text)])
        return cls(table=table, vocab=vocab, segmenter=segmenter, queries=queries, alpha=alpha)

    # -- introspection --

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._vocab)

    # -- the provider contract --

    def score(self, prompt: str, query: Sequence[tuple[str, ...]]) -> MaskDistribution:
        """Each label's integer sum at the mask position, and the union's total.

        A word listed under two labels counts in both sums and once in the
        total. Words outside the training vocabulary keep the smoothing
        floor but are not covered. ``query`` is one the model was trained
        with, the same object or an equal one; any other is a ``ValueError``.
        The last prompt's context sums, over every query's groups, are kept,
        so scoring a prompt with each query in turn segments and sums it once.
        """
        plan = self._find_plan(query)
        if prompt != self._prompt:
            vocab, groups = self._vocab, self._groups
            tokens = self.segmenter(prompt.replace(MASK_PLACEHOLDER, " "))
            context_ids = [vocab[token] for token in tokens if token in vocab]
            self._counts = (self._table.context_sums(context_ids, groups)
                            if context_ids and any(groups) else None)
            self._prompt = prompt
        sums = plan.floors
        if self._counts is not None:
            scale = self._alpha_ratio[1]
            counts = self._counts[plan.start:plan.start + len(sums)]
            sums = [floor + scale * s for floor, s in zip(sums, counts)]
        return MaskDistribution(sums=list(sums[:-1]), total=sums[-1], covered=plan.covered)

    def _find_plan(self, query: Sequence[tuple[str, ...]]) -> _QueryPlan:
        """The plan of ``query``, found by identity, then by value."""
        plan = self._by_identity.get(id(query)) or self._plans.get(tuple(map(tuple, query)))
        if plan is None:
            raise ValueError("the count model was not trained with this query")
        return plan
