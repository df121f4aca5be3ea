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
from typing import Iterator, Optional, Sequence

from .cooc import CoocTable
from .errors import DataError
from .ingest import Split
from .verbalizer import MASK_PLACEHOLDER, MaskDistribution

WHITESPACE_LANGUAGES = frozenset({"en"})

# Queries whose plan a count model keeps: a new one beyond this drops the
# older ones, so memory stays bounded, and a caller cycling through more
# than this rebuilds the table's index on every call.
MAX_QUERIES = 4


@dataclass(frozen=True)
class Segmenter:
    """Word segmentation policy: whitespace or lexicon-driven greedy matching.

    Lexicon languages keep the lexicon as a set, and its longest entry's
    length, from construction; whitespace languages keep an empty lexicon.
    """

    language: str
    lexicon: frozenset[str] = frozenset()
    _max_len: int = field(init=False, repr=False, compare=False, default=1)

    def __post_init__(self) -> None:
        whitespace = self.language in WHITESPACE_LANGUAGES
        object.__setattr__(self, "lexicon", frozenset() if whitespace else frozenset(self.lexicon))
        object.__setattr__(self, "_max_len", max(map(len, self.lexicon), default=1))

    def __call__(self, text: str) -> list[str]:
        if self.language in WHITESPACE_LANGUAGES:
            return text.split()
        return _greedy_segment(text, self.lexicon, self._max_len)


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


def lexicon_from_split(split: Split) -> Iterator[str]:
    """The word-level entity strings of a split, read only by a lexicon ``Segmenter``."""
    return (pair.entity for record in split.records for pair in record.pairs)


@dataclass(frozen=True)
class _QueryPlan:
    """The query-only part of scoring: where its groups sit in the joint group
    tuple (each label's vocabulary ids, then the union's), and their floors."""

    query: tuple[tuple[str, ...], ...]
    start: int  # index of its first group in the model's joint group tuple
    floors: tuple[int, ...]  # A times each group's word count, unknown words included
    covered: frozenset[str]


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
        self._alpha_ratio = alpha.as_integer_ratio()
        self._plans: list[_QueryPlan] = []
        self._groups: tuple[tuple[int, ...], ...] = ()  # every kept plan's groups, in order
        self._prompt: Optional[str] = None  # the last prompt scored, and
        self._counts: Optional[list[int]] = None  # its context sums over ``_groups``

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

    def score(self, prompt: str, query: Sequence[tuple[str, ...]]) -> MaskDistribution:
        """Each label's integer sum at the mask position, and the union's total.

        A word listed under two labels counts in both sums and once in the
        total. Words outside the training vocabulary keep the smoothing
        floor but are not covered; a word repeated within one label is a
        ``ValueError``. The query-only part of the work is planned once per
        distinct query (see ``_plan``). A prompt's context sums are computed
        over the groups of every kept plan at once and kept until another
        prompt or a new plan comes, so scoring one prompt with each of
        several queries in turn segments and sums it once.
        """
        plan = self._find_plan(query)
        if prompt != self._prompt:
            self._counts = self._context_sums(prompt)
            self._prompt = prompt
        sums = plan.floors
        if self._counts is not None:
            scale = self._alpha_ratio[1]
            counts = self._counts[plan.start:plan.start + len(sums)]
            sums = [floor + scale * s for floor, s in zip(sums, counts)]
        return MaskDistribution(sums=list(sums[:-1]), total=sums[-1], covered=plan.covered)

    def _context_sums(self, prompt: str) -> Optional[list[int]]:
        """The prompt's context sums over the joint groups (None: all zero)."""
        vocab = self._vocab
        context_text = prompt.replace(MASK_PLACEHOLDER, " ")
        context_ids = [vocab[token] for token in self.segmenter(context_text) if token in vocab]
        if not context_ids or not any(self._groups):
            return None
        return self._table.context_sums(context_ids, self._groups)

    def _find_plan(self, query: Sequence[tuple[str, ...]]) -> _QueryPlan:
        """The kept plan of ``query``, found by identity, then by value, else a new one."""
        for plan in self._plans:
            if plan.query is query:
                return plan
        key = tuple(map(tuple, query))
        for plan in self._plans:
            if plan.query == key:
                return plan
        # keep the caller's tuple of tuples, so its next call is found by identity
        return self._plan(query if query == key else key)

    def _plan(self, query: tuple[tuple[str, ...], ...]) -> _QueryPlan:
        """Resolve each label's distinct words against the vocabulary, and keep the
        result; its groups join the joint group tuple, which drops the last prompt's sums."""
        if any(len(set(words)) != len(words) for words in query):
            raise ValueError("query words must be distinct within a label")
        if len(self._plans) >= MAX_QUERIES:
            self._plans.clear()
            self._groups = ()
        union = tuple(dict.fromkeys(word for words in query for word in words))
        vocab = self._vocab
        floor = self._alpha_ratio[0]
        plan = _QueryPlan(
            query=query,
            start=len(self._groups),
            floors=tuple(floor * len(words) for words in (*query, union)),
            covered=frozenset(filter(vocab.__contains__, union)),
        )
        self._plans.append(plan)
        self._groups += tuple(tuple(vocab[w] for w in words if w in vocab)
                              for words in (*query, union))
        self._prompt = None
        return plan
