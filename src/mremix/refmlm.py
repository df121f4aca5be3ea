"""A tiny count-based masked-word probability model.

This is the built-in ProbabilityProvider: deterministic, trainable on a
handful of texts, and good enough to exercise the whole verbalizer
pipeline at desk scale. It is not a neural model and makes no claim about
matching any fine-tuned system's scores.

Scoring: for a prompt with one mask slot and a set of query words,

    P(w)  proportional to  alpha + sum over context tokens c of count(c, w)

normalized over the query set. Context tokens are all non-mask words of
the prompt; counts come from symmetric within-text co-occurrence over the
training corpus.

Segmentation is whitespace for English. For Chinese and Japanese it is a
greedy longest-match against a caller-supplied lexicon (typically the
dataset's own word-level entity strings) with single-character fallback,
which avoids any external segmenter while covering exactly the units the
verbalizer queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .cooc import CoocTable
from .errors import DataError
from .ingest import Split
from .jsonio import open_text, write_text
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


class CountModel:
    """Bag-of-words co-occurrence model over a segmented corpus."""

    def __init__(self, table: CoocTable, vocab: dict[str, int], words: list[str],
                 segmenter: Segmenter, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise DataError("smoothing constant alpha must be positive")
        self._table = table
        self._vocab = vocab
        self._words = words
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
        words: list[str] = []
        for text in corpus:
            ids = []
            for token in segmenter(text):
                wid = vocab.get(token)
                if wid is None:
                    wid = len(words)
                    vocab[token] = wid
                    words.append(token)
                ids.append(wid)
            table.observe(ids)
        return cls(table=table, vocab=vocab, words=words, segmenter=segmenter, alpha=alpha)

    # -- introspection (word-keyed; backend-independent) --

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._vocab)

    def pair_count(self, a: str, b: str) -> int:
        ia, ib = self._vocab.get(a), self._vocab.get(b)
        if ia is None or ib is None:
            return 0
        return self._table.pair_count(ia, ib)

    def global_count(self, w: str) -> int:
        wid = self._vocab.get(w)
        return 0 if wid is None else self._table.global_count(wid)

    # -- the provider contract --

    def score(self, prompt: str, words: Sequence[str]) -> MaskDistribution:
        """Mask-position distribution over the query words.

        Query words outside the training vocabulary keep the smoothing
        floor but are flagged uncovered. Duplicate query words collapse.
        The word-list-only part of the work is planned once per distinct
        word list (see ``_plan``).
        """
        key = tuple(words)
        plan = self._plans.get(key) or self._plan(key)
        if not plan.queries:
            return MaskDistribution(probs={}, covered=frozenset())

        context_text = prompt.replace(MASK_PLACEHOLDER, " ")
        vocab = self._vocab
        context_ids = [vocab[token] for token in self.segmenter(context_text) if token in vocab]
        sums = [0] * len(plan.queries)
        if plan.known_ids and context_ids:
            raw = self._table.context_sums(context_ids, plan.known_ids)
            for i, value in zip(plan.known_positions, raw):
                sums[i] = value

        weights = [self.alpha + s for s in sums]
        total = sum(weights)
        probs = {word: weight / total for word, weight in zip(plan.queries, weights)}
        return MaskDistribution(probs=probs, covered=plan.covered)

    def _plan(self, words: tuple[str, ...]) -> "_QueryPlan":
        """Deduplicate ``words`` and resolve them against the vocabulary, and keep the result."""
        queries = tuple(dict.fromkeys(words))
        known = [(i, self._vocab[w]) for i, w in enumerate(queries) if w in self._vocab]
        plan = _QueryPlan(
            queries=queries,
            known_positions=tuple(i for i, _ in known),
            known_ids=tuple(wid for _, wid in known),
            covered=frozenset(queries[i] for i, _ in known),
        )
        if len(self._plans) >= _MAX_PLANS:
            self._plans.clear()
        self._plans[words] = plan
        return plan

    # -- persistence: a plain counts file, byte-stable --

    def save(self, path: str | Path) -> None:
        """Write the model as sorted, word-keyed count lines."""

        def enc(word: str) -> str:
            return json.dumps(word, ensure_ascii=False)

        lines = [
            "#mremix-countmodel v1",
            f"alpha {self.alpha!r}",
            f"language {self.segmenter.language}",
        ]
        lines.extend(f"lex {enc(w)}" for w in sorted(self.segmenter.lexicon))

        g_lines = []
        for wid, count in self._table.global_items():
            g_lines.append(f"g {enc(self._words[wid])} {count}")
        lines.extend(sorted(g_lines))

        c_lines = []
        for ia, ib, count in self._table.pair_items():
            wa, wb = self._words[ia], self._words[ib]
            if wb < wa:
                wa, wb = wb, wa
            c_lines.append(f"c {enc(wa)} {enc(wb)} {count}")
        lines.extend(sorted(c_lines))

        write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CountModel":
        path = Path(path)
        with open_text(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        if not lines or lines[0] != "#mremix-countmodel v1":
            raise DataError(f"{path}: not a count model file")
        alpha = 1.0
        language = "en"
        lexicon: list[str] = []
        globals_: list[tuple[str, int]] = []
        pairs: list[tuple[str, str, int]] = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            kind, _, rest = line.partition(" ")
            try:
                if kind == "alpha":
                    alpha = float(rest)
                elif kind == "language":
                    language = rest.strip()
                elif kind == "lex":
                    lexicon.append(json.loads(rest))
                elif kind == "g":
                    word_json, count = rest.rsplit(" ", 1)
                    globals_.append((json.loads(word_json), int(count)))
                elif kind == "c":
                    decoder = json.JSONDecoder()
                    wa, end = decoder.raw_decode(rest)
                    wb, end2 = decoder.raw_decode(rest[end:].lstrip())
                    count = int(rest[end:].lstrip()[end2:].strip())
                    pairs.append((wa, wb, count))
                else:
                    raise DataError(f"{path}: line {lineno}: unknown line kind {kind!r}")
            except (ValueError, json.JSONDecodeError) as exc:
                raise DataError(f"{path}: line {lineno}: malformed line ({exc})") from exc

        segmenter = Segmenter(language=language, lexicon=tuple(lexicon))
        table = CoocTable()
        vocab: dict[str, int] = {}
        words: list[str] = []

        def wid(word: str) -> int:
            i = vocab.get(word)
            if i is None:
                i = len(words)
                vocab[word] = i
                words.append(word)
            return i

        for word, count in globals_:
            table.set_global(wid(word), count)
        for wa, wb, count in pairs:
            table.set_pair(wid(wa), wid(wb), count)
        return cls(table=table, vocab=vocab, words=words, segmenter=segmenter, alpha=alpha)
