"""Seeded synthetic MRE corpora for the pipeline benchmark.

Everything here depends only on the seed and the sizes passed in; the
program under test never sees the generator, only the files it writes.

Each text-level label plants its own entity pool. Pools overlap (a share
of each record's entities comes from other labels, and the origin-KV word
lists mix in foreign and unseen words), so both verbalizer systems score
well above chance and below 1.0.

* ``en``: 40 whitespace tokens per text: 15 label entities and 25 filler
  words shared by all labels.
* ``zh``: about 60 characters with no spaces, built from multi-character
  entities and single filler characters. Half the entity mentions come
  from a long per-label tail, so a 5k-record training split carries about
  20k distinct entities; that set is the segmenter lexicon the program
  builds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# SCNM labels as listed in the package's bundled schema file.
TEXT_LABELS = ("Society", "Literature", "Academia", "Technology", "Nature")
WORD_LABELS = (
    "people", "corporations", "political organizations", "other organizations",
    "places", "facilities", "products", "events",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one corpus (recorded with every result)."""

    language: str
    n_train: int
    n_test: int
    kv_words: int = 100


@dataclass(frozen=True)
class _Lang:
    entities_per_text: int
    pairs_per_text: int  # entities annotated as word-level pairs
    fillers_per_text: int
    tail: int  # rare entities per label (what grows the zh lexicon)
    head_share: float  # share of mentions drawn from the head
    foreign_share: float  # share of mentions drawn from another label
    fillers: int  # size of the shared filler vocabulary


_LANGS = {
    "en": _Lang(entities_per_text=15, pairs_per_text=8, fillers_per_text=25,
                tail=200, head_share=0.85, foreign_share=0.5, fillers=20000),
    "zh": _Lang(entities_per_text=12, pairs_per_text=12, fillers_per_text=24,
                tail=7000, head_share=0.5, foreign_share=0.3, fillers=12000),
}

# Frequent entities per label. The head is small and uniform, so every head
# word is (almost surely) in the 100 few-shot texts a KV run trains on: how
# many query words the model knows, and so the scoring work, barely moves
# with the seed.
HEAD = 60
ORIGIN_OWN = 30  # origin-KV words per label from the label's own head
ORIGIN_FOREIGN = 20  # ... from other labels' heads; the rest are unseen words

_CJK_ENTITY_BASE = 0x4E00  # entity characters: 2,500 code points from here
_CJK_FILLER_BASE = 0x7000  # filler characters: a disjoint block


def _en_word(rng: random.Random, taken: set[str]) -> str:
    consonants, vowels = "bcdfghklmnprstvz", "aeiou"
    while True:
        word = "".join(
            rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 4))
        )
        if word not in taken:
            taken.add(word)
            return word


def _zh_word(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(
            chr(_CJK_ENTITY_BASE + rng.randrange(2500)) for _ in range(rng.randint(2, 4))
        )
        if word not in taken:
            taken.add(word)
            return word


class Corpus:
    """One language's pools and generated splits, all derived from ``seed``."""

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        self._lang = _LANGS[sizes.language]
        rng = random.Random(f"pools:{sizes.language}:{seed}")
        make = _en_word if sizes.language == "en" else _zh_word
        taken: set[str] = set()
        lang = self._lang
        self.heads = {label: [make(rng, taken) for _ in range(HEAD)] for label in TEXT_LABELS}
        self.tails = {label: [make(rng, taken) for _ in range(lang.tail)] for label in TEXT_LABELS}
        self.unseen = [make(rng, taken) for _ in range(sizes.kv_words * len(TEXT_LABELS))]
        if sizes.language == "en":
            self.fillers = [make(rng, taken) for _ in range(lang.fillers)]
        else:
            self.fillers = [chr(_CJK_FILLER_BASE + i) for i in range(lang.fillers)]
        self.seed = seed

    def _entity(self, rng: random.Random, label: str) -> str:
        lang = self._lang
        if rng.random() < lang.foreign_share:
            label = rng.choice(TEXT_LABELS)
        if rng.random() < lang.head_share:
            return rng.choice(self.heads[label])
        return rng.choice(self.tails[label])

    def _record(self, rng: random.Random, rid: str) -> dict:
        lang = self._lang
        label = rng.choice(TEXT_LABELS)
        entities = [self._entity(rng, label) for _ in range(lang.entities_per_text)]
        tokens = entities + rng.choices(self.fillers, k=lang.fillers_per_text)
        rng.shuffle(tokens)
        sep = " " if self.sizes.language == "en" else ""
        pairs = [
            {"label": rng.choice(WORD_LABELS), "entity": e}
            for e in entities[: lang.pairs_per_text]
        ]
        return {"id": rid, "text": sep.join(tokens), "text_label": label, "pairs": pairs}

    def split(self, role: str) -> list[dict]:
        n = self.sizes.n_train if role == "train" else self.sizes.n_test
        rng = random.Random(f"{role}:{self.sizes.language}:{self.seed}")
        return [self._record(rng, f"{role}-{i:06d}") for i in range(n)]

    def origin_kv(self) -> str:
        """External word lists: own-head words, other labels' head words, unseen words."""
        rng = random.Random(f"origin-kv:{self.sizes.language}:{self.seed}")
        k = self.sizes.kv_words
        unseen = iter(self.unseen)
        blocks = []
        for label in TEXT_LABELS:
            words = rng.sample(self.heads[label], ORIGIN_OWN)
            others = [x for other in TEXT_LABELS if other != label for x in self.heads[other]]
            words += rng.sample(others, ORIGIN_FOREIGN)
            words += [next(unseen) for _ in range(k - len(words))]
            blocks.append(f"[{label}]\n" + "\n".join(words) + "\n")
        return "\n".join(blocks)


def write_records(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
