"""The co-occurrence table behind the reference count model.

The table keeps what it is given: each observed text's ids, as one
``array``. Counts are symmetric within-text position pairs: two distinct
ids occurring k_a and k_b times in a text co-occur k_a*k_b times, and an
id occurring k times pairs with itself k*(k-1)/2 times.

Scoring only reads counts between context ids and query ids, so
``context_sums`` builds one index restricted to its query set instead of
counting every pair: for every id that co-occurs with a query, an
``array`` row of (query position, count) pairs. An index is built from
the kept texts on the first call with a query-id tuple and reused for
later calls with the same tuple; ``observe`` drops every index.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain
from typing import Sequence

# Query-id tuples whose index is kept at once; a new tuple beyond this
# drops the older indexes, so memory stays bounded whatever the caller asks.
_MAX_INDEXES = 4


class CoocTable:
    """Symmetric (context, candidate) co-occurrence counts over integer ids."""

    __slots__ = ("_texts", "_indexes")

    def __init__(self) -> None:
        self._texts: list[array] = []
        self._indexes: dict[tuple[int, ...], dict[int, array]] = {}

    def observe(self, ids: Sequence[int]) -> None:
        """Add one text: its ids count all unordered position pairs within it."""
        self._indexes.clear()
        self._texts.append(array("q", ids))

    def context_sums(self, context_ids: Sequence[int], query_ids: Sequence[int]) -> list[int]:
        """For each query id, the summed pair count against all context ids."""
        query_ids = tuple(query_ids)
        index = self._indexes.get(query_ids)
        if index is None:
            index = self._index(query_ids)
        out = [0] * len(query_ids)
        for c in context_ids:
            row = index.get(c)
            if row is not None:
                it = iter(row)
                for position, count in zip(it, it):
                    out[position] += count
        return out

    def _index(self, query_ids: tuple[int, ...]) -> dict[int, array]:
        """Map each id to a flat (query position, count, ...) row of its query pairs."""
        positions: dict[int, list[int]] = {}
        for position, q in enumerate(query_ids):
            positions.setdefault(q, []).append(position)
        # A query id q occurring k_q times in a text lists that text k_q times,
        # so counting the ids of q's texts gives, for every other id c, the sum
        # over texts of k_q * k_c: their pair count. For q itself it gives the
        # sum of k_q * k_q, and len(texts) is the sum of k_q, so the self-pair
        # count, the sum of k_q * (k_q - 1) / 2, is half their difference.
        texts_of: dict[int, list[array]] = {q: [] for q in positions}
        for ids in self._texts:
            for w in ids:
                found = texts_of.get(w)
                if found is not None:
                    found.append(ids)
        index: dict[int, array] = {}
        for q, texts in texts_of.items():
            counts = Counter(chain.from_iterable(texts))
            if q in counts:
                counts[q] = (counts[q] - len(texts)) // 2
            at = positions[q]
            for c, count in counts.items():
                if count:
                    row = index.get(c)
                    if row is None:
                        row = index[c] = array("q")
                    for position in at:
                        row.append(position)
                        row.append(count)
        if len(self._indexes) >= _MAX_INDEXES:
            self._indexes.clear()
        self._indexes[query_ids] = index
        return index

    def num_pairs(self) -> int:
        """Entries held by the kept indexes: one per (id, query position) pair."""
        return sum(len(row) // 2 for index in self._indexes.values() for row in index.values())
