"""The co-occurrence table behind the reference count model.

The table keeps what it is given: each observed text's ids, as one
``array``. Counts are symmetric within-text position pairs: two distinct
ids occurring k_a and k_b times in a text co-occur k_a*k_b times, and an
id occurring k times pairs with itself k*(k-1)/2 times.

Scoring only reads counts between context ids and query ids, so
``context_sums`` builds one index restricted to its query set instead of
counting every pair: for every id that co-occurs with a query, a row of
two equal-length tuples, the query positions and their nonzero pair
counts, each row made by one ``Counter``. An index is built from the kept
texts on the first call with a query-id tuple and reused for later calls
with the same tuple; ``observe`` drops every index.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain
from typing import Sequence

# Query-id tuples whose index is kept at once; a new tuple beyond this
# drops the older indexes, so memory stays bounded whatever the caller asks.
_MAX_INDEXES = 4

# One index row: query positions and the pair counts at them.
Row = tuple[tuple[int, ...], tuple[int, ...]]


class CoocTable:
    """Symmetric (context, candidate) co-occurrence counts over integer ids."""

    __slots__ = ("_texts", "_indexes")

    def __init__(self) -> None:
        self._texts: list[array] = []
        self._indexes: dict[tuple[int, ...], dict[int, Row]] = {}

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
                for position, count in zip(*row):
                    out[position] += count
        return out

    def _index(self, query_ids: tuple[int, ...]) -> dict[int, Row]:
        """Map each id to its (query positions, pair counts) row."""
        positions: dict[int, list[int]] = {}
        for position, q in enumerate(query_ids):
            positions.setdefault(q, []).append(position)
        # Each text is reduced to the query positions of its ids, and an id c
        # occurring k_c times lists that text's hits k_c times, so counting
        # c's lists gives at a position of q the sum over texts of k_c * k_q:
        # their pair count. At c's own positions it gives the sum of k_c * k_c,
        # and len(lists) is the sum of k_c, so the self-pair count, the sum of
        # k_c * (k_c - 1) / 2, is half their difference.
        hits_of: dict[int, list[list[int]]] = {}
        for ids in self._texts:
            hits = [p for w in ids if w in positions for p in positions[w]]
            if hits:
                for c in ids:
                    hits_of.setdefault(c, []).append(hits)
        index: dict[int, Row] = {}
        for c, lists in hits_of.items():
            counts = Counter(chain.from_iterable(lists))
            for position in positions.get(c, ()):
                counts[position] = (counts[position] - len(lists)) // 2
                if not counts[position]:
                    del counts[position]
            if counts:
                index[c] = (tuple(counts), tuple(counts.values()))
        if len(self._indexes) >= _MAX_INDEXES:
            self._indexes.clear()
        self._indexes[query_ids] = index
        return index

    def num_pairs(self) -> int:
        """Entries held by the kept indexes: one per (id, query position) pair."""
        return sum(len(row[0]) for index in self._indexes.values() for row in index.values())
