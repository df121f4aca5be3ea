"""The co-occurrence table behind the reference count model.

Counts are symmetric and stored under the canonical (min_id, max_id) key.
``observe`` counts every unordered position pair within one token list, so
a text contributes len*(len-1)/2 pair increments and one global increment
per token.

``context_sums`` answers from a per-query-set index instead of one pair
lookup per (context, query) id: for every id that co-occurs with a query,
an ``array`` row of (query position, count) pairs. An index is built on
the first call with a query-id tuple and reused for later calls with the
same tuple; any count change drops every index.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

# Query-id tuples whose index is kept at once; a new tuple beyond this
# drops the older indexes, so memory stays bounded whatever the caller asks.
_MAX_INDEXES = 4


class CoocTable:
    """Symmetric (context, candidate) co-occurrence counts over integer ids."""

    __slots__ = ("_pairs", "_globals", "_indexes")

    def __init__(self) -> None:
        self._pairs: dict[tuple[int, int], int] = {}
        self._globals: dict[int, int] = {}
        self._indexes: dict[tuple[int, ...], dict[int, array]] = {}

    def observe(self, ids: Sequence[int]) -> None:
        """Count one text: all unordered position pairs plus global occurrences."""
        self._indexes.clear()
        globals_ = self._globals
        for w in ids:
            globals_[w] = globals_.get(w, 0) + 1
        pairs = self._pairs
        n = len(ids)
        for i in range(n):
            a = ids[i]
            for j in range(i + 1, n):
                b = ids[j]
                key = (a, b) if a <= b else (b, a)
                pairs[key] = pairs.get(key, 0) + 1

    def pair_count(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        return self._pairs.get(key, 0)

    def set_pair(self, a: int, b: int, count: int) -> None:
        key = (a, b) if a <= b else (b, a)
        self._pairs[key] = count
        self._indexes.clear()

    def global_count(self, w: int) -> int:
        return self._globals.get(w, 0)

    def set_global(self, w: int, count: int) -> None:
        self._globals[w] = count

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
        index: dict[int, array] = {}

        def add(other: int, query_positions: list[int], count: int) -> None:
            row = index.get(other)
            if row is None:
                row = index[other] = array("q")
            for position in query_positions:
                row.append(position)
                row.append(count)

        for (a, b), count in self._pairs.items():
            at_a = positions.get(a)
            if at_a is not None:
                add(b, at_a, count)
            if b != a:
                at_b = positions.get(b)
                if at_b is not None:
                    add(a, at_b, count)
        if len(self._indexes) >= _MAX_INDEXES:
            self._indexes.clear()
        self._indexes[query_ids] = index
        return index

    def pair_items(self) -> Iterable[tuple[int, int, int]]:
        for (a, b), count in self._pairs.items():
            yield a, b, count

    def global_items(self) -> Iterable[tuple[int, int]]:
        yield from self._globals.items()

    def num_pairs(self) -> int:
        return len(self._pairs)
