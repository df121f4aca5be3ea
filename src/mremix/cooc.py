"""The co-occurrence table behind the reference count model.

The table keeps what it is given: each observed text's ids, as one
``tuple`` of the caller's id objects. Counts are symmetric within-text
position pairs: two distinct ids occurring k_a and k_b times in a text
co-occur k_a*k_b times, and an id occurring k times pairs with itself
k*(k-1)/2 times.

Scoring only reads, per group of query ids (a label's words), the summed
counts between context ids and the group, so ``context_sums`` builds one
index restricted to its groups instead of counting every pair. Each row
of the index is one Python ``int`` that packs an id's summed pair counts
against each group into fixed-width bit fields, field g holding the sum
for group g ("SIMD within a register"). Summing the rows of a prompt's
context ids is then one C-level big-int ``sum``, whose fields, read by
shift and mask, are the context sums. No field can carry into the next:
``observe`` keeps the bound B = sum of len(text)**2, above every pair
count, so no field of a row exceeds G*B for groups of at most G ids;
fields are 16 bits wider than that, and context ids are summed in chunks
of at most (2**W - 1) // (G*B) ids. The table keeps one index: built from
the kept texts for the group tuple of a call, and reused while later calls
pass the same tuple (the same object, or an equal one); ``observe`` drops
it.

A build makes a fixed number of C-level calls per text, not one Python
step per distinct id: it packs the text's query-id hits into one ``int``
and scatter-adds it to the row of every id occurrence with one
``dict.update``. That over-counts each query id's pairs with itself; the
excess is summed per text and taken off once per query id after the last
text."""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add
from typing import NamedTuple, Optional, Sequence

# Bits of each field above the largest row value, so a chunk of contexts is
# at least 2**16 ids long.
_SPARE_BITS = 16


class _Index(NamedTuple):
    """The packed rows of one group tuple and how to read them."""

    groups: tuple[tuple[int, ...], ...]
    rows: dict[int, int]  # id -> its summed pair counts, one field per group
    width: int  # bits per field
    chunk: int  # most rows whose sum no field can overflow


class CoocTable:
    """Symmetric (context, candidate) co-occurrence counts over integer ids."""

    __slots__ = ("_texts", "_bound", "_index")

    def __init__(self) -> None:
        self._texts: list[tuple[int, ...]] = []
        self._bound = 0  # sum of squared text lengths: no pair count exceeds it
        self._index: Optional[_Index] = None

    def observe(self, ids: Sequence[int]) -> None:
        """Add one text: its ids count all unordered position pairs within it."""
        self._index = None
        self._texts.append(tuple(ids))
        self._bound += len(ids) ** 2

    def context_sums(self, context_ids: Sequence[int],
                     groups: Sequence[Sequence[int]]) -> list[int]:
        """For each group of query ids, its summed pair counts against all context ids."""
        index = self._index
        if index is None or groups is not index.groups:
            key = tuple(map(tuple, groups))
            if index is None or key != index.groups:
                # keep the caller's tuple of tuples, so its next call is found by identity
                index = self._index = self._build(groups if groups == key else key)
        groups, rows, width, chunk = index
        shifts = range(0, len(groups) * width, width)
        mask = (1 << width) - 1
        sums = [0] * len(groups)
        for start in range(0, len(context_ids), chunk):
            total = sum(map(rows.get, context_ids[start:start + chunk], repeat(0)))
            sums = [s + (total >> shift & mask) for s, shift in zip(sums, shifts)]
        return sums

    def _build(self, groups: tuple[tuple[int, ...], ...]) -> _Index:
        """Pack each id's summed pair counts against each group into one row."""
        bound = max(map(len, groups), default=0) * self._bound
        width = bound.bit_length() + _SPARE_BITS
        # ``unit[q]`` has a 1 in the field of each group holding q, so a
        # text's hits, the sum of its query ids' units, holds in field g the
        # occurrences of g's ids. Adding the hits to c's row once per
        # occurrence of c adds k_c * k_q for each q of g: their pair count,
        # except for q = c, which gets k_c * k_c instead of k_c * (k_c - 1) / 2.
        # ``dict.update`` reads and writes one (id, row) pair at a time, so
        # an id repeated in the text is added to once per occurrence. Each
        # text therefore owes (k_q * k_q + k_q) / 2 units of q back to q's
        # row: 1 per occurrence when no query id repeats, else counted. The
        # debts are summed per text, never from q's summed occurrences, and
        # paid once per query id.
        unit: dict[int, int] = {}
        for shift, group in zip(range(0, len(groups) * width, width), groups):
            for q in group:
                unit[q] = unit.get(q, 0) + (1 << shift)
        rows: dict[int, int] = {}
        debts: Counter[int] = Counter()
        for ids in self._texts:
            queried = list(filter(unit.__contains__, ids))
            if queried:
                hits = sum(map(unit.get, queried))
                rows.update(zip(ids, map(add, map(rows.get, ids, repeat(0)), repeat(hits))))
                if len(set(queried)) == len(queried):
                    debts.update(queried)
                else:
                    for q, k in Counter(queried).items():
                        debts[q] += (k * k + k) // 2
        for q, debt in debts.items():
            rows[q] -= debt * unit[q]
        rows = {c: row for c, row in rows.items() if row}
        return _Index(groups, rows, width, ((1 << width) - 1) // max(bound, 1))

    def num_pairs(self) -> int:
        """Nonzero fields of the kept index: one per (id, group) pair."""
        if self._index is None:
            return 0
        groups, rows, width, _ = self._index
        return sum(
            1
            for row in rows.values()
            for shift in range(0, len(groups) * width, width)
            if row >> shift & ((1 << width) - 1)
        )
