"""The co-occurrence table behind the reference count model.

The table keeps what it is given: each observed text's ids, as one
``array``. Counts are symmetric within-text position pairs: two distinct
ids occurring k_a and k_b times in a text co-occur k_a*k_b times, and an
id occurring k times pairs with itself k*(k-1)/2 times.

Scoring only reads counts between context ids and query ids, so
``context_sums`` builds one index restricted to its query set instead of
counting every pair. Each row of the index is one Python ``int`` that
packs an id's pair counts against the query positions into fixed-width
bit fields, field p holding the count at query position p ("SIMD within a
register"). Summing the rows of a prompt's context ids is then one C-level
big-int ``sum``, whose fields are the context sums, unpacked at once through
``int.to_bytes``. No field can carry into the next: ``observe`` keeps the
bound B = sum of len(text)**2, above every pair count; fields are the
narrowest of 16, 32 and 64 bits that hold B, and context ids are summed in
chunks of at most (2**W - 1) // B ids. An index is built from the kept
texts on the first call with a query-id tuple and reused for later calls
with the same tuple; ``observe`` drops every index.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from itertools import chain, repeat
from operator import add
from typing import NamedTuple, Sequence

from .errors import DataError

# Query-id tuples whose index is kept at once; a new tuple beyond this
# drops the older indexes, so memory stays bounded whatever the caller asks.
_MAX_INDEXES = 4

# Unsigned array typecode of each field width this host has.
_TYPECODES = {array(code).itemsize * 8: code for code in "QLIH"}


def _field_width(bound: int) -> int:
    """The narrowest field width, in bits, that holds every value up to ``bound``."""
    for width in (16, 32, 64):
        if bound < 1 << width:
            return width
    raise DataError(f"co-occurrence counts up to {bound} do not fit in 64 bits")


class _Index(NamedTuple):
    """The packed rows of one query-id tuple and how to read them."""

    rows: dict[int, int]  # id -> its pair counts, one field per query position
    width: int  # bits per field
    chunk: int  # most rows whose sum no field can overflow


def _fields(packed: int, count: int, width: int) -> list[int]:
    """The ``count`` fields of ``packed``, lowest first."""
    fields = array(_TYPECODES[width], packed.to_bytes(count * width // 8, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields.tolist()


class CoocTable:
    """Symmetric (context, candidate) co-occurrence counts over integer ids."""

    __slots__ = ("_texts", "_bound", "_indexes")

    def __init__(self) -> None:
        self._texts: list[array] = []
        self._bound = 0  # sum of squared text lengths: no pair count exceeds it
        self._indexes: dict[tuple[int, ...], _Index] = {}

    def observe(self, ids: Sequence[int]) -> None:
        """Add one text: its ids count all unordered position pairs within it."""
        self._indexes.clear()
        self._texts.append(array("q", ids))
        self._bound += len(ids) ** 2

    def context_sums(self, context_ids: Sequence[int], query_ids: Sequence[int]) -> list[int]:
        """For each query id, the summed pair count against all context ids."""
        query_ids = tuple(query_ids)
        index = self._indexes.get(query_ids)
        if index is None:
            index = self._index(query_ids)
        rows, width, chunk = index
        n = len(query_ids)
        sums = _fields(sum(map(rows.get, context_ids[:chunk], repeat(0))), n, width)
        for start in range(chunk, len(context_ids), chunk):
            total = sum(map(rows.get, context_ids[start:start + chunk], repeat(0)))
            sums = list(map(add, sums, _fields(total, n, width)))
        return sums

    def _index(self, query_ids: tuple[int, ...]) -> _Index:
        """Pack each id's pair counts against ``query_ids`` into one row."""
        width = _field_width(self._bound)
        # ``unit[q]`` has a 1 in the field of each position of q, so the sum
        # of the units of a text's ids, its hits, holds k_q at q's positions.
        # Adding a text's hits to c's row once per occurrence of c adds
        # k_c * k_q there: their pair count. At c's own positions it adds
        # k_c * k_c, so the self-pair count, the sum of k_c * (k_c - 1) / 2,
        # is half of that field less the sum of k_c.
        unit: dict[int, int] = {}
        for position, q in enumerate(query_ids):
            unit[q] = unit.get(q, 0) + (1 << position * width)
        rows: dict[int, int] = {}
        for ids in self._texts:
            hits = sum(map(unit.get, ids, repeat(0)))
            if hits:
                for c in ids:
                    rows[c] = rows.get(c, 0) + hits
        occurrences = Counter(chain.from_iterable(self._texts))
        mask = (1 << width) - 1
        for position, q in enumerate(query_ids):
            row = rows.get(q)
            if row is not None:
                shift = position * width
                field = row >> shift & mask
                row -= (field - (field - occurrences[q]) // 2) << shift
                if row:
                    rows[q] = row
                else:
                    del rows[q]
        index = _Index(rows, width, mask // max(self._bound, 1))
        if len(self._indexes) >= _MAX_INDEXES:
            self._indexes.clear()
        self._indexes[query_ids] = index
        return index

    def num_pairs(self) -> int:
        """Nonzero fields of the kept indexes: one per (id, query position) pair."""
        return sum(
            len(query_ids) - _fields(row, len(query_ids), index.width).count(0)
            for query_ids, index in self._indexes.items()
            for row in index.rows.values()
        )
