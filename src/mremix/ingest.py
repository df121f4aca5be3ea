"""Dataset loading, validation, and the seeded sampling protocol.

Record files are JSONL, one object per line with fields ``id``, ``text``,
``text_label``, and ``pairs`` (a list of ``{"label", "entity"}`` objects).
A legacy tab-separated layout is also accepted: four columns
``id<TAB>text<TAB>text_label<TAB>pairs`` where the pairs column uses the
canonical pair grammar (``NONE`` for no pairs). Both layouts are read in
one streaming pass; a record's JSON shape is checked by
``MreRecord.from_dict`` and its labels by ``validate_record``.

Sampling is deterministic: few-shot selection draws one SplitMix64 stream
per text label (keyed by the label string), and each repeated test draw
gets its own stream derived from (seed, draw index). Same seed, same
bytes, on any platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .core import DatasetDescriptor, MreRecord, validate_record
from .errors import DataError
from .jsonio import read_jsonl_numbered, read_lines_numbered, write_jsonl
from .pairs import parse_canonical
from .rng import SplitMix64, derive_seed, derive_seed_token

logger = logging.getLogger(__name__)

ROLES = ("train", "test")


@dataclass(frozen=True)
class Split:
    """An immutable set of records playing one role (train or test)."""

    records: tuple[MreRecord, ...]
    role: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if self.role not in ROLES:
            raise DataError(f"split role must be one of {ROLES}, got {self.role!r}")
        seen: set[str] = set()
        for record in self.records:
            if record.id in seen:
                raise DataError(f"duplicate record id {record.id!r} in split")
            seen.add(record.id)

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [r.id for r in self.records]


def _record_from_tsv(line: str) -> MreRecord:
    cols = line.rstrip("\n").split("\t")
    if len(cols) != 4:
        raise DataError(f"expected 4 tab-separated columns, got {len(cols)}")
    rid, text, text_label, pairs_col = cols
    pairs = parse_canonical(pairs_col)
    if pairs is None:
        raise DataError(f"pairs column is not canonical: {pairs_col!r}")
    return MreRecord(id=rid, text=text, text_label=text_label, pairs=pairs)


def load_split(
    path: str | Path,
    desc: DatasetDescriptor,
    role: str,
    *,
    fmt: str = "jsonl",
    strict: bool = True,
) -> Split:
    """Load and validate a record file in one pass.

    Each line is read, built into a record and checked against the schema
    before the next is read, so the first bad line in file order is the one
    reported. A line that cannot become a record, or repeats an earlier
    record's id, is always an error naming the line (and the field, or the
    earlier line); in strict mode a schema violation is one too,
    while the lenient flag downgrades violations to warnings and keeps the
    records.
    """
    path = Path(path)
    if fmt == "jsonl":
        read, build = read_jsonl_numbered, MreRecord.from_dict
    elif fmt == "tsv":
        read, build = read_lines_numbered, _record_from_tsv
    else:
        raise DataError(f"unknown record file format: {fmt!r}")

    records: list[MreRecord] = []
    ids: dict[str, int] = {}  # each record id's line
    for lineno, row in read(path):
        try:
            record = build(row)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: malformed record ({exc})") from exc
        if record.id in ids:
            raise DataError(f"{path}: line {lineno}: duplicate record id {record.id!r} "
                            f"(first on line {ids[record.id]})")
        violations = validate_record(record, desc)
        if violations:
            detail = "; ".join(str(v) for v in violations)
            if strict:
                raise DataError(f"{path}: line {lineno}: record {record.id!r}: {detail}")
            logger.warning("%s: line %d: record %r: %s", path, lineno, record.id, detail)
        ids[record.id] = lineno
        records.append(record)
    del ids  # Split builds its own id set next; the two need not coexist at the peak

    if not records:
        logger.warning("%s: file contains no records", path)
    return Split(records=tuple(records), role=role)


def save_split(path: str | Path, split: Split) -> None:
    """Write a split in the canonical JSONL record format."""
    write_jsonl(path, (record.to_dict() for record in split.records))


def few_shot_sample(split: Split, desc: DatasetDescriptor, k: int, seed: int) -> Split:
    """Select exactly k records per text-level label, deterministically.

    Labels are taken from the schema (observed labels for open-domain
    datasets); a label with fewer than k records is an error naming it.
    Selected records keep their original order within each label group.
    """
    if split.role != "train":
        raise DataError(f"few-shot sampling requires a train split, got role {split.role!r}")
    if k <= 0:
        raise DataError("per-label count k must be positive")

    positions: dict[str, list[int]] = {}
    for i, record in enumerate(split.records):
        positions.setdefault(record.text_label, []).append(i)

    if desc.schema.open_domain:
        labels = sorted(positions)
    else:
        labels = list(desc.schema.text_labels)

    chosen: list[int] = []
    for label in labels:
        pool = positions.get(label, [])
        if len(pool) < k:
            raise DataError(
                f"label {label!r} has {len(pool)} records, fewer than the requested k={k}"
            )
        rng = SplitMix64(derive_seed_token(seed, f"fewshot:{label}"))
        picked = rng.sample(pool, k)
        picked.sort()
        chosen.extend(picked)
    return Split(records=tuple(split.records[i] for i in chosen), role="train")


def repeated_test_sample(split: Split, n: int, repeats: int, seed: int) -> list[Split]:
    """Draw ``repeats`` samples of size n from the test split.

    Each draw is without replacement internally and independent of the
    others (draws may overlap); draw d uses the sub-seed derived from
    (seed, d), so any single draw is reproducible in isolation.
    """
    if split.role != "test":
        raise DataError(f"repeated test sampling requires a test split, got role {split.role!r}")
    if repeats < 1:
        raise DataError("repeat count must be at least 1")
    if n <= 0:
        raise DataError("sample size must be positive")
    if n > len(split):
        raise DataError(f"sample size {n} exceeds test split size {len(split)}")

    draws: list[Split] = []
    for d in range(repeats):
        rng = SplitMix64(derive_seed(seed, d))
        records = rng.sample(split.records, n)
        draws.append(Split(records=tuple(records), role="test"))
    return draws
