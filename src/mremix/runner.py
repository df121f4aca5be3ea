"""Experiment pipelines tying the modules together; ``evaluation`` scores
and lays out what they report.

Everything here is deterministic given (inputs, config): a single master
seed feeds documented sub-streams (per label for few-shot selection, per
draw index for the repeated test protocol), the effective configuration is
serialized next to every artifact, and no artifact embeds timestamps or
absolute paths, so reruns are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

from .core import DatasetDescriptor
from .errors import ConfigError, DataError
from .evaluation import KvComparisonReport, kv_row
from .formats import (
    TAGS,
    FormatTag,
    build_corpus,
    corpus_filename,
    render_corpus,
    write_examples,
)
from .ingest import Split, few_shot_sample, load_split, repeated_test_sample
from .jsonio import read_json, write_json, write_jsonl, write_text
from .refmlm import CountModel, Segmenter, lexicon_from_split
from .verbalizer import (
    AGGREGATION_STRATEGIES,
    FileDistributionProvider,
    ProbabilityProvider,
    Verbalizer,
    apply_template,
    build_from_wli,
    kv_text,
    load_external_kv,
    predict,
    require_fixed_schema,
)

DATA_ROOT_ENV = "MREMIX_DATA_ROOT"

KV_SOURCES = ("train", "fewshot")
RECORD_FORMATS = ("jsonl", "tsv")
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment configuration.

    The protocol defaults are the reference values: 20 few-shot samples per
    category, test draws of 1,000 repeated 3 times, and 100 verbalizer
    words per label. Every value is echoed into report metadata, and checked
    when the config is built (a wrong one is a ``ConfigError``).
    """

    family: Optional[str] = None
    language: Optional[str] = None
    seed: int = 0
    few_shot_k: int = 20
    test_sample_size: int = 1000
    test_repeats: int = 3
    kv_words_per_label: int = 100
    template: str = "{text}\n{mask}"
    aggregation: str = "sum"
    kv_source: str = "train"
    provider: str = "refmlm"
    alpha: float = 1.0
    record_format: str = "jsonl"
    lenient: bool = False
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    external_kv_path: Optional[str] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # an unset path or descriptor field
            expected = str if f.default is None else type(f.default)
            if type(value) is not expected and not (expected is float and type(value) is int):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[expected]}, got {value!r}")
        for name, allowed in (("aggregation", AGGREGATION_STRATEGIES), ("kv_source", KV_SOURCES),
                              ("record_format", RECORD_FORMATS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}")
        if self.provider != "refmlm" and not self.provider.startswith("file:"):
            raise ConfigError("provider must be 'refmlm' or 'file:<path>'")
        for name in ("few_shot_k", "test_sample_size", "test_repeats", "kv_words_per_label"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha!r}")
        try:
            apply_template("", self.template)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """The file's config with ``overrides`` (the flags) in place of its values,
        checked once, after the merge."""
        try:
            data = read_json(path)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown config key(s): {', '.join(map(repr, unknown))}")
        data.update(overrides)
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_data_path(path: str | Path) -> Path:
    """Resolve a data path against MREMIX_DATA_ROOT when it is relative."""
    path = Path(path)
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def descriptor(family: Optional[str], language: Optional[str]) -> DatasetDescriptor:
    """The built-in dataset descriptor of a family and a language."""
    if family and language:
        return DatasetDescriptor.builtin(family, language)
    raise ConfigError("--family and --language are required (or family and language in --config)")


def required_path(path: Optional[str], role: str) -> Path:
    """A required input's path, resolved; a missing one is a config error."""
    if not path:
        raise ConfigError(f"--{role} is required (or {role.replace('-', '_')}_path in --config)")
    return resolve_data_path(path)


def load(config: ExperimentConfig, path: Path, role: str, desc) -> Split:
    """Load and validate a record file in the configured format and strictness."""
    return load_split(path, desc, role, fmt=config.record_format, strict=not config.lenient)


def guard_overwrite(paths: Sequence[Path], force: bool) -> None:
    """Refuse to run over existing outputs unless forced (checked before any input is read)."""
    for path in paths:
        if not force and path.exists():
            raise FileExistsError(f"{path} exists; pass --force to overwrite")


# -- format building ----------------------------------------------------------


def parse_tag(name: str) -> FormatTag:
    """A format tag by name, in any case."""
    tag = TAGS.get(name.upper())
    if tag is None:
        raise ConfigError(f"unknown format tag {name!r}; valid tags: {', '.join(TAGS)}")
    return tag


def parse_tags(value: str) -> list[FormatTag]:
    """Parse a --tags value: 'all' or a comma-separated list naming each tag once."""
    if value.strip().lower() == "all":
        return list(FormatTag)
    tags = [parse_tag(name) for name in filter(None, (part.strip() for part in value.split(",")))]
    if not tags:
        raise ConfigError("no format tags requested")
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"format tag {tag.value} is named more than once in --tags")
    return tags


def build_format_files(
    config: ExperimentConfig,
    input_path: str,
    role: str,
    tags: Sequence[FormatTag],
    out_dir: str | Path,
    force: bool = False,
) -> dict:
    """Write training (or test-draw) files for the requested tags, plus a manifest.

    Train role formats the whole split in order. Test role applies the
    repeated-draw protocol first, producing one file per (tag, draw) so the
    draw files double as gold manifests for evaluation.

    An existing output is refused before the input is read. Every record is
    rendered and checked, in file order, before any file is written, so a
    failing command writes nothing and reports its first error. Then the
    files are built and written one at a time.

    The manifest lists each file (name, tag, a draw's ``draw_index``) and,
    once, each record set's ordered ids: ``record_ids[d]`` for draw d.
    """
    desc = descriptor(config.family, config.language)
    path = required_path(input_path, role)
    out = Path(out_dir)
    draws = [None] if role == "train" else range(config.test_repeats)
    files = [(tag, d, corpus_filename(desc, tag, role, d)) for tag in tags for d in draws]
    manifest_path = out / f"{desc.slug}_{role}_manifest.json"
    guard_overwrite([out / name for *_, name in files] + [manifest_path], force)

    split = load(config, path, role, desc)
    sources = {None: split} if role == "train" else dict(enumerate(repeated_test_sample(
        split, config.test_sample_size, config.test_repeats, config.seed)))

    rendered: dict = {}  # every draw is a subset of the one split
    for tag, d, _ in files:
        render_corpus(sources[d].records, tag, desc, rendered)

    for tag, d, name in files:
        write_examples(out / name, build_corpus(sources[d].records, tag, desc, rendered))
    record_ids = [[record.id for record in source.records] for source in sources.values()]
    manifest = {"role": role, "config": config.to_dict(), "record_ids": record_ids,
                "files": [{"file": name, "tag": tag.value, "draw_index": d} if d is not None
                          else {"file": name, "tag": tag.value} for tag, d, name in files]}
    write_json(manifest_path, manifest)
    return manifest


# -- KV experiment ------------------------------------------------------------


def make_provider(
    config: ExperimentConfig, train: Optional[Split], corpus_split: Optional[Split]
) -> tuple[ProbabilityProvider, dict]:
    """The configured provider and its report metadata. refmlm takes its segmenter
    lexicon from ``train`` and its counts from ``corpus_split``; file providers use neither."""
    if config.provider == "refmlm":
        segmenter = Segmenter(config.language, lexicon_from_split(train))
        corpus = [record.text for record in corpus_split.records]
        model = CountModel.train(corpus, segmenter, alpha=config.alpha)
        detail = {
            "kind": "refmlm",
            "training_texts": len(corpus),
            "vocabulary": len(model.vocabulary()),
        }
        return model, detail
    path = resolve_data_path(config.provider.split(":", 1)[1])
    return FileDistributionProvider(path), {"kind": "file", "path": str(path)}


def wli_verbalizer(config: ExperimentConfig, train: Split, desc) -> Verbalizer:
    """The WLI verbalizer of ``kv_source``: from all of ``train`` or its few-shot sample."""
    if config.kv_source == "fewshot":
        train = few_shot_sample(train, desc, config.few_shot_k, config.seed)
    return build_from_wli(train, desc, config.kv_words_per_label)


def classify(
    split: Split, kvs: Sequence[Verbalizer], provider: ProbabilityProvider,
    config: ExperimentConfig,
) -> list[list[dict]]:
    """One list of prediction rows per verbalizer of ``kvs``, each in record order.

    Each record's prompt is built once and scored with each verbalizer in
    turn, so a provider that keeps its last prompt's work (``CountModel``)
    does that work once per record.
    """
    rows: list[list[dict]] = [[] for _ in kvs]
    for record in split.records:
        prompt = apply_template(record.text, config.template)
        for kv, kv_rows in zip(kvs, rows):
            try:
                prediction = predict(prompt, kv, provider, strategy=config.aggregation)
            except ValueError as exc:  # the record's text adds a {mask} slot
                raise DataError(f"record {record.id!r}: {exc}") from exc
            except DataError as exc:
                raise DataError(f"record {record.id!r}: provider failed: {exc}") from exc
            kv_rows.append({"record_id": record.id, "label": prediction.label,
                            "no_coverage": prediction.no_coverage,
                            "scores": prediction.scores})
    return rows


def run_kv(
    config: ExperimentConfig,
    out_dir: Optional[str | Path] = None,
    force: bool = False,
) -> KvComparisonReport:
    """The knowledgeable-verbalizer comparison experiment.

    Builds the WLI-based verbalizer from the training split, loads the
    baseline verbalizer from the external word-list file, classifies every
    repeated test draw with both through the configured provider, and
    reports per-draw and mean text-level F1 for each. The checks that need
    no record, and the word lists' words, come before any scoring.
    """
    desc = descriptor(config.family, config.language)
    require_fixed_schema(desc.schema)
    kv_path = required_path(config.external_kv_path, "external-kv")
    train_path = required_path(config.train_path, "train")
    test_path = required_path(config.test_path, "test")
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        names = ("effective_config.json", "wli_kv.txt", "origin_kv.txt",
                 "kv_report.json", "kv_report.md", "kv_report.tsv")
        pred_paths = [out / f"predictions_{slug}.draw{d}.jsonl"
                      for slug in ("origin", "wli") for d in range(config.test_repeats)]
        guard_overwrite([out / name for name in names] + pred_paths, force)

    train = load(config, train_path, "train", desc)
    # only the count model trains on the few-shot sample
    fewshot = (few_shot_sample(train, desc, config.few_shot_k, config.seed)
               if config.provider == "refmlm" else None)
    wli_kv = wli_verbalizer(config, train, desc)
    origin_kv = load_external_kv(kv_path, desc.schema, config.kv_words_per_label)
    kv_files = {"wli_kv.txt": kv_text(wli_kv), "origin_kv.txt": kv_text(origin_kv)}
    provider, provider_detail = make_provider(config, train, fewshot)
    # the provider keeps what it needs of train; drop it before test comes in
    del train
    test = load(config, test_path, "test", desc)

    draws = repeated_test_sample(test, config.test_sample_size, config.test_repeats, config.seed)

    # per system, its rows of each draw
    predictions = list(zip(*(classify(draw, (origin_kv, wli_kv), provider, config)
                             for draw in draws)))
    gold = [[record.text_label for record in draw.records] for draw in draws]

    report = KvComparisonReport(
        rows=tuple(kv_row(name, gold, system)
                   for name, system in zip(("Origin KV", "WLI KV"), predictions)),
        metadata={
            "config": config.to_dict(),
            "family": desc.family,
            "language": desc.language,
            "provider": provider_detail,
            "draw_protocol": {
                "sample_size": config.test_sample_size,
                "repeats": config.test_repeats,
                "seed": config.seed,
                "replacement": "independent draws (without replacement within a draw)",
            },
            "aggregation": config.aggregation,
            "kv_source": config.kv_source,
        },
    )

    if out is not None:
        for name, text in kv_files.items():
            write_text(out / name, text)
        write_json(out / "effective_config.json", config.to_dict())
        for path, draw_rows in zip(pred_paths, chain.from_iterable(predictions)):
            write_jsonl(path, draw_rows)
        write_json(out / "kv_report.json", report.to_dict())
        write_text(out / "kv_report.md", report.markdown())
        write_text(out / "kv_report.tsv", report.tsv())
    return report
