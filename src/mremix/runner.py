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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .core import DatasetDescriptor
from .errors import ConfigError, DataError
from .evaluation import KvComparisonReport, kv_row
from .formats import (
    FormatTag,
    build_corpus,
    corpus_filename,
    corpus_manifest,
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
    load_external_kv,
    predict,
    save_kv,
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
    words per label. Every value is echoed into report metadata.
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

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
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
        return cls(**data)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Apply non-None overrides (flags win over the config file)."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates)

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # an unset path or descriptor field
            expected = str if f.default is None else type(f.default)
            if type(value) is not expected and not (expected is float and type(value) is int):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[expected]}, got {value!r}")
        if self.aggregation not in AGGREGATION_STRATEGIES:
            raise ConfigError(f"aggregation must be one of {AGGREGATION_STRATEGIES}")
        if self.kv_source not in KV_SOURCES:
            raise ConfigError(f"kv_source must be one of {KV_SOURCES}")
        if self.record_format not in RECORD_FORMATS:
            raise ConfigError(f"record_format must be one of {RECORD_FORMATS}")
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


def load(config: ExperimentConfig, path: Optional[str], role: str, desc) -> Split:
    """Load and validate a record file in the configured format and strictness."""
    if not path:
        raise ConfigError(f"--{role} is required (or {role}_path in --config)")
    return load_split(
        resolve_data_path(path), desc, role,
        fmt=config.record_format, strict=not config.lenient,
    )


def guard_overwrite(paths: Sequence[Path], force: bool) -> None:
    """Refuse to run over existing outputs unless forced (checked before any write)."""
    if force:
        return
    for path in paths:
        if path.exists():
            raise FileExistsError(f"{path} exists; pass --force to overwrite")


# -- format building ----------------------------------------------------------


def parse_tags(value: str) -> list[FormatTag]:
    """Parse a --tags value: 'all' or a comma-separated tag list."""
    if value.strip().lower() == "all":
        return list(FormatTag)
    tags = []
    for name in filter(None, (part.strip() for part in value.split(","))):
        try:
            tags.append(FormatTag(name.upper()))
        except ValueError:
            valid = ", ".join(t.value for t in FormatTag)
            raise ConfigError(f"unknown format tag {name!r}; valid tags: {valid}") from None
    if not tags:
        raise ConfigError("no format tags requested")
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

    Every record is rendered and checked, in file order, before any file is
    written, so a failing command writes nothing and reports its first
    error. Then the files are built and written one at a time.
    """
    config.validate()
    desc = descriptor(config.family, config.language)
    split = load(config, input_path, role, desc)
    out = Path(out_dir)

    sources = [(None, split)]
    if role != "train":
        sources = list(enumerate(repeated_test_sample(
            split, config.test_sample_size, config.test_repeats, config.seed)))

    planned: list[tuple[Path, FormatTag, Sequence]] = []
    manifest: dict = {"role": role, "config": config.to_dict(), "files": []}
    rendered: dict = {}  # every draw is a subset of the one split
    for tag in tags:
        for draw_index, source in sources:
            render_corpus(source.records, tag, desc, rendered)
            name = corpus_filename(desc, tag, role, draw_index)
            planned.append((out / name, tag, source.records))
            entry = corpus_manifest(tag, source.records)
            entry.update({"file": name, "tag": tag.value})
            if draw_index is not None:
                entry["draw_index"] = draw_index
            manifest["files"].append(entry)

    manifest_path = out / f"{desc.slug}_{role}_manifest.json"
    guard_overwrite([p for p, *_ in planned] + [manifest_path], force)
    for path, tag, records in planned:
        write_examples(path, build_corpus(records, tag, desc, rendered))
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
    split: Split, kv: Verbalizer, provider: ProbabilityProvider, config: ExperimentConfig
) -> list[dict]:
    """One prediction row per record of ``split``, in order."""
    rows = []
    for record in split.records:
        prompt = apply_template(record.text, config.template)
        try:
            prediction = predict(prompt, kv, provider, strategy=config.aggregation)
        except ValueError as exc:  # the record's text adds a {mask} slot
            raise DataError(f"record {record.id!r}: {exc}") from exc
        except DataError as exc:
            raise DataError(f"record {record.id!r}: provider failed: {exc}") from exc
        rows.append({"record_id": record.id, "label": prediction.label,
                     "no_coverage": prediction.no_coverage, "scores": prediction.scores})
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
    reports per-draw and mean text-level F1 for each.
    """
    config.validate()
    desc = descriptor(config.family, config.language)
    if desc.schema.open_domain:
        raise ConfigError(
            f"{desc.family} has an open-domain schema and is excluded from KV experiments"
        )
    if not config.external_kv_path:
        raise ConfigError("--external-kv is required (or external_kv_path in --config)")

    train = load(config, config.train_path, "train", desc)
    fewshot = few_shot_sample(train, desc, config.few_shot_k, config.seed)
    wli_kv = wli_verbalizer(config, train, desc)
    origin_kv = load_external_kv(
        resolve_data_path(config.external_kv_path), desc.schema, config.kv_words_per_label
    )
    provider, provider_detail = make_provider(config, train, fewshot)
    # the provider keeps what it needs of train; drop it before test comes in
    del train
    test = load(config, config.test_path, "test", desc)

    draws = repeated_test_sample(test, config.test_sample_size, config.test_repeats, config.seed)

    systems = (("Origin KV", "origin", origin_kv), ("WLI KV", "wli", wli_kv))
    predictions = {slug: [classify(draw, kv, provider, config) for draw in draws]
                   for _, slug, kv in systems}
    gold = [[record.text_label for record in draw.records] for draw in draws]

    report = KvComparisonReport(
        rows=tuple(kv_row(name, gold, predictions[slug]) for name, slug, _ in systems),
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

    if out_dir is not None:
        out = Path(out_dir)
        names = ("effective_config.json", "wli_kv.txt", "origin_kv.txt",
                 "kv_report.json", "kv_report.md", "kv_report.tsv")
        pred_files = [
            (out / f"predictions_{slug}.draw{d}.jsonl", draw_rows)
            for slug, per_draw_rows in predictions.items()
            for d, draw_rows in enumerate(per_draw_rows)
        ]
        guard_overwrite([out / name for name in names] + [p for p, _ in pred_files], force)
        # the word lists first: save_kv refuses a word that would not reload
        save_kv(wli_kv, out / "wli_kv.txt")
        save_kv(origin_kv, out / "origin_kv.txt")
        write_json(out / "effective_config.json", config.to_dict())
        for path, draw_rows in pred_files:
            write_jsonl(path, draw_rows)
        write_json(out / "kv_report.json", report.to_dict())
        write_text(out / "kv_report.md", report.markdown())
        write_text(out / "kv_report.tsv", report.tsv())
    return report
