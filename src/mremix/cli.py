"""Command-line surface for the toolkit.

Subcommands: validate, build-formats, build-kv, score, evaluate, run-kv,
report. Exit codes are a stable contract: 0 success, 1 data violation,
2 I/O failure (including refusal to overwrite without --force), 3
configuration error. Relative data paths resolve against MREMIX_DATA_ROOT
when that variable is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import runner
from .core import LANGUAGES, DatasetDescriptor, normalize_family
from .errors import ConfigError, DataError, MremixError, SchemaError
from .evaluation import (
    TEXT_METRICS,
    ablation_table,
    evaluate_run,
    report_from_dict,
    report_markdown,
    report_tsv,
)
from .formats import read_examples
from .ingest import ROLES, load_split
from .jsonio import read_json, write_json, write_jsonl, write_text
from .parsing import read_generations
from .runner import KV_SOURCES, RECORD_FORMATS, ExperimentConfig, guard_overwrite, resolve_data_path
from .verbalizer import AGGREGATION_STRATEGIES, load_external_kv, require_fixed_schema, save_kv
from .verbalizer import predict  # noqa: F401  (unused; perfbench/tracer.py rebinds cli.predict)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors follow the toolkit's exit-code contract."""

    def error(self, message):
        raise ConfigError(message)


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _config_from_args(args) -> ExperimentConfig:
    """Defaults <- config file <- explicitly passed flags, checked once after the merge."""
    flags = {key: value for key in _CONFIG_KEYS if (value := getattr(args, key, None)) is not None}
    if getattr(args, "config", None):
        return ExperimentConfig.from_file(resolve_data_path(args.config), **flags)
    return ExperimentConfig(**flags)


def _guarded_with_sidecar(args) -> tuple[Path, Path]:
    """--out and its config sidecar, refused if either exists without --force."""
    out = Path(args.out)
    sidecar = out.with_name(out.name + ".config.json")
    guard_overwrite([out, sidecar], args.force)
    return out, sidecar


# -- subcommand implementations ------------------------------------------------


def cmd_validate(args) -> int:
    desc = runner.descriptor(args.family, args.language)
    for path in args.paths:
        split = load_split(resolve_data_path(path), desc, "train", fmt=args.record_format)
        print(f"OK {path} ({len(split)} records)")
    return 0


def cmd_build_formats(args) -> int:
    config = _config_from_args(args)
    tags = runner.parse_tags(args.tags)
    manifest = runner.build_format_files(
        config, args.input, args.role, tags, args.out, force=args.force
    )
    print(f"wrote {len(manifest['files'])} file(s) to {args.out}")
    return 0


def cmd_build_kv(args) -> int:
    config = _config_from_args(args)
    desc = runner.descriptor(config.family, config.language)
    require_fixed_schema(desc.schema)
    train_path = runner.required_path(config.train_path, "train")
    out, sidecar = _guarded_with_sidecar(args)
    kv = runner.wli_verbalizer(config, runner.load(config, train_path, "train", desc), desc)
    save_kv(kv, out)
    write_json(sidecar, config.to_dict())
    total = sum(len(kv.words_for(label)) for label in kv.labels())
    print(f"wrote {total} words across {len(kv.labels())} labels to {out}")
    return 0


def cmd_score(args) -> int:
    config = _config_from_args(args)
    desc = runner.descriptor(config.family, config.language)
    require_fixed_schema(desc.schema)
    train_path = (runner.required_path(config.train_path, "train")
                  if config.provider == "refmlm" else None)
    out, sidecar = _guarded_with_sidecar(args)
    kv = load_external_kv(resolve_data_path(args.kv), desc.schema, config.kv_words_per_label)
    test = runner.load(config, resolve_data_path(args.input), "test", desc)
    train = None if train_path is None else runner.load(config, train_path, "train", desc)
    # unlike run-kv, whose counts come from the few-shot sample, score trains on all of train
    provider, _ = runner.make_provider(config, train, train)
    [rows] = runner.classify(test, [kv], provider, config)
    write_jsonl(out, rows)
    write_json(sidecar, config.to_dict())
    print(f"scored {len(rows)} records -> {out}")
    return 0


def _built_datasets(manifest: Path) -> dict[str, str]:
    """The dataset ("family/language") of each file a ``build-formats`` manifest lists."""
    data = read_json(manifest)
    try:
        dataset = f"{normalize_family(data['config']['family'])}/{data['config']['language']}"
        return {entry["file"]: dataset for entry in data["files"]}
    except (LookupError, TypeError, AttributeError, SchemaError) as exc:
        raise DataError(f"{manifest}: not a build-formats manifest ({exc!r})") from None


def _check_draw_dataset(d: int, path: Path, desc: DatasetDescriptor,
                        manifests: dict[Path, dict[str, str]]) -> None:
    """Refuse a draw file that the manifest beside it gives to another dataset;
    ``manifests`` keeps each manifest read. A file no manifest lists passes. (The
    format needs no manifest: every draw row carries its tag, and evaluation
    checks it.)"""
    for manifest in sorted(path.parent.glob("*_manifest.json")):
        if manifest not in manifests:
            manifests[manifest] = _built_datasets(manifest)
        built = manifests[manifest].get(path.name)
        if built is None:
            continue
        wanted = f"{desc.family}/{desc.language}"
        if built != wanted:
            raise DataError(f"draw {d}: {path} was built for {built} (per {manifest}), "
                            f"not for {wanted} as --family/--language say")
        return


def cmd_evaluate(args) -> int:
    desc = runner.descriptor(args.family, args.language)
    tag = runner.parse_tag(args.tag)
    if len(args.draws) != len(args.generations):
        raise ConfigError(
            f"got {len(args.draws)} draw file(s) but {len(args.generations)} generation file(s)"
        )
    out = Path(args.out)
    paths = [out / "report.json", out / "report.md", out / "report.tsv"]
    guard_overwrite(paths, args.force)
    draws = []
    manifests: dict[Path, dict[str, str]] = {}
    for d, path in enumerate(args.draws):
        path = resolve_data_path(path)
        if not Path(path).exists():
            raise FileNotFoundError(f"draw {d}: missing draw file {path}")
        _check_draw_dataset(d, Path(path), desc, manifests)
        draws.append(read_examples(path))
    generations = []
    for d, path in enumerate(args.generations):
        path = resolve_data_path(path)
        if not Path(path).exists():
            raise FileNotFoundError(f"draw {d}: missing generation file {path}")
        generations.append(read_generations(path))

    report = evaluate_run(draws, generations, desc, tag, text_metric=args.text_metric)
    write_json(paths[0], report.to_dict())
    write_text(paths[1], report_markdown(report))
    write_text(paths[2], report_tsv(report))
    summary = report.summary()
    for side in ("word", "text"):
        if summary.get(side):
            print(f"{side} F1 mean: {summary[side]['f1']['mean']:.4f}")
    return 0


def cmd_run_kv(args) -> int:
    config = _config_from_args(args)
    report = runner.run_kv(config, out_dir=args.out, force=args.force)
    for row in report.rows:
        print(f"{row.name}: mean F1 {row.mean_f1():.4f}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    paths = [out / "ablation.md", out / "ablation.tsv"]
    guard_overwrite(paths, args.force)
    reports = []
    for path in args.inputs:
        data = read_json(resolve_data_path(path))
        try:
            reports.append(report_from_dict(data))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    md, tsv = ablation_table(reports)
    write_text(paths[0], md)
    write_text(paths[1], tsv)
    print(md)
    return 0


# -- parser wiring --------------------------------------------------------------


def _add_descriptor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="dataset family (e.g. SCNM, SCPOS:RW, tcree)")
    p.add_argument("--language", choices=LANGUAGES, help="dataset language")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--few-shot-k", type=int, dest="few_shot_k")
    p.add_argument("--test-n", type=int, dest="test_sample_size")
    p.add_argument("--repeats", type=int, dest="test_repeats")
    p.add_argument("--kv-k", type=int, dest="kv_words_per_label")
    p.add_argument("--template", dest="template")
    p.add_argument("--aggregation", choices=AGGREGATION_STRATEGIES, dest="aggregation")
    p.add_argument("--kv-source", choices=KV_SOURCES, dest="kv_source")
    p.add_argument("--provider", dest="provider")
    p.add_argument("--alpha", type=float, dest="alpha")
    p.add_argument("--record-format", choices=RECORD_FORMATS, dest="record_format")
    p.add_argument("--lenient", action="store_true", dest="lenient", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mremix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="validate record files against a schema")
    _add_descriptor_flags(p)
    p.add_argument("--record-format", choices=RECORD_FORMATS, default="jsonl")
    p.add_argument("paths", nargs="+", help="record files to validate")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build-formats", help="emit ablation-format training/test files")
    _add_descriptor_flags(p)
    _add_config_flags(p)
    p.add_argument("--input", required=True, help="record file to format")
    p.add_argument("--role", choices=ROLES, default="train")
    p.add_argument("--tags", default="all", help="'all' or comma-separated format tags")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_build_formats)

    p = sub.add_parser("build-kv", help="build a verbalizer from training WLI")
    _add_descriptor_flags(p)
    _add_config_flags(p)
    p.add_argument("--train", dest="train_path",
                   help="training record file (default: the config's train_path)")
    p.add_argument("--out", required=True, help="verbalizer word-list file to write")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_build_kv)

    p = sub.add_parser("score", help="classify records with a verbalizer + provider")
    _add_descriptor_flags(p)
    _add_config_flags(p)
    p.add_argument("--kv", required=True, help="verbalizer word-list file")
    p.add_argument("--input", required=True, help="record file to classify")
    p.add_argument("--train", dest="train_path", help="training records (refmlm provider)")
    p.add_argument("--out", required=True, help="predictions JSONL to write")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="score generation files against gold draws")
    _add_descriptor_flags(p)
    p.add_argument("--tag", required=True, help="format tag the generations follow")
    p.add_argument("--draws", nargs="+", required=True, help="gold draw files, in order")
    p.add_argument("--generations", nargs="+", required=True, help="generation files, in order")
    p.add_argument("--text-metric", choices=TEXT_METRICS, default="micro",
                   help="text-level metric (micro = accuracy)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-kv", help="full origin-KV vs WLI-KV comparison")
    _add_descriptor_flags(p)
    _add_config_flags(p)
    p.add_argument("--train", dest="train_path", help="training record file")
    p.add_argument("--test", dest="test_path", help="test record file")
    p.add_argument("--external-kv", dest="external_kv_path", help="baseline word-list file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_run_kv)

    p = sub.add_parser("report", help="aggregate evaluation reports into the ablation table")
    p.add_argument("--inputs", nargs="+", required=True, help="report.json files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


# The cyclic collector's generation-0 threshold while a command runs. A
# command's records, tables and indexes hold no reference cycles and are freed
# by reference counting; its only cyclic garbage is a few hundred parser
# objects and closures, however large the input. At the default threshold of
# 700 allocations, loading a split of 5,000 records sets off over a hundred
# collections, some of them walking the whole growing heap, to free nothing.
_GC_THRESHOLD = 100_000


def main(argv: Optional[Sequence[str]] = None) -> int:
    thresholds = gc.get_threshold()
    gc.set_threshold(_GC_THRESHOLD, *thresholds[1:])
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UnicodeDecodeError as exc:  # a ValueError, but bad input bytes, not bad config
        print(f"data error: not valid UTF-8 ({exc})", file=sys.stderr)
        return 1
    except (ConfigError, SchemaError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except MremixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
