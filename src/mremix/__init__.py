"""Tooling for MRE mixed datasets.

A mixed dataset attaches both text-level classification labels and
word-level (label, entity) pairs to every text. This package builds the
ablation training formats that probe information flow between the two
levels, constructs knowledgeable verbalizers from word-level frequencies,
scores text labels by aggregating mask-position word probabilities, and
evaluates predictions at both levels with exact-match F1 under a seeded,
fully reproducible sampling protocol.
"""

from .core import (
    DatasetDescriptor,
    LabelEntityPair,
    LabelSchema,
    MreRecord,
    Violation,
    builtin_schema,
    validate_record,
)
from .errors import ConfigError, DataError, MremixError, SchemaError, SerializationError
from .evaluation import (
    EvalReport,
    KvComparisonReport,
    Prf,
    evaluate_run,
    pair_f1,
    pair_f1_micro,
    text_f1,
    text_macro_f1,
)
from .formats import (
    SEPARATOR,
    FormatTag,
    FormattedExample,
    build_corpus,
    build_example,
)
from .ingest import (
    Split,
    few_shot_sample,
    load_split,
    repeated_test_sample,
    save_split,
)
from .pairs import serialize_pairs
from .parsing import (
    ParsedPrediction,
    ParseFlag,
    parse_pairs,
    parse_prediction,
    parse_text_label,
)
from .refmlm import CountModel, Segmenter, lexicon_from_split
from .runner import ExperimentConfig, run_kv
from .verbalizer import (
    MaskDistribution,
    Prediction,
    Verbalizer,
    apply_template,
    build_from_wli,
    load_external_kv,
    predict,
    save_kv,
    shuffle_words,
)

__version__ = "0.1.0"

# Only perfbench/passrun.py reads this; it records it with every benchmark run.
KERNEL_BACKEND = "pure"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "DatasetDescriptor",
    "LabelEntityPair",
    "LabelSchema",
    "MreRecord",
    "Violation",
    "builtin_schema",
    "validate_record",
    "MremixError",
    "DataError",
    "SchemaError",
    "ConfigError",
    "SerializationError",
    "EvalReport",
    "Prf",
    "evaluate_run",
    "pair_f1",
    "pair_f1_micro",
    "text_f1",
    "text_macro_f1",
    "SEPARATOR",
    "FormatTag",
    "FormattedExample",
    "build_corpus",
    "build_example",
    "serialize_pairs",
    "Split",
    "few_shot_sample",
    "load_split",
    "repeated_test_sample",
    "save_split",
    "ParseFlag",
    "ParsedPrediction",
    "parse_pairs",
    "parse_prediction",
    "parse_text_label",
    "CountModel",
    "Segmenter",
    "lexicon_from_split",
    "ExperimentConfig",
    "KvComparisonReport",
    "run_kv",
    "MaskDistribution",
    "Prediction",
    "Verbalizer",
    "apply_template",
    "build_from_wli",
    "load_external_kv",
    "predict",
    "save_kv",
    "shuffle_words",
]
