"""Per-layer tracing of mremix, installed from outside the package.

``install`` rebinds each layer's public functions at the names their
callers look up (module attributes such as ``runner.predict``, class
attributes such as ``CountModel.score``, and the ``CoocTable`` name in
``refmlm``) to wrappers that record a span per call. Spans (name, start,
end, parent) stay in memory; counters are updated at the same boundaries.
Nothing under ``src/`` is edited, and an untraced pass runs the package
untouched.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so child spans never overlap and their
durations can be summed.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# (name, unit, better) of every per-layer metric a traced run reports.
METRICS: tuple[tuple[str, str, str], ...] = (
    ("cli.main.self_s", "s", "lower"),
    ("runner.run_kv.self_s", "s", "lower"),
    ("runner.build_format_files.self_s", "s", "lower"),
    ("ingest.load_split.s", "s", "lower"),
    ("ingest.load_split.records", "count", "lower"),
    ("verbalizer.predict.calls", "count", "lower"),
    ("verbalizer.predict.self_s", "s", "lower"),
    ("verbalizer.predict.p50_ms", "ms", "lower"),
    ("verbalizer.predict.p99_ms", "ms", "lower"),
    ("verbalizer.query_words", "count", "lower"),
    ("refmlm.score.calls", "count", "lower"),
    ("refmlm.score.self_s", "s", "lower"),
    ("refmlm.score.distinct_prompts", "count", "lower"),
    ("refmlm.score.distinct_ratio", "ratio", "lower"),
    ("refmlm.score.known_ratio", "ratio", "higher"),
    ("refmlm.segment.calls", "count", "lower"),
    ("refmlm.segment.chars", "count", "lower"),
    ("refmlm.segment.s", "s", "lower"),
    ("refmlm.train.texts", "count", "lower"),
    ("refmlm.train.s", "s", "lower"),
    ("kernels.observe.calls", "count", "lower"),
    ("kernels.observe.increments", "count", "lower"),
    ("kernels.observe.s", "s", "lower"),
    ("kernels.pairs", "count", "lower"),
    ("kernels.context_sums.calls", "count", "lower"),
    ("kernels.context_sums.lookups", "count", "lower"),
    ("kernels.context_sums.s", "s", "lower"),
    ("formats.build_corpus.s", "s", "lower"),
    ("formats.examples", "count", "lower"),
    ("formats.write_examples.s", "s", "lower"),
    ("formats.read_examples.s", "s", "lower"),
    ("parsing.read_generations.s", "s", "lower"),
    ("parsing.parse_prediction.calls", "count", "lower"),
    ("parsing.parse_prediction.s", "s", "lower"),
    ("parsing.flag.CLEAN", "count", "higher"),
    ("parsing.flag.RECOVERED", "count", "lower"),
    ("parsing.flag.UNPARSEABLE", "count", "lower"),
    ("evaluation.evaluate_run.self_s", "s", "lower"),
    ("evaluation.ablation_table.s", "s", "lower"),
    ("jsonio.write.s", "s", "lower"),
    ("jsonio.write.bytes", "bytes", "lower"),
    # untraced wall time of the two build-formats calls (ablation-eval only)
    ("build_formats_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.prompts: set[str] = set()
        self.tables: list = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``note(result, *args)`` updates counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(result, *args, **kwargs)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind the layers' functions of the imported ``mremix`` to traced wrappers."""
    from mremix import cli, evaluation, formats, refmlm, runner

    counts = tracer.counts

    def rebind(name: str, attr: str, modules: tuple, note: Optional[Callable] = None) -> None:
        traced = tracer.wrap(name, getattr(modules[0], attr), note)
        for module in modules:
            setattr(module, attr, traced)

    def add(key: str, amount: Callable) -> Callable:
        def note(result, *args, **kwargs):
            counts[key] += amount(result, *args)
        return note

    def written(result, path, *_):
        counts["jsonio.write.bytes"] += os.path.getsize(path)

    def scored(result, model, prompt, words):
        counts["verbalizer.query_words"] += len(words)
        counts["refmlm.score.queries"] += len(result.probs)
        counts["refmlm.score.known"] += len(result.covered)
        tracer.prompts.add(prompt)

    def parsed(result, *_):
        counts["parsing.flag." + result.flag.value] += 1

    rebind("cli.main", "main", (cli,))
    rebind("runner.run_kv", "run_kv", (runner,))
    rebind("runner.build_format_files", "build_format_files", (runner,))
    rebind("ingest.load_split", "load_split", (cli, runner),
           add("ingest.load_split.records", lambda split, *_: len(split)))
    rebind("verbalizer.predict", "predict", (cli, runner))
    rebind("formats.build_corpus", "build_corpus", (runner,),
           add("formats.examples", lambda examples, *_: len(examples)))
    rebind("formats.write_examples", "write_examples", (runner,))
    rebind("formats.read_examples", "read_examples", (cli,))
    rebind("parsing.read_generations", "read_generations", (cli,))
    rebind("parsing.parse_prediction", "parse_prediction", (evaluation,), parsed)
    rebind("evaluation.evaluate_run", "evaluate_run", (cli,))
    rebind("evaluation.ablation_table", "ablation_table", (cli,))
    rebind("jsonio.write", "write_jsonl", (formats, runner, cli), written)
    rebind("jsonio.write", "write_json", (runner, cli), written)

    model = refmlm.CountModel
    model.score = tracer.wrap("refmlm.score", model.score, scored)
    model.train = classmethod(tracer.wrap(
        "refmlm.train", model.train.__func__,
        add("refmlm.train.texts", lambda _, cls, corpus, *rest: len(corpus)),
    ))
    segmenter = refmlm.Segmenter
    segmenter.__call__ = tracer.wrap(
        "refmlm.segment", segmenter.__call__,
        add("refmlm.segment.chars", lambda _, seg, text: len(text)),
    )

    base = refmlm.CoocTable

    class RecordingCoocTable(base):
        """The active kernel table, with its two hot loops traced."""

        def __init__(self) -> None:
            super().__init__()
            tracer.tables.append(self)

        observe = tracer.wrap(
            "kernels.observe", base.observe,
            add("kernels.observe.increments", lambda _, t, ids: len(ids) * (len(ids) - 1) // 2),
        )
        context_sums = tracer.wrap(
            "kernels.context_sums", base.context_sums,
            add("kernels.context_sums.lookups", lambda _, t, ctx, q: len(ctx) * len(q)),
        )

    refmlm.CoocTable = RecordingCoocTable


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the run-level ones)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    predict_ms: list[float] = []
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        if name == "verbalizer.predict":
            predict_ms.append(1000.0 * (end - start))
    predict_ms.sort()
    c = tracer.counts
    score_calls = calls["refmlm.score"]
    out = {
        "cli.main.self_s": self_time["cli.main"],
        "runner.run_kv.self_s": self_time["runner.run_kv"],
        "runner.build_format_files.self_s": self_time["runner.build_format_files"],
        "verbalizer.predict.self_s": self_time["verbalizer.predict"],
        "verbalizer.predict.p50_ms": _percentile(predict_ms, 50),
        "verbalizer.predict.p99_ms": _percentile(predict_ms, 99),
        "refmlm.score.self_s": self_time["refmlm.score"],
        "refmlm.score.distinct_prompts": len(tracer.prompts),
        "refmlm.score.distinct_ratio": len(tracer.prompts) / score_calls if score_calls else 0.0,
        "refmlm.score.known_ratio":
            c["refmlm.score.known"] / c["refmlm.score.queries"] if c["refmlm.score.queries"] else 0.0,
        "kernels.pairs": sum(table.num_pairs() for table in tracer.tables),
        "evaluation.evaluate_run.self_s": self_time["evaluation.evaluate_run"],
    }
    for span in ("ingest.load_split", "refmlm.segment", "refmlm.train", "kernels.observe",
                 "kernels.context_sums", "formats.build_corpus", "formats.write_examples",
                 "formats.read_examples", "parsing.read_generations", "parsing.parse_prediction",
                 "evaluation.ablation_table", "jsonio.write"):
        out[span + ".s"] = total[span]
    for span in ("verbalizer.predict", "refmlm.score", "refmlm.segment", "kernels.observe",
                 "kernels.context_sums", "parsing.parse_prediction"):
        out[span + ".calls"] = calls[span]
    for key in ("ingest.load_split.records", "verbalizer.query_words", "refmlm.segment.chars",
                "refmlm.train.texts", "kernels.observe.increments", "kernels.context_sums.lookups",
                "formats.examples", "parsing.flag.CLEAN", "parsing.flag.RECOVERED",
                "parsing.flag.UNPARSEABLE", "jsonio.write.bytes"):
        out[key] = c[key]
    return out


def top_level_time(tracer: Tracer) -> float:
    """Summed duration of the spans no other span encloses."""
    return sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
