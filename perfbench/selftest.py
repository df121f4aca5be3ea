"""Smoke self-test of the benchmark.

Runs all four workloads at tiny sizes with every output check on, as a
traced run (traced, untraced, traced pass), and requires that no command
or check fails, that the exact counters repeat across the two traced
passes, that each workload exercises the layers it is meant to and skips
the ones it is meant to skip, and that ``BENCHMARK.json`` names exactly
the metrics and workloads the benchmark reports. From the checkout root:

    python3 perfbench/selftest.py

It exits 0 when all of that holds and prints what failed otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import run
from corpus import TEXT_LABELS
from tracer import METRICS as LAYER_METRICS
from workloads import REPEATS, TAGS, WORKLOADS

SEED = 3
TEST_N = 30


def tiny(workload):
    n_test = TEST_N if workload.name == "score-en" else 200
    sizes = replace(workload.sizes, n_train=200, n_test=n_test)
    return replace(workload, sizes=sizes, test_n=TEST_N)


def expectations(name: str) -> dict[str, object]:
    """Counters each tiny workload must show: an exact value, or True for > 0."""
    predictions = 2 * REPEATS * TEST_N
    if name.startswith("kv-"):
        return {"verbalizer.predict.calls": predictions, "refmlm.score.calls": predictions,
                "refmlm.train.texts": 20 * len(TEXT_LABELS), "refmlm.segment.calls": True,
                "kernels.context_sums.calls": True, "parsing.parse_prediction.calls": 0,
                "formats.examples": 0}
    if name == "score-en":
        return {"verbalizer.predict.calls": TEST_N, "refmlm.score.distinct_ratio": 1.0,
                "refmlm.train.texts": 200, "kernels.observe.calls": 200,
                "kernels.observe.increments": True, "parsing.parse_prediction.calls": 0}
    rows = len(TAGS) * REPEATS * TEST_N
    return {"parsing.parse_prediction.calls": rows, "formats.examples": len(TAGS) * 200 + rows,
            "parsing.flag.UNPARSEABLE": True, "parsing.flag.RECOVERED": True,
            "verbalizer.predict.calls": 0, "refmlm.score.calls": 0, "kernels.observe.calls": 0,
            "build_formats_s": True}


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
        (w.name, w.why) for w in WORKLOADS.values()
    ]:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(LAYER_METRICS):
        problems.append("BENCHMARK.json per_layer differs from tracer.METRICS")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    for name, workload in WORKLOADS.items():
        started = time.monotonic()
        result = run.measure(tiny(workload), SEED, 0, 1, started + run.RUN_LIMIT_S)
        problems += [f"{name}: {m}" for m in result["messages"]]
        passes = result["passes"]
        if [p["traced"] for p in passes] != [True, False, True] or result["failed"]:
            problems.append(f"{name}: expected three passes without failures")
            continue
        metrics = {k: v["value"] for k, v in run.layer_metrics(passes).items()}
        metrics.update({k: v["value"] for k, v in run.end_to_end(
            tiny(workload), [p for p in passes if not p["traced"]], result["setup"]).items()})
        for key, expected in expectations(name).items():
            value = metrics[key]
            if (value <= 0) if expected is True else (value != expected):
                problems.append(f"{name}: {key} = {value}, expected {expected}")
        if not 0.95 < metrics["trace.coverage"] <= 1.0:
            problems.append(f"{name}: trace.coverage {metrics['trace.coverage']}")
        print(f"{name}: {len(passes)} passes in {time.monotonic() - started:.1f} s")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
