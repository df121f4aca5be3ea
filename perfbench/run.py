"""Pipeline benchmark for mremix: four CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-en --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``kv-en``, ``kv-zh``,
``score-en``, ``ablation-eval``.

A run repeats rounds until ``--seconds`` are used. A round generates the
workload's seeded corpus and writes its input files (the median over all
rounds is ``setup_s``), then runs one pass of the workload's
commands in a fresh interpreter that calls ``mremix.cli.main`` in-process
on relative paths under the work directory.
After every pass the outputs are checked: every command exits 0, each
command's outputs are byte-identical to the first pass's, and the
workload's own checks hold (``workloads.CHECKS``). A failed command or
check counts in ``failed``.

``--trace 0`` passes run the package untouched and report the end-to-end
metrics (medians over passes; ``items_per_s`` is the run's throughput).
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of ``tracer.METRICS``:
times are medians over traced passes, counts come from the first traced
pass and must repeat exactly on every other one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Each run also appends an entry
with its environment (Python, CPU count, kernel backend, git SHA, seed,
input sizes) to ``.perfbench/results.jsonl``; traced runs write their
spans to ``.perfbench/spans/``. Sources are taken from ``src/`` of the
checkout; without them the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from tracer import METRICS as LAYER_METRICS
from workloads import CHECKS, WORKLOADS, commands, tree_digest, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"

# Set-up runs once before every pass, so that its samples spread over the
# run like the passes do and slow phases of the machine hit both alike.
MIN_PASSES = {0: 2, 1: 3}  # untraced: two, to compare outputs; traced: T, U, T
RUN_LIMIT_S = 170.0  # passes must end by then; a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"), ("items_per_s", "1/s"),
)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout carries no history
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def set_up(workload, seed: int, data: Path) -> tuple[float, str]:
    """Write the workload's inputs afresh; return the time taken and their digest."""
    shutil.rmtree(data, ignore_errors=True)
    start = time.perf_counter()
    write_inputs(workload, seed, data)
    elapsed = time.perf_counter() - start
    return elapsed, tree_digest(data)


def run_pass(workload, seed: int, work: Path, traced: bool, index: int, timeout: float) -> dict:
    """Run one pass in a child interpreter and return its result."""
    shutil.rmtree(work / "out", ignore_errors=True)
    request = work / f"pass{index}.request.json"
    result = work / f"pass{index}.result.json"
    request.write_text(json.dumps({
        "src": str(ROOT / "src"), "work": str(work), "workload": asdict(workload),
        "seed": seed, "traced": traced, "result": str(result),
    }), encoding="utf-8")
    env = dict(os.environ, MREMIX_DATA_ROOT=str(work), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"), str(request)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"pass {index} crashed: {proc.stderr.strip()[-400:]}"}
    return json.loads(result.read_text(encoding="utf-8"))


def check_pass(workload, seed: int, work: Path, outcome: dict, first: dict | None) -> list[str]:
    """Failure messages, one per failed command of the pass."""
    failures = []
    for i, (cmd, ran) in enumerate(zip(commands(workload, seed), outcome["commands"])):
        ran["digest"] = tree_digest(work / cmd.out)
        if ran["code"] != 0:
            failures.append(f"{cmd.name} exited {ran['code']}: {ran['stderr'].strip()}")
        elif first is not None and ran["digest"] != first["commands"][i]["digest"]:
            failures.append(f"{cmd.name}: outputs differ from the first pass")
        elif cmd.name in CHECKS:
            try:
                message = CHECKS[cmd.name](work, cmd)
            except (OSError, ValueError, LookupError, TypeError) as exc:
                message = f"unreadable output ({exc!r})"
            if message:
                failures.append(f"{cmd.name}: {message}")
    return failures


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run rounds of set-up and a pass until ``seconds`` are used (at least MIN_PASSES).

    ``deadline`` is the ``time.monotonic()`` by which the last pass must end.
    """
    work = STATE / f"work-{workload.name}-{seed}-{os.getpid()}"
    passes: list[dict] = []
    attempted = 0
    messages: list[str] = []
    n_commands = len(commands(workload, seed))
    setup_times: list[float] = []
    digests: set[str] = set()
    try:
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            # the next round starts if it is expected to end by ``seconds`` plus half a round
            if len(passes) >= MIN_PASSES[trace] and elapsed + elapsed / len(passes) / 2 > seconds:
                break
            setup_s, digest = set_up(workload, seed, work / "data")
            setup_times.append(setup_s)
            digests.add(digest)
            if len(digests) != 1:
                raise RuntimeError("corpus generation is not deterministic for this seed")
            traced = trace == 1 and len(passes) % 2 == 0
            timeout = max(10.0, deadline - time.monotonic())
            outcome = run_pass(workload, seed, work, traced, len(passes), timeout)
            attempted += n_commands
            if "error" in outcome:
                messages.append(outcome["error"])
                passes.append({"failed": n_commands, "traced": traced})
                break
            first = next((p for p in passes if "commands" in p), None)
            failures = check_pass(workload, seed, work, outcome, first)
            if traced:
                failures += _check_counters(outcome, passes)
            messages += failures
            outcome["failed"] = min(len(failures), n_commands)
            outcome["traced"] = traced
            passes.append(outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup": setup_times, "passes": passes, "attempted": attempted,
            "failed": sum(p["failed"] for p in passes), "messages": messages}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # turn SIGTERM into an exception, so the running pass is killed and awaited
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "mremix" / "cli.py").is_file():
        print(f"perfbench: no mremix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds, args.trace, deadline)
    good = [p for p in run["passes"] if "commands" in p]
    if args.trace:
        metrics = layer_metrics(good)
    else:
        metrics = end_to_end(workload, good, run["setup"])
    env = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "kernel_backend": good[0]["kernel_backend"] if good else None,
        "git_sha": _git_sha(), "seed": args.seed, "workload": workload.name,
        "trace": args.trace, "passes": len(run["passes"]), "inputs": workload.input_sizes(),
    }
    attempted, failed = run["attempted"], run["failed"]
    _record(env, metrics, run)

    for message in run["messages"]:
        print(f"FAILED {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_ratio':36s} {failed / attempted:.6g} ({failed}/{attempted} commands)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def _check_counters(outcome: dict, passes: list[dict]) -> list[str]:
    """Integer counters of a traced pass must equal the first traced pass's."""
    first = next((p for p in passes if p.get("traced") and "layers" in p), None)
    if first is None:
        return []
    return [
        f"counter {key} is {value}, first traced pass had {first['layers'][key]}"
        for key, value in outcome["layers"].items()
        if isinstance(value, int) and value != first["layers"][key]
    ]


def end_to_end(workload, passes: list[dict], setup_times: list[float]) -> dict:
    """End-to-end metrics over the given (untraced) passes: times and memory
    are medians; ``items_per_s`` is the run's throughput, all the passes'
    items over the summed wall time of the commands that process them."""
    items_cmds = workload.items_commands()
    items_wall = sum(c["wall"] for p in passes for c in p["commands"] if c["name"] in items_cmds)
    values = {
        "setup_s": median(setup_times),
        "run_s": median([p["run_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "items_per_s": workload.items() * len(passes) / items_wall if passes else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(passes: list[dict]) -> dict:
    """Per-layer metrics of a traced run: medians of times, exact counts."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values: dict[str, float] = {}
    for key, value in traced[0]["layers"].items() if traced else ():
        values[key] = value if isinstance(value, int) else median(
            [p["layers"][key] for p in traced]
        )
    values["build_formats_s"] = median([
        sum(c["wall"] for c in p["commands"] if c["name"] == "build-formats") for p in untraced
    ])
    values["trace.overhead_s"] = (
        median([p["run_s"] for p in traced]) - median([p["run_s"] for p in untraced])
    )
    values["trace.coverage"] = median([p["top_level_s"] / p["run_s"] for p in traced])
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in LAYER_METRICS}


def _record(env: dict, metrics: dict, run: dict) -> None:
    """Append the result entry; write the spans of traced passes."""
    STATE.mkdir(exist_ok=True)
    passes = run["passes"]
    entry = {"env": env, "metrics": {k: v["value"] for k, v in metrics.items()},
             "attempted": run["attempted"], "failed": run["failed"],
             "setup_s_samples": run["setup"], "run_s_samples": [p.get("run_s") for p in passes],
             "cpu_s_samples": [p.get("cpu_s") for p in passes],
             "command_walls": [[c["wall"] for c in p.get("commands", ())] for p in passes]}
    with (STATE / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    traced = [(i, p) for i, p in enumerate(passes) if p.get("spans")]
    if traced:
        spans_dir = STATE / "spans"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"{env['workload']}-seed{env['seed']}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for pass_id, p in traced:
                for name, start, end, parent in p["spans"]:
                    fh.write(json.dumps({"pass": pass_id, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
