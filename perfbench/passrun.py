"""One pass of a workload, in a fresh interpreter.

Runs the workload's CLI commands in-process through ``mremix.cli.main``
and writes the pass's timings (and, when traced, its spans and per-layer
metrics) as JSON. A fresh process per pass makes peak RSS a property of
the pass. ``run.py`` starts this script; to run it by hand:

    python3 perfbench/passrun.py <request.json>

where the request names the source tree, work directory, workload spec, seed,
whether to trace and where to write the result. The work directory must
already hold the workload's inputs and is used as the current directory.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, request["src"])
    work = Path(request["work"])
    os.chdir(work)

    import mremix
    from mremix import cli

    import workloads

    tracer = None
    if request["traced"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    workload = workloads.Workload.from_dict(request["workload"])
    seed = request["seed"]
    results = []
    for cmd in workloads.commands(workload, seed):
        if cmd.name == "evaluate" and not (work / "generations").exists():
            workloads.make_generations(seed, work)  # harness input, outside the timed span
        stderr = io.StringIO()
        cpu0, start = _cpu(), perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = cli.main(list(cmd.argv))
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            code, stderr = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        wall, cpu = perf_counter() - start, _cpu() - cpu0
        results.append({"name": cmd.name, "code": code, "wall": wall, "cpu": cpu,
                        "stderr": stderr.getvalue()[-400:]})

    result = {
        "commands": results,
        "run_s": sum(r["wall"] for r in results),
        "cpu_s": sum(r["cpu"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_backend": mremix.KERNEL_BACKEND,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["top_level_s"] = tracing.top_level_time(tracer)
        result["spans"] = tracer.spans
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
