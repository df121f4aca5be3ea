"""The benchmark's tracer must still find every name it hooks in the package.

``perfbench/tracer.py`` rebinds layer functions by module attribute. A
renamed or removed function would otherwise only show up as a failure of
the benchmark's traced pass. The benchmark's own self-test runs here too,
so its exact counters are checked with every test run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import mremix
from mremix import cli, evaluation, formats, refmlm, runner
import tracer

modules = (cli, evaluation, formats, refmlm, runner)
before = [set(vars(m)) for m in modules]
tracer.install(tracer.Tracer())
added = {m.__name__: sorted(set(vars(m)) - b) for m, b in zip(modules, before)}
assert not any(added.values()), f"tracer hooks names the package lacks: {added}"
assert mremix.KERNEL_BACKEND == "pure", mremix.KERNEL_BACKEND
"""


def test_tracer_installs_on_existing_names():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_selftest_passes():
    # pins the counters a scoring change must keep, e.g. one refmlm.score call
    # per prediction and one kernels.observe call per training text
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
