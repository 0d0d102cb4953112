"""Every full-size seed-0 benchmark job prints the bytes pinned for it.

Each job runs as the benchmark runs it: a fresh ``python -m strfn ...``
process, or ``bench/job.py api ...`` where the CLI has no entry point,
from the repository root with ``PYTHONPATH=src``.  The sha256 of its
stdout must equal the one in ``bench/digests.json``, so a change to any
output byte fails here, not only in a benchmark run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PINNED = json.loads((BENCH / "digests.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed_zero_jobs_print_the_pinned_bytes(tmp_path, workload):
    jobs = _workloads().build(workload, 0, tmp_path)
    assert sorted(job.name for job in jobs) == sorted(PINNED[workload])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for job in jobs:
        argv = ([sys.executable, "-m", "strfn"] if job.kind == "cli"
                else [sys.executable, str(BENCH / "job.py"), job.kind])
        done = subprocess.run([*argv, *job.args], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        assert job.verify(done.returncode, done.stdout) is None, (job.name, done.stderr)
        assert hashlib.sha256(done.stdout).hexdigest() == PINNED[workload][job.name], job.name
