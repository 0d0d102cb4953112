"""strfn benchmark: fixed batches of decision jobs, timed end to end and per layer.

    python3 bench/run.py --workload {holds-scan,fails-witness,construct,all}
                         --seed N --seconds S --trace {0,1} [--toy]

Each workload is a fixed batch of jobs (see ``workloads.py``), run as a
closed loop by this one client: a job starts when the previous one has
ended.  A job is one ``python -m strfn ...`` subprocess with
``PYTHONPATH=src``, or one ``bench/job.py api ...`` subprocess where the
CLI has no entry point.  Every job starts in a fresh interpreter, so
caches start cold as they do for a CLI user.

Set-up first runs ``strfn eval --input <spec> ""`` once for each function
spec of the workload (an import-only probe stands in for jobs without
one): one warm-up probe, then ``SETUP_ROUNDS`` timed rounds.  Then the
batch repeats while another batch still fits in ``--seconds``.  Each job
and each set-up round runs between two runs of a calibration loop, and
its times are scaled to reference speed (see ``CALIBRATION``).

``--trace 0`` reports the end-to-end metrics: medians over batches of
the batch wall time, the jobs' user+system CPU and their largest peak
RSS (both from ``os.wait4``), the median set-up probe time, and the
share of runs that were correct.  ``--trace 1`` alternates untraced and
traced batches (``job.py --spans``) and reports the per-layer metrics,
plus evaluation counts from one counting pass (``job.py --count``).

Every run is verified: exit code and verdict as the input was built to
give, and stdout bytes equal to a reference: the digests pinned in
``digests.json`` for seed 0 at full size, else the first run of the job.
Traced runs must match too.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any run was wrong.  A full record (machine, one row per
job, spans of the last traced batch) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 3
# On a shared host the speed of a core can drift by a fifth or more within
# minutes, and a job's CPU time drifts with its wall time.  So every job
# runs between two runs of this fixed loop, which touches no strfn code,
# and its times are scaled to the speed at which the loop takes CAL_REF_S.
CALIBRATION = (
    "d = {}\n"
    "for i in range(60000):\n"
    "    s = str(i)\n"
    "    d[s] = s[::-1] + s\n"
)
CAL_REF_S = 0.1
# The specio functions the CLI loads its inputs with.
LOADERS = {"load_function", "load_partial", "_read"}


def _machine() -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu": cpu}


class Runner:
    """Runs one subprocess at a time through ``launcher.py``."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Stop the launcher; it kills a job still running."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=1)
        except subprocess.TimeoutExpired:
            self.launcher.terminate()
            self.launcher.wait()

    def spawn(self, argv: list[str]) -> dict[str, Any]:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        self.launcher.stdin.write(json.dumps(
            {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        run = json.loads(reply)
        run["stdout"] = out_path.read_bytes()
        run["stderr"] = err_path.read_bytes().decode(errors="replace")[-300:]
        return run


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "strfn", *args]


def _job_argv(job: workloads.Job, mode: tuple[str, ...] = ()) -> list[str]:
    if job.kind == "cli" and not mode:
        return _cli(job.args)
    return [sys.executable, str(HERE / "job.py"), *mode, job.kind, *job.args]


class Workload:
    """One workload's jobs, their reference digests and every run's outcome."""

    def __init__(self, name: str, seed: int, toy: bool, runner: Runner,
                 pinned: dict[str, str]) -> None:
        self.name = name
        self.runner = runner
        spec_dir = runner.tmp / name
        spec_dir.mkdir()
        self.jobs = workloads.build(name, seed, spec_dir, toy)
        self.reference = dict(pinned)
        self.rows: dict[str, dict[str, Any]] = {
            j.name: {"name": j.name, "kind": j.kind, "expected_rc": j.rc,
                     "runs": [], "errors": []}
            for j in self.jobs
        }
        self.attempted = 0
        self.failed = 0

    def _record(self, key: str, run: dict[str, Any], error: str | None) -> None:
        """Count one run and compare its bytes with the job's reference."""
        digest = hashlib.sha256(run["stdout"]).hexdigest()
        ref = self.reference.setdefault(key, digest)
        if error is None and digest != ref:
            error = f"stdout sha256 {digest[:12]} differs from reference {ref[:12]}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            row = self.rows.setdefault(key, {"name": key, "runs": [], "errors": []})
            row["errors"].append(f"{error}; stderr: {run['stderr'].strip()}")
        run["sha256"] = digest

    # -- set-up ------------------------------------------------------------

    def probes(self) -> list[tuple[str, list[str]]]:
        specs = list(dict.fromkeys(s for j in self.jobs for s in j.specs))
        out = [(f"probe:{Path(s).name}", _cli(["eval", "--input", s, ""]))
               for s in specs]
        if any(not j.specs for j in self.jobs):
            out.append(("probe:import", [sys.executable, "-c", "import strfn"]))
        return out

    def calibrate(self) -> float:
        """Wall time of the calibration loop, which runs no strfn code."""
        run = self.runner.spawn([sys.executable, "-I", "-c", CALIBRATION])
        if run["rc"] != 0:
            raise RuntimeError(f"calibration loop failed: {run['stderr']}")
        return run["wall"]

    def setup(self, rounds: int) -> list[float]:
        """Per timed round, the mean probe wall time at reference speed."""
        probes = self.probes()
        self.runner.spawn(probes[0][1])  # fills the bytecode cache
        means = []
        for _ in range(rounds):
            before = self.calibrate()
            walls = []
            for key, argv in probes:
                run = self.runner.spawn(argv)
                self._record(key, run, None if run["rc"] == 0
                             else f"probe exit code {run['rc']}")
                walls.append(run["wall"])
            scale = 2 * CAL_REF_S / (before + self.calibrate())
            means.append(statistics.fmean(walls) * scale)
        return means

    # -- batches -----------------------------------------------------------

    def batch(self, traced: bool = False) -> dict[str, Any]:
        """Run every job once, with a calibration loop before and after each.

        ``wall`` and ``cpu`` sum the jobs' own times, so the loops between
        them do not count; ``wall_ref`` and ``cpu_ref`` scale each job's
        times by the mean of the two loops around it to reference speed.
        """
        out = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0,
               "rss_mb": 0.0, "bytes": 0, "spans": {}}
        cals = [self.calibrate()]
        for job in self.jobs:
            if traced:
                span_file = self.runner.tmp / "spans.json"
                run = self.runner.spawn(_job_argv(job, ("--spans", str(span_file))))
                out["spans"][job.name] = (json.loads(span_file.read_text())
                                          if run["rc"] == job.rc else [])
            else:
                run = self.runner.spawn(_job_argv(job))
            self._record(job.name, run, job.verify(run["rc"], run["stdout"]))
            cals.append(self.calibrate())
            scale = 2 * CAL_REF_S / (cals[-2] + cals[-1])
            out["wall"] += run["wall"]
            out["cpu"] += run["cpu"]
            out["wall_ref"] += run["wall"] * scale
            out["cpu_ref"] += run["cpu"] * scale
            out["rss_mb"] = max(out["rss_mb"], run["rss_kb"] / 1024)
            out["bytes"] += len(run["stdout"])
            if not traced:
                self.rows[job.name]["runs"].append(
                    {"cal_s": cals[-2:],
                     **{k: run[k] for k in ("rc", "wall", "cpu", "rss_kb", "sha256")}})
        return out

    def count(self) -> dict[str, float]:
        """One counting pass over the jobs that load function specs."""
        totals: dict[str, float] = defaultdict(float)
        count_file = self.runner.tmp / "count.json"
        for job in self.jobs:
            if not job.specs:
                continue
            run = self.runner.spawn(_job_argv(job, ("--count", str(count_file))))
            self._record(job.name, run, job.verify(run["rc"], run["stdout"]))
            if run["rc"] == job.rc:
                for k, v in json.loads(count_file.read_text()).items():
                    totals[k] += v
        return totals


def _layer_metrics(spans: dict[str, list[dict[str, Any]]]) -> dict[str, float]:
    """Per-layer sums over the outermost span of each layer in every job."""
    m: dict[str, float] = defaultdict(float)
    for job_spans in spans.values():
        for span in job_spans:
            layer, name = span["layer"], span["name"]
            parent, nested = span["parent"], False
            while parent is not None:
                nested |= job_spans[parent]["layer"] == layer
                parent = job_spans[parent]["parent"]
            if nested:
                continue
            dur = span["end"] - span["start"]
            if layer == "checkers":
                m[f"checkers.{span['verdict']}_s"] += dur
                m["checkers.checked"] += span["checked"]
                m["checkers.skipped"] += span["skipped"]
            elif layer == "specio":
                if name in LOADERS:
                    m["specio.load_s"] += dur
                elif name.endswith("_to_json") or name == "to_text":
                    m["specio.serialize_s"] += dur
            elif layer == "factorization" and name == "factorize":
                m["factorization.factorize_s"] += dur
                m["factorization.classes"] += span["classes"]
            elif layer == "extension":
                m["extension.extend_s"] += dur
            elif layer == "quotient":
                m["quotient.theta_s"] += dur
            elif layer == "lengthbased":
                key = "sweep_s" if name == "sweep_alpha_tables" else "alpha_s"
                m[f"lengthbased.{key}"] += dur
    return m


def _per_layer(traced: list[dict[str, Any]], untraced: list[dict[str, Any]],
               counts: dict[str, float]) -> dict[str, float]:
    layers = [_layer_metrics(b["spans"]) for b in traced]
    names = sorted({k for m in layers for k in m})
    out = {k: statistics.median(m.get(k, 0.0) for m in layers) for k in names}
    busy = out.get("checkers.holds_s", 0.0) + out.get("checkers.fails_s", 0.0)
    out["checkers.checked_per_s"] = out.get("checkers.checked", 0.0) / busy if busy else 0.0
    out["core.value_map_s"] = counts.get("value_map_s", 0.0)
    out["core.domain_strings"] = counts.get("domain_strings", 0.0)
    out["core.evals"] = counts.get("evals", 0.0)
    strings = out["core.domain_strings"]
    out["core.evals_per_string"] = out["core.evals"] / strings if strings else 0.0
    out["specio.output_bytes"] = statistics.median(b["bytes"] for b in traced)
    out["trace.overhead_s"] = (statistics.median(b["wall"] for b in traced)
                               - statistics.median(b["wall"] for b in untraced))
    return out


def _job_summary(runs: list[dict[str, Any]]) -> dict[str, float]:
    if not runs:
        return {}
    return {"wall_median_s": statistics.median(r["wall"] for r in runs),
            "cpu_median_s": statistics.median(r["cpu"] for r in runs),
            "rss_max_kb": max(r["rss_kb"] for r in runs),
            "sha256": sorted({r["sha256"] for r in runs})}


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool,
                 runner: Runner, pinned: dict[str, str]) -> tuple[Workload, dict[str, float], dict]:
    wl = Workload(name, seed, toy, runner, pinned)
    setup = wl.setup(1 if toy else SETUP_ROUNDS)
    counts = wl.count() if trace else {}
    deadline = time.perf_counter() + seconds
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    while True:
        start = time.perf_counter()
        untraced.append(wl.batch())
        if trace:
            traced.append(wl.batch(traced=True))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break

    if trace:
        metrics = _per_layer(traced, untraced, counts)
    else:
        metrics = {
            "batch_s": statistics.median(b["wall_ref"] for b in untraced),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(b["cpu_ref"] for b in untraced),
            "peak_rss_mb": statistics.median(b["rss_mb"] for b in untraced),
            "ok_ratio": (wl.attempted - wl.failed) / wl.attempted,
        }
    extra = {"batches": len(untraced), "traced_batches": len(traced),
             "setup_rounds_s": setup,
             "batch_walls_s": [b["wall"] for b in untraced],
             "spans": traced[-1]["spans"] if traced else {}}
    return wl, metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description="strfn benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for smoke tests of the harness")
    args = parser.parse_args()

    if not (ROOT / "src" / "strfn" / "__init__.py").is_file():
        print(f"error: no strfn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    pinned_all = json.loads((HERE / "digests.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    machine = _machine()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    results_dir = ROOT / ".bench_out"
    results_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    attempted = failed = 0
    final: dict[str, dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        runner = Runner(Path(tmp))
        try:
            results = [
                run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy,
                             runner, {} if args.toy or args.seed != 0
                             else pinned_all.get(name, {}))
                for name in names
            ]
        finally:
            runner.close()

    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for wl, metrics, extra in results:
        attempted += wl.attempted
        failed += wl.failed
        reported = {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units}
        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "machine": machine,
            "attempted": wl.attempted, "failed": wl.failed,
            "metrics": reported, **extra,
            "jobs": [{**row, **_job_summary(row["runs"]),
                      "reference_sha256": wl.reference.get(key)}
                     for key, row in wl.rows.items()],
        }
        out = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1))
        print(f"{wl.name} (seed {args.seed}, {extra['batches']} batches, "
              f"{wl.attempted} runs, {wl.failed} failed) -> {out.relative_to(ROOT)}")
        for key, m in reported.items():
            print(f"  {key:28s} {m['value']:14.6f} {m['unit']}")
        for row in wl.rows.values():
            for err in row["errors"][:3]:
                print(f"  FAILED {row['name']}: {err}", file=sys.stderr)
        prefix = "" if len(names) == 1 else f"{wl.name}."
        final.update({prefix + k: v for k, v in reported.items()})

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
