"""Benchmark of divaria: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 88 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

The workloads, metrics and units are listed in ``BENCHMARK.json``; the
inputs and expected results are in ``perfbench/workloads.py``.  Each
sample runs the workload's job list once in a fresh interpreter
(``perfbench/sample.py``), and samples are started one after another
while less than ``--seconds`` have passed.  Each reported time is the
median over samples of a time scaled to the speed of a fixed reference
computation (``perfbench/reference.py``), because the speed of a shared
CPU drifts by up to a factor of two within seconds.  The medians of the
plain wall times are printed too.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the first sample is traced (``perfbench/tracer.py``) and
gives the per-layer counters and times; the untraced samples after it give
each job's time, and the tracing overhead compares the traced sample with
the untraced one right after it.

A human-readable table goes to stdout first, failed checks and their
``fail_frac`` included; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the run's
metadata and every sample goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DEADLINE_S = 170  # every run must end within 180 s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit_id() -> str:
    if not (ROOT / ".git").exists():  # a bare checkout; do not pick up an enclosing repository
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


class Runner:
    """Starts samples of one workload and keeps their results."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.failures: list[str] = []

    def sample(self, *extra: str) -> dict | None:
        cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            self.failures.append(f"no time left for a sample: {' '.join(extra)}")
            return None
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                 text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            self.failures.append(f"sample timed out after {timeout:.0f} s")
            return None
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            self.failures.append(f"sample exited {res.returncode}: {res.stderr.strip()[-2000:]}")
            return None
        return json.loads(lines[-1])


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """With trace, one traced sample; then untraced samples."""
    t0 = time.monotonic()
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{runner.workload}-seed{runner.seed}.json"
        traced = runner.sample("--trace-file", str(spans))
    samples = []
    while not samples or time.monotonic() < t0 + seconds:
        s = runner.sample()
        if s is None:
            break
        samples.append(s)
    return {"traced": traced, "samples": samples}


def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def summarize(spec: dict, runner: Runner, data: dict, trace: bool) -> dict:
    samples = data["samples"]
    every = samples + ([data["traced"]] if data["traced"] else [])
    attempted = sum(len(s["checks"]) for s in every)
    failed = sum(1 for s in every for _job, _check, ok in s["checks"] if not ok)
    failed += len(runner.failures)
    attempted += len(runner.failures)
    errors = sorted({f"{job} {check}: check failed" for s in every
                     for job, check, ok in s["checks"] if not ok})
    errors += [e for s in every for e in s["errors"]] + runner.failures
    metrics = {}
    if samples and (data["traced"] or not trace):
        if trace:
            layers = dict(data["traced"]["layers"])
            jobs = {name: statistics.median(s["jobs"][name] for s in samples)
                    for name in samples[0]["jobs"]}
            layers["trace_overhead_frac"] = data["traced"]["run_s"] / samples[0]["run_s"] - 1
            for m in spec["per_layer"]:
                name = m["name"]
                if name.startswith("job.") and name.endswith(".s"):
                    value = jobs.get(name[len("job."):-len(".s")], 0.0)
                else:
                    value = layers[name]
                metrics[name] = {"value": value, "unit": m["unit"]}
        else:
            values = {"setup_s": median_of(samples, "setup_s"),
                      "run_s": median_of(samples, "run_s"),
                      "largest_job_s": median_of(samples, "largest_job_s"),
                      "peak_rss_mb": median_of(samples, "peak_rss_mb")}
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics, "errors": errors}


def print_table(workload: str, seed: int, data: dict, result: dict) -> None:
    samples = data["samples"]
    print(f"workload {workload}  seed {seed}  samples {len(samples)}"
          f"{'  traced sample 1' if data['traced'] else ''}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if samples:
        for name in ("setup_wall_s", "run_wall_s"):
            print(f"  {name + ' (not scaled)':<48} {median_of(samples, name):>14.6g} s")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<48} {frac:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} checks failed)")
    for err in result["errors"]:
        lines = err.strip().splitlines()  # a traceback: its first and last line
        print(f"  FAILED {lines[0]}{' ' + lines[-1] if len(lines) > 1 else ''}")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 meta: dict) -> dict:
    runner = Runner(workload, seed, time.monotonic())
    data = measure(runner, seconds, trace)
    result = summarize(spec, runner, data, trace)
    print_table(workload, seed, data, result)
    OUT.mkdir(exist_ok=True)
    record = dict(meta, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  sample_count=len(data["samples"]),
                  result=result, **data)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main() -> int:
    if not (ROOT / "src" / "divaria" / "__init__.py").is_file():
        print(f"error: no divaria sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=88)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    meta = {"python": sys.version.split()[0], "commit": commit_id(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg()}
    chosen = names if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        result = run_workload(spec, workload, args.seed, args.seconds, bool(args.trace), meta)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{workload}." if len(chosen) > 1 else ""
        total["metrics"].update({prefix + name: m for name, m in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
