"""Every job of the benchmark at its smoke size, run in process.

The tier-1 suite collects tests/ only, and perfbench/test_smoke.py runs
the jobs in subprocesses outside it; so without this test a package change
that breaks what perfbench/workloads.py reads (FDAlgebra's dense table, a
constructor, a CLI digest) would fail only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_smoke_job_passes_its_checks(workload):
    jobs = workloads.make_jobs(workload, 88, "smoke")
    assert jobs
    for job in jobs:
        checks = job.check(job.run())
        assert checks and all(ok for _check, ok in checks), (job.name, checks)
