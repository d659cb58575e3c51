"""Smoke test of the benchmark: every workload once on its smallest input.

Run from the root of a checkout (it is not part of the tier-1 suite):

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs traced twice at ``--size smoke``.  The test asserts
that every result check passes, that traced call counts equal counts
known exactly from the inputs, and that the two traced runs give
identical counts.  It also checks that the reference computation, which
sets the benchmark's unit of time, does the same work as always.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reference import reference_work

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("oracle", "leibniz", "identities")


def traced_sample(workload: str, spans: Path) -> tuple[dict, dict]:
    res = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), "--workload", workload, "--seed", "88",
         "--size", "smoke", "--trace-file", str(spans)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1]), json.loads(spans.read_text())


def calls(trace: dict, job: str, name: str) -> int:
    return trace["jobs"][job]["layers"].get(name, [0])[0]


def counts(trace: dict) -> dict:
    """Every deterministic counter of a trace: calls, true results, cache deltas."""
    return {job: ({name: (st[0], st[3]) for name, st in data["layers"].items()},
                  data["caches"])
            for job, data in trace["jobs"].items()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    return {w: [traced_sample(w, tmp / f"{w}-{k}.json") for k in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass(runs, workload):
    for out, _trace in runs[workload]:
        assert out["errors"] == []
        assert out["checks"] and all(ok for _job, _check, ok in out["checks"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat(runs, workload):
    (_, first), (_, second) = runs[workload]
    assert counts(first) == counts(second)


def test_oracle_counts(runs):
    _, trace = runs["oracle"][0]
    # leibniz2 at degree <= 2: 2 + 8 basis tuples and 3 + 12 one-pair tuples,
    # each evaluated once by each evaluator
    assert calls(trace, "oracle.leibniz2", "envelope.eval_term") == 25
    assert calls(trace, "oracle.leibniz2", "envelope.closed_form_eval") == 25
    assert calls(trace, "oracle.leibniz2", "envelope.EnvelopePA.init") == 1
    assert calls(trace, "cli.envelope", "cli.envelope") == 1
    assert calls(trace, "cli.envelope", "envelope.build_var_quotient") == 1
    splits = trace["jobs"]["oracle.leibniz2"]["caches"]["hopf.coproduct_splits"]
    assert splits["hits"] + splits["misses"] > 0


def test_leibniz_counts(runs):
    _, trace = runs["leibniz"][0]
    for name in ("envelope.build_var_quotient", "envelope.check_var_pseudo",
                 "envelope.extend_hom", "conformal.build_rho",
                 "conformal.verify_representation"):
        assert calls(trace, "pipeline.leibniz2", name) == 1, name
    assert calls(trace, "embed.leibniz2", "conformal.embed_associative") == 1
    assert calls(trace, "cli.check", "fd.is_var_dialgebra") == 1
    assert calls(trace, "cli.represent", "cli.represent") == 1


def test_identities_counts(runs):
    _, trace = runs["identities"][0]
    assert calls(trace, "cli.derive.associative", "translate.derive_variety") == 1
    assert calls(trace, "consequence.associative.3", "operads.consequence_space") == 1
    # the rank (6) is the number of adds that raised it
    assert trace["jobs"]["consequence.associative.3"]["layers"]["linalg.RowSpace.add"][3] == 6
    assert calls(trace, "consequence.associative.3", "envelope.eval_term") == 0
    assert calls(trace, "cli.operad-selftest", "operads.axiom_check") == 5


def test_reference_is_fixed():
    assert reference_work() == 411


def test_times_scaled(runs):
    out, _trace = runs["leibniz"][0]
    assert len(out["refs"]) >= len(out["jobs"]) + 1
    for name, scaled in out["jobs"].items():
        assert scaled > 0 and out["jobs_wall"][name] > 0, name
    assert out["setup_s"] > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
