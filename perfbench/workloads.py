"""The benchmark's workloads: inputs made from a seed, job lists, expected results.

Every job is a call sequence into the public functions of divaria's
layers.  ``make_jobs`` is the set-up step: it builds every input from the
seed and returns the jobs in run order.  A job's ``run`` is what is timed;
its ``check`` compares the result with values recorded here and returns
``(check name, ok)`` pairs.

Why each workload, and which layer it loads:

* ``oracle`` -- the acceptance sweep that compares the recursive evaluator
  (``eval_term``) with the closed forms (``closed_form_eval``) on all words
  of degree <= 4 over the seven corpus algebras, plus seeded one-pair
  tuples, and ``divaria envelope --verify --max-arity 4``.  Nearly all work
  is in ``envelope``, ``hopf``, ``fd`` and ``words``; ``linalg`` does almost
  none.  This is where a subword memo pays off.
* ``leibniz`` -- the Leibniz pipeline (envelope, Lie quotient, pseudo-algebra
  check, conformal representation, homomorphism extension) on algebras of
  growing dimension up to gl3 (dim 9), then ``embed_associative`` and the
  ``check`` and ``represent`` commands.  The closed forms here produce ideal
  rows that go into a ``RowSpace``, so a memo tuned to the reuse in
  ``oracle`` shows its cost or gain here; it also loads ``fd`` scans and
  ``current``/``conformal``.
* ``identities`` -- ``derive`` for the five builtin varieties, consequence
  spans at arity 5 (alternative at arity 4), and ``operad-selftest``.  Exact row reduction in
  ``linalg`` does most of the work and ``envelope`` does none.

Left out on purpose: ``embed_associative`` on gl3 (|B|^3 = 73^3 triples,
about 154 s) and on sl2 with the adjoint module (about 67 s); either alone
exceeds a run.  The alternative consequence span at arity 5 (about 12 s
in one call) would make an ``identities`` run hold only two samples; it
runs at arity 4.

The seed draws the one-pair tuples of ``oracle`` (seed 88 reproduces the
acceptance test) and a relabeling of the basis of every ``leibniz``
algebra, which leaves every expected value unchanged.  ``identities`` has
no seeded input: relabeling the variables of an identity reorders the rows
of its consequence span, and that alone moved the time of the alternative
span at arity 5 by up to 40% between seeds.  The command-line jobs take
fixed arguments, so their stdout digests are fixed too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
from dataclasses import dataclass
from random import Random
from typing import Callable

from divaria import cli
from divaria.conformal import build_rho, embed_associative, verify_representation
from divaria.envelope import (build_envelope, build_var_quotient, check_var_pseudo,
                              closed_form_eval, eval_term, extend_hom)
from divaria.fd import FDAlgebra, corpus, leibniz2, leibniz3, leibniz_to_dialgebra, sl2
from divaria.operads import IdentitySet, consequence_space
from divaria.perms import random_perm, symmetric_group
from divaria.varieties import builtin_identity_set
from divaria.words import all_shapes

WORKLOADS = ("oracle", "leibniz", "identities")
SIZES = ("full", "smoke")

# The job whose time is reported as largest_job_s.
LARGEST_JOB = {"oracle": "oracle.sl2", "leibniz": "pipeline.gl3",
               "identities": "consequence.lie.5"}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# Tensor-part dimension of each corpus envelope; the one-pair draws need it
# before the envelope is built, and the job checks it.
ORACLE_C1_DIM = {"leibniz2": 3, "leibniz3": 5, "sl2": 9, "uppertri2-diag": 9,
                 "dual-numbers-diag": 4, "abelian2": 4, "bar-unit": 3}


# Words times basis tuples per (algebra dimension, maximal degree), and
# one-pair tuples (three per word and slot) per maximal degree.
BASIS_TUPLES = {(2, 4): 2026, (3, 4): 10065, (2, 2): 10}
ONE_PAIR_TUPLES = {4: 1563, 2: 15}


def oracle_sweep(d, max_degree: int, draws: dict) -> dict:
    """Criterion-08 sweep on one algebra; draws[n] lists (word, slot, pair, idx)."""
    env = build_envelope(d)
    instances = one_pair = mismatches = 0
    for n in range(1, max_degree + 1):
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for idx in itertools.product(range(d.dim), repeat=n):
                args = [env.basis_a(i) for i in idx]
                instances += 1
                if not eval_term(env, word, args).eq(closed_form_eval(env, word, args)):
                    mismatches += 1
        for word, slot, k, idx in draws.get(n, ()):
            it = iter(idx)
            args = [env.pair(*env.c1_basis[k]) if pos == slot else env.basis_a(next(it))
                    for pos in range(1, n + 1)]
            one_pair += 1
            if not eval_term(env, word, args).eq(closed_form_eval(env, word, args)):
                mismatches += 1
    return {"instances": instances, "one_pair": one_pair, "mismatches": mismatches,
            "c1_dim": len(env.c1_basis)}


def _oracle_draws(rng: Random, c1_dim: int, dim: int, max_degree: int) -> dict:
    """The acceptance test's one-pair draws, in its order."""
    draws: dict = {}
    if not c1_dim:
        return draws
    for n in range(1, max_degree + 1):
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for slot in range(1, n + 1):
                for _ in range(3):
                    k = rng.randrange(c1_dim)
                    idx = tuple(rng.randrange(dim) for _ in range(n - 1))
                    draws.setdefault(n, []).append((word, slot, k, idx))
    return draws


def _oracle_jobs(seed: int, size: str) -> list[Job]:
    max_degree = 4 if size == "full" else 2
    members = corpus() if size == "full" else corpus()[:1]
    rng = Random(seed)
    jobs = []
    # one job per algebra, in the acceptance test's order; the draws are
    # made up front, in that order, so they match the test's
    for name, d in members:
        c1_dim = ORACLE_C1_DIM[name]
        draws = _oracle_draws(rng, c1_dim, d.dim, max_degree)
        want = {"instances": BASIS_TUPLES[(d.dim, max_degree)],
                "one_pair": ONE_PAIR_TUPLES[max_degree] if c1_dim else 0,
                "mismatches": 0, "c1_dim": c1_dim}
        jobs.append(Job(f"oracle.{name}",
                        lambda d=d, draws=draws: oracle_sweep(d, max_degree, draws),
                        lambda got, want=want: _compare(got, want)))
    arity = "4" if size == "full" else "2"
    jobs.append(_cli_job("cli.envelope",
                         ["envelope", "--dialgebra", "leibniz2.json", "--variety", "lie",
                          "--verify", "--max-arity", arity, "--json"]))
    return jobs


# ---------------------------------------------------------------------------
# leibniz
# ---------------------------------------------------------------------------

def gl(n: int) -> FDAlgebra:
    """The commutator Lie algebra of the n x n matrix units E_ij."""
    units = [(i, j) for i in range(n) for j in range(n)]
    pos = {u: k for k, u in enumerate(units)}
    dim = len(units)
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[a][b][pos[(i, l)]] += 1
            if l == i:
                table[a][b][pos[(k, j)]] -= 1
    return FDAlgebra(table, [f"E{i + 1}{j + 1}" for i, j in units])


def relabel(g: FDAlgebra, perm: tuple) -> FDAlgebra:
    """The same algebra with basis element i renamed perm[i] - 1."""
    dim = g.dim
    new = [p - 1 for p in perm]
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            vec = [0] * dim
            for k, c in enumerate(g.table[i][j]):
                vec[new[k]] = c
            table[new[i]][new[j]] = vec
    labels = [None] * dim
    for i, label in enumerate(g.labels):
        labels[new[i]] = label
    return FDAlgebra(table, labels)


# name -> (ideal rank, quotient tensor-part dim) of the Lie quotient
PIPELINE_EXPECTED = {"leibniz2": (1, 2), "leibniz3": (2, 3), "sl2": (8, 1),
                     "gl2": (14, 2), "gl3": (79, 2)}


def pipeline(g: FDAlgebra, lie: IdentitySet) -> dict:
    env = build_envelope(leibniz_to_dialgebra(g))
    vq = build_var_quotient(env, lie)
    witness = check_var_pseudo(vq.quotient, lie)
    rep = build_rho(g, "trivial")
    verified = verify_representation(rep)
    hom = extend_hom(vq.quotient, rep.rho, rep.cur_lie)
    return {"ideal_rank": vq.ideal.rank, "quotient_tensor_dim": len(vq.quotient.c1_basis),
            "pseudo_identities": witness is None, "representation": verified.passed,
            "extension": sorted(k for k, ok in hom.checks.items() if ok)}


def _leibniz_jobs(seed: int, size: str) -> list[Job]:
    rng = Random(seed)
    lie = builtin_identity_set("lie")
    algebras = {"leibniz2": leibniz2(), "leibniz3": leibniz3(), "sl2": sl2(),
                "gl2": gl(2), "gl3": gl(3)}
    algebras = {name: relabel(g, random_perm(g.dim, rng)) for name, g in algebras.items()}
    piped = list(algebras) if size == "full" else ["leibniz2"]
    embedded = ["leibniz2", "sl2", "gl2"] if size == "full" else ["leibniz2"]
    jobs = []
    for name in piped:
        rank, c1 = PIPELINE_EXPECTED[name]
        want = {"ideal_rank": rank, "quotient_tensor_dim": c1, "pseudo_identities": True,
                "representation": True,
                "extension": ["degree-bound", "dialgebra-hom", "kills-relations",
                              "preserves-products", "t-linear"]}
        jobs.append(Job(f"pipeline.{name}", lambda g=algebras[name]: pipeline(g, lie),
                        lambda got, want=want: _compare(got, want)))
    for name in embedded:
        jobs.append(Job(f"embed.{name}",
                        lambda g=algebras[name]: embed_associative(g, "trivial")[0].passed,
                        lambda got: [("passed", got is True)]))
    jobs.append(_cli_job("cli.check", ["check", "--dialgebra", "leibniz2.json",
                                       "--variety", "lie", "--json"]))
    jobs.append(_cli_job("cli.represent", ["represent", "--leibniz", "leibniz2.json",
                                           "--module", "trivial", "--json"]))
    return jobs


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

# (variety, arity) -> rank of the consequence span
CONSEQUENCE_RANKS = {("associative", 5): 1560, ("lie", 5): 1656, ("jordan", 5): 1625,
                     ("alternative", 4): 88, ("associative", 3): 6}


def _identities_jobs(seed: int, size: str) -> list[Job]:
    jobs = []
    derived = ["associative", "commutative", "alternative", "lie", "jordan"]
    if size == "smoke":
        derived = ["associative"]
    for name in derived:
        argv = ["derive", "--variety", name, "--json"]
        if name in ("commutative", "lie"):
            argv.append("--single-op")
        jobs.append(_cli_job(f"cli.derive.{name}", argv))
    # alternative at arity 5 (about 12 s) is left out; see the module docstring
    spans = ([("associative", 5), ("lie", 5), ("jordan", 5), ("alternative", 4)]
             if size == "full" else [("associative", 3)])
    for name, n in spans:
        rank = CONSEQUENCE_RANKS[(name, n)]
        jobs.append(Job(f"consequence.{name}.{n}",
                        lambda ids=builtin_identity_set(name), n=n: consequence_space(ids, n).rank,
                        lambda got, rank=rank: [("rank", got == rank)]))
    trials = "1000" if size == "full" else "20"
    jobs.append(_cli_job("cli.operad-selftest",
                         ["operad-selftest", "--trials", trials, "--seed", "0", "--json"]))
    return jobs


# ---------------------------------------------------------------------------
# command-line jobs
# ---------------------------------------------------------------------------

# command line -> SHA-256 of the stdout bytes of the command, which exits 0
CLI_STDOUT_SHA256 = {
    "envelope --dialgebra leibniz2.json --variety lie --verify --max-arity 4 --json":
        "925b032dd572c909a154706181cf1b4001e007407b418cd9c1fc4a1c393c93a2",
    "envelope --dialgebra leibniz2.json --variety lie --verify --max-arity 2 --json":
        "e2050957e6b305d91b8da9eb516558b8b7e7ba7fc862a7bb395a8d6c76b5bec1",
    "check --dialgebra leibniz2.json --variety lie --json":
        "998473b3f1a37420f6924a9bf86a230ecf35595226101c34599c449f79acfbb3",
    "represent --leibniz leibniz2.json --module trivial --json":
        "243bb6ec3612fa5b178ff4652d1b5949f187426e1c7d9ad6863732fc17c94743",
    "derive --variety associative --json":
        "b59d4a10ce6e3e333ad5ba78103bb7283a01a3d1c3998158cc40fa5e596bbfdf",
    "derive --variety commutative --json --single-op":
        "8b4d44b946bd2303ff1955db19675b92eb00b93fa88976a60a401a3baf90ecb5",
    "derive --variety alternative --json":
        "6d56769f4e44664e8041a90e3643f162f6b7cece2e9f806bf41634d88e5ebde5",
    "derive --variety lie --json --single-op":
        "41f0abb12da3bcf4ca86896ba11aa5075e666c20d5b923489070a65f5c491c40",
    "derive --variety jordan --json":
        "b9dd75938684bb8f60c8215f1bca77a399e8db23ac8ff4f82a354c1da018fd3c",
    # the JSON report names each operad's verdict, not its trial count
    "operad-selftest --trials 1000 --seed 0 --json":
        "5448afc830ae4e8e0572d30732d06ef1c5b98d8a21da22a1a5e149b419a10abe",
    "operad-selftest --trials 20 --seed 0 --json":
        "5448afc830ae4e8e0572d30732d06ef1c5b98d8a21da22a1a5e149b419a10abe",
}


def run_cli(argv: list) -> tuple[int, str]:
    """cli.main on argv; returns the exit code and the SHA-256 of its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _cli_job(name: str, argv: list) -> Job:
    want = CLI_STDOUT_SHA256[" ".join(argv)]

    def check(got):
        code, digest = got
        return [("exit-code", code == 0), ("stdout-sha256", digest == want)]

    return Job(name, lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------

def _compare(got: dict, want: dict) -> list:
    return [(key, got.get(key) == value) for key, value in want.items()]


def make_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    """Build every input of the workload from the seed; the jobs in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return {"oracle": _oracle_jobs, "leibniz": _leibniz_jobs,
            "identities": _identities_jobs}[workload](seed, size)
