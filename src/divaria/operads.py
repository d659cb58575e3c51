"""Concrete operads, their composition rules, law checking, and the
multilinear consequence spans that present quotients by an identity ideal.

Element conventions:

- Sym: elements are permutations (the group basis of the span).
- E: elements are pairs (n, i) naming the i-th standard basis vector.
- AlgS, DialgS and AlgS(x)E: elements are MultilinearPoly, DiPoly and
  TensorPoly, each operad a PolyOperad of its polynomial class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from operator import itemgetter
from random import Random
from typing import Iterator, Sequence

from . import perms
from .errors import InputError, ResourceError
from .linalg import RowSpace, add_term
from .perms import Partition, Perm
from .words import DiPoly, MultilinearPoly, TensorPoly, TermPoly, all_shapes, to_vec

CONSEQUENCE_ARITY_BOUND = 5  # dimension Catalan(n-1) * n! makes n > 5 impractical
OPERAD_ARITY_BOUND = 64  # axiom_check's largest max_arity: 1,000 Sym and E trials take 0.4 s


# ---------------------------------------------------------------------------
# operads
# ---------------------------------------------------------------------------

class Operad:
    name = "?"

    def unit(self):
        raise NotImplementedError

    def arity(self, f) -> int:
        raise NotImplementedError

    def compose(self, f, pi: Partition, gs: Sequence):
        raise NotImplementedError

    def act(self, f, sigma: Perm):
        raise NotImplementedError

    def random_element(self, n: int, rng: Random):
        raise NotImplementedError

    def equal(self, f, g) -> bool:
        return f == g

    def _check(self, f, pi, gs):
        if len(gs) != len(pi):
            raise InputError(f"{self.name}: need {len(pi)} inner elements, got {len(gs)}")
        if self.arity(f) != len(pi):
            raise InputError(f"{self.name}: outer arity {self.arity(f)} != partition length {len(pi)}")
        for g, m in zip(gs, pi):
            if self.arity(g) != m:
                raise InputError(f"{self.name}: inner arity {self.arity(g)} != block size {m}")

    def __repr__(self):
        return f"<operad {self.name}>"


class SymOperad(Operad):
    name = "Sym"

    def unit(self):
        return (1,)

    def arity(self, f):
        return len(f)

    def compose(self, f, pi, gs):
        self._check(f, pi, gs)
        return perms.sym_compose(f, tuple(pi), [tuple(g) for g in gs])

    def act(self, f, sigma):
        # The action compatible with the fixed composition rule is
        # f^sigma = sigma^{-1} then f; with it the equivariance axiom holds
        # exhaustively (f -> f*sigma does not satisfy it).
        return perms.compose(perms.inverse(sigma), f)

    def random_element(self, n, rng):
        return perms.random_perm(n, rng)


class EOperad(Operad):
    name = "E"

    def unit(self):
        return (1, 1)

    def arity(self, f):
        return f[0]

    def compose(self, f, pi, gs):
        self._check(f, pi, gs)
        n, i = f
        j = gs[i - 1][1]
        return (sum(pi), perms.pair_to_index(tuple(pi), i, j))

    def act(self, f, sigma):
        n, i = f
        if len(sigma) != n:
            raise InputError("degree mismatch in E action")
        return (n, sigma[i - 1])

    def random_element(self, n, rng):
        return (n, rng.randint(1, n))


class PolyOperad(Operad):
    """The operad of the polynomials of poly_cls: an arity-n element is a
    polynomial of arity n, composed monomial by monomial through
    poly_cls.compose_mono."""

    def __init__(self, name: str, poly_cls: type[TermPoly]):
        self.name = name
        self.poly_cls = poly_cls

    def unit(self):
        return self.poly_cls(1, dict.fromkeys(self.poly_cls.monomials(1), 1))

    def arity(self, f):
        return f.arity

    def compose(self, f, pi, gs):
        self._check(f, pi, gs)
        pi = tuple(pi)
        compose_mono = self.poly_cls.compose_mono
        # (inner monomials, product of their coefficients), once for all of f
        combos = [([m for m, _ in combo], prod([c for _, c in combo]))
                  for combo in itertools.product(*[g.terms.items() for g in gs])]
        out: dict = {}
        for mono, coeff in f.terms.items():
            for inner, total in combos:
                add_term(out, compose_mono(mono, pi, inner), coeff * total)
        return self.poly_cls(sum(pi), out)

    def act(self, f, sigma):
        return f.act(sigma)

    def random_element(self, n, rng):
        mono = self.poly_cls.random_mono(n, rng)
        return self.poly_cls(n, {mono: rng.randint(1, 3)})


SYM = SymOperad()
E = EOperad()
ALGS = PolyOperad("AlgS", MultilinearPoly)
DIALGS = PolyOperad("DialgS", DiPoly)
ALGSE = PolyOperad("AlgS(x)E", TensorPoly)


# ---------------------------------------------------------------------------
# law checking
# ---------------------------------------------------------------------------

@dataclass
class LawFailure:
    law: str
    detail: str


@dataclass
class OperadReport:
    operad: str
    max_arity: int
    trials: int
    seed: int
    checked: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
        lines = [f"{self.operad}: {status} ({counts}; seed={self.seed})"]
        for f in self.failures[:5]:
            lines.append(f"  counterexample [{f.law}]: {f.detail}")
        return "\n".join(lines)


def axiom_check(op: Operad, max_arity: int, trials: int, seed: int) -> OperadReport:
    """Randomized verification of associativity, unit law and equivariance."""
    if max_arity < 1:
        raise InputError("max_arity must be >= 1")
    if max_arity > OPERAD_ARITY_BOUND:
        raise ResourceError(
            f"operad arity {max_arity} exceeds the documented bound {OPERAD_ARITY_BOUND}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    rng = Random(seed)
    report = OperadReport(op.name, max_arity, trials, seed)
    counts = {"assoc": 0, "unit": 0, "equivariance": 0}

    for _ in range(trials):
        law = rng.choice(("assoc", "unit", "equivariance"))
        if law == "unit" or max_arity < 2:
            n = rng.randint(1, max_arity)
            f = op.random_element(n, rng)
            lhs = op.compose(f, (1,) * n, [op.unit()] * n)
            rhs = op.compose(op.unit(), (n,), [f])
            counts["unit"] += 1
            if not (op.equal(lhs, f) and op.equal(rhs, f)):
                report.failures.append(LawFailure("unit", f"n={n} f={f!r} -> {lhs!r}, {rhs!r}"))
        elif law == "assoc":
            n = rng.randint(1, max_arity - 1)
            m = rng.randint(n, max_arity)
            p = rng.randint(m, max_arity)
            pi = perms.random_partition(m, n, rng)
            tau = perms.random_partition(p, m, rng)
            phi = op.random_element(n, rng)
            chis = [op.random_element(k, rng) for k in pi]
            psis = [op.random_element(k, rng) for k in tau]
            lhs = op.compose(op.compose(phi, pi, chis), tau, psis)
            taupi, subparts = perms.compose_partitions(tau, pi)
            start = perms.block_starts(pi)
            inners = [op.compose(chis[i], subparts[i], psis[start[i]:start[i + 1]])
                      for i in range(n)]
            rhs = op.compose(phi, taupi, inners)
            counts["assoc"] += 1
            if not op.equal(lhs, rhs):
                report.failures.append(LawFailure(
                    "assoc", f"pi={pi} tau={tau} phi={phi!r} chis={chis!r} psis={psis!r}"))
        else:
            n = rng.randint(1, max_arity - 1) if max_arity > 1 else 1
            m = rng.randint(n, max_arity)
            pi = perms.random_partition(m, n, rng)
            sigma = perms.random_perm(n, rng)
            phi = op.random_element(n, rng)
            psis = [op.random_element(k, rng) for k in pi]
            taus = [perms.random_perm(k, rng) for k in pi]
            inv = perms.inverse(sigma)
            lhs = op.compose(
                op.act(phi, sigma),
                perms.act_partition(pi, sigma),
                [op.act(psis[inv[k] - 1], taus[inv[k] - 1]) for k in range(n)])
            glob = perms.sym_compose(sigma, pi, taus)
            rhs = op.act(op.compose(phi, pi, psis), glob)
            counts["equivariance"] += 1
            if not op.equal(lhs, rhs):
                report.failures.append(LawFailure(
                    "equivariance", f"pi={pi} sigma={sigma} phi={phi!r} psis={psis!r} taus={taus}"))

    report.checked = counts
    return report


# ---------------------------------------------------------------------------
# identity sets and consequence spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySet:
    """A named family of multilinear defining identities (all of arity >= 2)."""

    name: str
    identities: tuple

    def __post_init__(self):
        for t in self.identities:
            if not isinstance(t, MultilinearPoly):
                raise InputError("identities must be single-product multilinear polynomials")
            if t.is_zero():
                raise InputError("identities must be nonzero")
            if t.arity < 2:
                raise InputError("identities must have arity >= 2")

    def __iter__(self):
        return iter(self.identities)


def consequence_generators(sigma: IdentitySet | Sequence[MultilinearPoly],
                           n: int) -> Iterator[MultilinearPoly]:
    """The arity-n elements whose relabelings span the consequences of
    Sigma: each identity t, composed with words into its slots and then
    into one leaf of an outer word, variables in order throughout."""
    unit = ALGS.unit()
    for t in sigma:
        m = t.arity
        if m > n:
            continue
        for p in range(m, n + 1):
            for comp in perms.compositions(p, m):
                shape_choices = [all_shapes(k) for k in comp]
                for inner_shapes in itertools.product(*shape_choices):
                    plugs = [MultilinearPoly.monomial(s, perms.identity(s.arity))
                             for s in inner_shapes]
                    inner = ALGS.compose(t, comp, plugs)
                    q = n - p + 1
                    for outer in all_shapes(q):
                        u = MultilinearPoly.monomial(outer, perms.identity(q))
                        for j in range(1, q + 1):
                            pi = (1,) * (j - 1) + (p,) + (1,) * (q - j)
                            gs = [unit] * (j - 1) + [inner] + [unit] * (q - j)
                            yield ALGS.compose(u, pi, gs)


def consequence_space(sigma: IdentitySet | Sequence[MultilinearPoly], n: int) -> RowSpace:
    """RREF row space of the arity-n multilinear part of the ideal of Sigma:
    the span of the relabelings g0*s of every consequence generator g0, for
    s in group = symmetric_group(n), in group order.

    Each relabeling is a permutation of coordinates.  Coordinate i is the
    monomial (shape i // n!, group[i % n!]), and s sends (shape, p) to
    (shape, compose(p, s)); so g0 is mapped to coordinates once, and each
    permutation p it holds gets one table row, the rank of compose(p, s)
    for every s, kept for this call.

    Built afresh on every call: the caller owns the result."""
    if n < 2:
        raise InputError("consequence arity must be >= 2")
    if n > CONSEQUENCE_ARITY_BOUND:
        raise ResourceError(
            f"consequence arity {n} exceeds the documented bound {CONSEQUENCE_ARITY_BOUND} "
            f"(space dimension grows as Catalan(n-1) * n!)")
    space = RowSpace()
    group = perms.symmetric_group(n)
    order = len(group)
    rank = {p: r for r, p in enumerate(group)}
    ranks: dict[int, list[int]] = {}  # r -> [rank of compose(group[r], s) for s in group]
    for g0 in consequence_generators(sigma, n):
        terms = []
        for i, c in to_vec(g0).items():
            shape, r = divmod(i, order)
            row = ranks.get(r)
            if row is None:
                pick = itemgetter(*[k - 1 for k in group[r]])  # compose(p, s) == pick(s)
                row = ranks[r] = [rank[pick(s)] for s in group]
            terms.append((shape * order, row, c))
        for k in range(order):
            space.add({start + row[k]: c for start, row, c in terms})
    return space
