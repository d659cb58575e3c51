"""Finite-dimensional (di)algebras given by structure constants over Q.

Structure tables: ``table[i][j]`` is the dense coordinate tuple of the
product of basis elements i and j (0-based indices; an entry is an int
when integral, a Fraction otherwise).  Each table is kept beside a copy
of its cells as zero-free ``{k: t}`` dicts, which the products walk.
Elements are sparse vectors (``linalg.Vec``).  Identity checks enumerate
basis tuples, which suffices by multilinearity; the d^n cost is guarded.

Leibniz conventions: brackets are LEFT Leibniz, x(yz) = (xy)z + y(xz).
The induced dialgebra is a |- b = [ab], a -| b = -[ba]; the mirror (right
Leibniz) theory is obtained by transposing the bracket table, which swaps
the roles of |- and -| up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, guard_tuples
from .linalg import Vec, decimal_str, rational, vec_axpy
from .translate import derive_variety, zero_dialgebra_axioms
from .words import LEAF, MultilinearPoly, TermPoly, eval_on_tuples, node


def _as_cell(v, dim: int) -> tuple:
    t = tuple(rational(x) for x in v)
    if len(t) != dim:
        raise InputError(f"vector of length {len(t)}, expected {dim}")
    return t


def _labels(labels: Sequence[str] | None, dim: int) -> tuple:
    if labels is None:
        return tuple(f"b{i + 1}" for i in range(dim))
    if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
        raise InputError("labels must be a list of strings")
    if len(labels) != dim:
        raise InputError(f"{len(labels)} labels for dimension {dim}")
    return tuple(labels)


def _table(raw, dim: int):
    for row in raw:
        if len(row) != dim:
            raise InputError(f"structure table row of length {len(row)}, expected {dim}")
    return tuple(tuple(_as_cell(cell, dim) for cell in row) for row in raw)


def _sparse(table) -> tuple:
    """The cells of a dense table as zero-free {k: t} dicts."""
    return tuple(tuple({k: t for k, t in enumerate(cell) if t} for cell in row)
                 for row in table)


def _bilinear(cells, x: Vec, y: Vec) -> Vec:
    out: Vec = {}
    for i, xi in x.items():
        row = cells[i]
        for j, yj in y.items():
            vec_axpy(out, xi * yj, row[j])
    return out


@dataclass(frozen=True)
class Witness:
    """First failing basis tuple of an identity check, with the defect value."""

    identity: TermPoly
    tuple_indices: tuple[int, ...]
    defect: Vec

    def describe(self, labels: Sequence[str]) -> str:
        names = [labels[i] for i in self.tuple_indices]
        dense = tuple(decimal_str(self.defect.get(k, 0)) for k in range(len(labels)))
        return f"identity {self.identity} fails at ({', '.join(names)}); defect {dense}"


class FDAlgebra:
    """One bilinear product on Q^d."""

    def __init__(self, table, labels: Sequence[str] | None = None):
        self.dim = len(table)
        self.table = _table(table, self.dim)
        self.cells = _sparse(self.table)
        self.labels = _labels(labels, self.dim)

    def basis(self, i: int) -> Vec:
        return {i: 1}

    def product(self, x: Vec, y: Vec) -> Vec:
        return _bilinear(self.cells, x, y)

    @property
    def products(self) -> tuple:
        """The products by node label (words.eval_shape_tree): (product,)."""
        return (self.product,)


class FDDialgebra:
    """Two bilinear products -| (left table) and |- (right table) on Q^d."""

    def __init__(self, left, right, labels: Sequence[str] | None = None):
        self.dim = len(left)
        if len(right) != self.dim:
            raise InputError("left/right tables disagree on dimension")
        self.left = _table(left, self.dim)
        self.right = _table(right, self.dim)
        self.left_cells = _sparse(self.left)
        self.right_cells = _sparse(self.right)
        self.labels = _labels(labels, self.dim)

    def basis(self, i: int) -> Vec:
        return {i: 1}

    def lprod(self, x: Vec, y: Vec) -> Vec:
        """x -| y"""
        return _bilinear(self.left_cells, x, y)

    def rprod(self, x: Vec, y: Vec) -> Vec:
        """x |- y"""
        return _bilinear(self.right_cells, x, y)

    @property
    def products(self) -> tuple:
        """The products by node label (words.eval_shape_tree): (-|, |-)."""
        return (self.lprod, self.rprod)

    def defect(self, x: Vec, y: Vec) -> Vec:
        """<x,y> = x|-y - x-|y, the obstruction to the two products agreeing."""
        out = self.rprod(x, y)
        vec_axpy(out, -1, self.lprod(x, y))
        return out


def eval_identity(alg: FDAlgebra | FDDialgebra, p: TermPoly) -> Witness | None:
    """None if p vanishes on all basis tuples of alg, else the first lex witness.

    The values come from words.eval_on_tuples, which joins the nonzero
    values of p's subwords under the bilinear products of alg and yields
    every tuple in lex order, so the witness names the first failing tuple
    although no product with a zero factor is made."""
    n = p.arity
    guard_tuples(alg.dim ** n, f"{alg.dim}^{n} basis tuples")
    basis = [alg.basis(i) for i in range(alg.dim)]
    for idx, val in eval_on_tuples(p, basis, alg.products, {}):
        if val:
            return Witness(p, idx, val)
    return None


def first_witness(alg: FDAlgebra | FDDialgebra, identities) -> Witness | None:
    """The witness of the first of identities that fails on alg, or None."""
    for p in identities:
        w = eval_identity(alg, p)
        if w is not None:
            return w
    return None


def is_zero_dialgebra(d: FDDialgebra) -> Witness | None:
    return first_witness(d, zero_dialgebra_axioms())


def is_var_dialgebra(d: FDDialgebra, sigma) -> Witness | None:
    """Zero-dialgebra axioms plus every derived identity of the variety."""
    w = is_zero_dialgebra(d)
    return w if w is not None else first_witness(d, derive_variety(sigma).derived)


def _left_leibniz_poly() -> MultilinearPoly:
    lc = node(node(LEAF, LEAF), LEAF)
    rc = node(LEAF, node(LEAF, LEAF))
    return (MultilinearPoly.monomial(rc, (1, 2, 3))
            - MultilinearPoly.monomial(lc, (1, 2, 3))
            - MultilinearPoly.monomial(rc, (2, 1, 3)))


def leibniz_to_dialgebra(bracket: FDAlgebra) -> FDDialgebra:
    """Dialgebra of a left Leibniz bracket: a|-b = [ab], a-|b = -[ba]."""
    w = eval_identity(bracket, _left_leibniz_poly())
    if w is not None:
        raise InputError(f"not a left Leibniz algebra: {w.describe(bracket.labels)}")
    d = bracket.dim
    right = [[bracket.table[i][j] for j in range(d)] for i in range(d)]
    left = [[tuple(-c for c in bracket.table[j][i]) for j in range(d)] for i in range(d)]
    return FDDialgebra(left, right, bracket.labels)


# ---------------------------------------------------------------------------
# deterministic corpus
# ---------------------------------------------------------------------------

def diagonal_lift(alg: FDAlgebra) -> FDDialgebra:
    """Both products equal to the given one; always a zero-dialgebra."""
    return FDDialgebra(alg.table, alg.table, alg.labels)


def _z(d):
    return [[(0,) * d for _ in range(d)] for _ in range(d)]


def leibniz2() -> FDAlgebra:
    """[e1,e1] = e2, all other brackets zero (the smallest non-Lie Leibniz)."""
    t = _z(2)
    t[0][0] = (0, 1)
    return FDAlgebra(t, ("e1", "e2"))


def leibniz3() -> FDAlgebra:
    """Null-filiform: [a,a] = b, [a,b] = c."""
    t = _z(3)
    t[0][0] = (0, 1, 0)
    t[0][1] = (0, 0, 1)
    return FDAlgebra(t, ("a", "b", "c"))


def sl2() -> FDAlgebra:
    """[e,f]=h, [h,e]=2e, [h,f]=-2f."""
    t = _z(3)
    t[0][1] = (0, 0, 1)       # [e,f]=h
    t[1][0] = (0, 0, -1)
    t[2][0] = (2, 0, 0)       # [h,e]=2e
    t[0][2] = (-2, 0, 0)
    t[2][1] = (0, -2, 0)      # [h,f]=-2f
    t[1][2] = (0, 2, 0)
    return FDAlgebra(t, ("e", "f", "h"))


def upper_triangular2() -> FDAlgebra:
    """2x2 upper triangular matrices, basis (E11, E12, E22); associative."""
    t = _z(3)
    t[0][0] = (1, 0, 0)
    t[0][1] = (0, 1, 0)
    t[1][2] = (0, 1, 0)
    t[2][2] = (0, 0, 1)
    return FDAlgebra(t, ("E11", "E12", "E22"))


def dual_numbers() -> FDAlgebra:
    """Q[x]/(x^2), basis (1, x)."""
    t = _z(2)
    t[0][0] = (1, 0)
    t[0][1] = (0, 1)
    t[1][0] = (0, 1)
    return FDAlgebra(t, ("1", "x"))


def abelian(d: int) -> FDDialgebra:
    return FDDialgebra(_z(d), _z(d))


def bar_unit(weights: Sequence) -> FDDialgebra:
    """a|-b = eps(a) b, a-|b = a eps(b) for the functional eps; a 0-dialgebra
    for any weights with distinct left and right products."""
    w = [rational(x) for x in weights]
    d = len(w)
    right = [[tuple(w[i] if k == j else 0 for k in range(d)) for j in range(d)] for i in range(d)]
    left = [[tuple(w[j] if k == i else 0 for k in range(d)) for j in range(d)] for i in range(d)]
    return FDDialgebra(left, right)


def corpus() -> list[tuple[str, FDDialgebra]]:
    """Named zero-dialgebras of dimension <= 3 used across the test suite."""
    return [
        ("leibniz2", leibniz_to_dialgebra(leibniz2())),
        ("leibniz3", leibniz_to_dialgebra(leibniz3())),
        ("sl2", leibniz_to_dialgebra(sl2())),
        ("uppertri2-diag", diagonal_lift(upper_triangular2())),
        ("dual-numbers-diag", diagonal_lift(dual_numbers())),
        ("abelian2", abelian(2)),
        ("bar-unit", bar_unit((1, 2))),
    ]
