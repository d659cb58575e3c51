"""Pseudo-algebras over the one-variable polynomial Hopf algebra H = k[T].

Values of an n-ary operation live in H^{(x)n} (x)_H C.  We keep them
*normalized*: a polynomial in formal variables T_1..T_{n-1} with
coefficients in C (slot n eliminated through the standard isomorphism,
which for a slot-n power T^k expands through the iterated coproduct and
the antipode signs).  Normalized values are canonical, so equality is a
dictionary comparison.

A pseudo-algebra implements the element protocol of PseudoAlgebra:
EnvelopePA (envelope module) and CurrentPA (current module) do.  This
module holds what works for any of them: spreads, the expanded
pseudo-product, the recursive word evaluator eval_term, the coefficient
dialgebra, the identity check on generators, and the map layer: the
linear extension of basis images (lin_comb) and the one check that such a
map carries both dialgebra products to the coefficient products
(hom_failure).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Sequence

from . import perms
from .errors import InputError, ResourceError, guard_tuples
from .hopf import antipode_sign, coproduct_splits
from .linalg import add_term
from .operads import IdentitySet
from .words import MultilinearPoly, Shape, eval_shape_tree

DEGREE_BOUND = 16  # largest T-power a normalized term may carry


# ---------------------------------------------------------------------------
# element protocol
# ---------------------------------------------------------------------------

class PseudoAlgebra:
    """Base pseudo-product data: a module with a T-action and a binary
    pseudo-product returned as [(p, q, element)] terms meaning
    T^p (x) T^q (x)_H element."""

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def scale(self, a, coeff):
        raise NotImplementedError

    def t_act(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def base_product(self, x, y) -> list:
        raise NotImplementedError

    def generators(self) -> list:
        """[(name, element)] spanning the algebra over k[T] (plus torsion part)."""
        raise NotImplementedError

    def basis_index(self, x) -> int | None:
        """i if eval_term may keep plain values on x as basis element i."""
        return None

    def describe(self, a) -> str:
        return repr(a)

    def t_pow(self, a, k: int):
        for _ in range(k):
            a = self.t_act(a)
        return a

    def eq(self, a, b) -> bool:
        return self.is_zero(self.add(a, self.scale(b, -1)))


# ---------------------------------------------------------------------------
# normalized spread elements
# ---------------------------------------------------------------------------

class Spread:
    """Polynomial in T_1..T_{n-1} with coefficients in the algebra."""

    __slots__ = ("alg", "n", "terms")

    def __init__(self, alg: PseudoAlgebra, n: int, terms: dict | None = None):
        self.alg = alg
        self.n = n
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not alg.is_zero(v):
                    self.terms[k] = v

    @classmethod
    def of_terms(cls, alg: PseudoAlgebra, n: int, terms: dict) -> "Spread":
        """The spread with these terms, taken as they are: no term is zero."""
        out = object.__new__(cls)
        out.alg = alg
        out.n = n
        out.terms = terms
        return out

    def constant(self):
        return self.terms.get((0,) * (self.n - 1), self.alg.zero())

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.alg.zero())

    def add(self, other: "Spread") -> "Spread":
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(self.alg, out, k, v)
        return Spread.of_terms(self.alg, self.n, out)

    def scale(self, coeff) -> "Spread":
        if not coeff:
            return Spread(self.alg, self.n)
        return Spread(self.alg, self.n, {k: self.alg.scale(v, coeff) for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def eq(self, other: "Spread") -> bool:
        """No term is zero, so equal spreads have the same exponents."""
        if self.terms.keys() != other.terms.keys():
            return False
        eq, theirs = self.alg.eq, other.terms
        return all(eq(v, theirs[k]) for k, v in self.terms.items())

    def describe(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            mon = "*".join(f"T{i + 1}^{e}" if e > 1 else f"T{i + 1}"
                           for i, e in enumerate(exps) if e) or "1"
            bits.append(f"{mon}.({self.alg.describe(self.terms[exps])})")
        return " + ".join(bits)


def accumulate(alg, acc: dict, key: tuple, elem, coeff=1):
    if coeff != 1:
        elem = alg.scale(elem, coeff)
    if alg.is_zero(elem):
        return
    cur = acc.get(key)
    s = elem if cur is None else alg.add(cur, elem)
    if alg.is_zero(s):
        acc.pop(key, None)
    else:
        acc[key] = s


def _check_degree(top: int) -> None:
    """Refuse a term whose T-degree in some slot exceeds DEGREE_BOUND; read
    at call time, before any table lookup, so every table key stays bounded."""
    if top > DEGREE_BOUND:
        raise ResourceError(f"T-degree {top} exceeds cap {DEGREE_BOUND}")


def _by_power(entries) -> tuple:
    return tuple(sorted(entries, key=lambda entry: entry[1]))


@lru_cache(maxsize=None)
def _slot_table(kn: int, n: int) -> tuple:
    """Removal of T^kn from slot n of n slots: (offsets of slots 1..n-1,
    T-power, coefficient) triples by rising T-power.  Through the iterated
    coproduct and the antipode, T_n^kn (x)_H c is the sum over the splits j of
    T^kn into n parts of (-1)^(kn - j_n) multinomial(kn; j)
    T_1^j_1 ... T_{n-1}^j_{n-1} (x)_H T^j_n c."""
    return _by_power((split[:-1], split[-1], antipode_sign(kn - split[-1]) * multi)
                     for split, multi in coproduct_splits(kn, n))


@lru_cache(maxsize=None)
def _product_table(p: int, q: int, k: int, m: int) -> tuple:
    """T^p (x) T^q (x)_H c spread over k + m slots, the two factors through
    their coproducts onto slots 1..k and k+1..k+m, with slot k + m removed:
    (offsets of slots 1..k+m-1, T-power, coefficient) triples with like
    terms combined, by rising T-power."""
    merged: dict = {}
    for ps, m1 in coproduct_splits(p, k):
        for qs, m2 in coproduct_splits(q, m):
            head = ps + qs[:-1]
            for off, power, coeff in _slot_table(qs[-1], k + m):
                add_term(merged, (tuple(map(add, head, off)), power), m1 * m2 * coeff)
    return _by_power((off, power, coeff) for (off, power), coeff in merged.items())


def _spread_into(alg, acc: dict, base: tuple, elem, table: tuple):
    """acc += the sum over the table of c T^(base + offsets) (x)_H T^power elem.

    The table rises in T-power, so each power of elem is computed once; once
    T kills elem, no later entry adds anything."""
    power, shifted = 0, elem
    for off, need, c in table:
        while power < need:
            shifted = alg.t_act(shifted)
            power += 1
            if alg.is_zero(shifted):
                return
        accumulate(alg, acc, tuple(map(add, base, off)), shifted, c)


def leaf_spread(alg, x) -> Spread:
    return Spread(alg, 1, {(): x})


def pseudo_product(alg, f: Spread, g: Spread) -> Spread:
    """Expansion of the base pseudo-product over two normalized factors."""
    k, m = f.n, g.n
    acc: dict = {}
    for mu, fe in f.terms.items():
        mu_top = max(mu, default=0)
        for nu, ge in g.terms.items():
            nu_top = max(nu, default=0)
            base = mu + (0,) + nu
            for p, q, c in alg.base_product(fe, ge):
                if alg.is_zero(c):
                    continue
                _check_degree(max(mu_top + p, nu_top + q))
                _spread_into(alg, acc, base, c, _product_table(p, q, k, m))
    return Spread.of_terms(alg, k + m, acc)


def act_spread(alg, f: Spread, sigma) -> Spread:
    """Slot relabeling T_i -> T_{i*sigma} followed by renormalization."""
    n = f.n
    if sigma == perms.identity(n):
        return f
    acc: dict = {}
    for exps, elem in f.terms.items():
        _check_degree(max(exps))
        full = exps + (0,)
        moved = [0] * n
        for i in range(n):
            moved[sigma[i] - 1] = full[i]
        _spread_into(alg, acc, tuple(moved[:-1]), elem, _slot_table(moved[-1], n))
    return Spread.of_terms(alg, n, acc)


def eval_term(alg, t, args: Sequence) -> Spread:
    """Recursive pseudo-product evaluation of a word or polynomial.

    A monomial (shape, sigma) evaluates the plain shape on the permuted
    arguments and then twists the slots by sigma.  A word keeps its plain
    values on basis elements in alg's table for its shape; the monomials of
    a polynomial do not, as they change shape and would only replace it.
    """
    if isinstance(t, MultilinearPoly):
        if t.arity != len(args):
            raise InputError("arity mismatch")
        acc = Spread(alg, t.arity)
        for (shape, sigma), coeff in t.terms.items():
            plain = _eval_plain(alg, shape, [args[s - 1] for s in sigma])
            acc = acc.add(act_spread(alg, plain, sigma).scale(coeff))
        return acc
    shape, sigma = t
    if shape.arity != len(args):
        raise InputError("arity mismatch")
    permuted = [args[s - 1] for s in sigma]
    key = tuple(map(alg.basis_index, permuted))
    if None in key:
        plain = _eval_plain(alg, shape, permuted)
    else:  # the table keeps terms: a spread in it would be a reference cycle through alg
        plain = Spread.of_terms(alg, shape.arity, kept(
            alg, "_plain", shape, key, lambda: _eval_plain(alg, shape, permuted).terms))
    return act_spread(alg, plain, sigma)


def kept(owner, attr: str, shape: Shape, key, compute):
    """The value at key of the table owner.attr, computed on first use.

    The table holds the values of one shape, at most d^n of them on
    basis-index keys, and a new shape replaces it.  Each evaluator names
    its own table, so no value passes from one to the other."""
    table = getattr(owner, attr, None)
    if table is None or table[0] != shape.key:
        table = (shape.key, {})
        setattr(owner, attr, table)
    value = table[1].get(key)
    if value is None:
        value = table[1][key] = compute()
    return value


def _eval_plain(alg, shape: Shape, args) -> Spread:
    if shape.is_leaf:
        return leaf_spread(alg, args[0])
    m = shape.left.arity
    return pseudo_product(alg,
                          _eval_plain(alg, shape.left, args[:m]),
                          _eval_plain(alg, shape.right, args[m:]))


def product(alg, x, y) -> Spread:
    """The 2-slot spread x*y."""
    return pseudo_product(alg, leaf_spread(alg, x), leaf_spread(alg, y))


def n_product(alg, x, y, n: int):
    """x o_n y: the T_1^n coefficient of the normalized product x*y."""
    return product(alg, x, y).coefficient((n,))


def lin_comb(alg, images, vec: dict):
    """The linear extension of images to vec: the sum of c * images[k]
    over the terms k: c of vec."""
    out = alg.zero()
    for k, c in vec.items():
        out = alg.add(out, alg.scale(images[k], c))
    return out


@dataclass
class CoefficientDialgebra:
    """The two coefficient operations of a pseudo-algebra."""

    alg: PseudoAlgebra

    def rprod(self, x, y):
        out = self.alg.zero()
        for p, q, c in self.alg.base_product(x, y):
            if p == 0:
                out = self.alg.add(out, self.alg.t_pow(c, q))
        return out

    def lprod(self, x, y):
        out = self.alg.zero()
        for p, q, c in self.alg.base_product(x, y):
            if q == 0:
                out = self.alg.add(out, self.alg.t_pow(c, p))
        return out

    def eval_dipoly(self, p, args):
        acc = self.alg.zero()
        for (shape, perm), coeff in p.terms.items():
            leaves = [args[perm[k] - 1] for k in range(shape.arity)]
            val = eval_shape_tree(shape, leaves, None, (self.lprod, self.rprod))
            acc = self.alg.add(acc, self.alg.scale(val, coeff))
        return acc


def hom_failure(a, images: Sequence, alg: PseudoAlgebra) -> tuple | None:
    """The first (symbol, i, j) at which e_i -> images[i] fails to carry the
    dialgebra product symbol of a to the coefficient product of alg, or None.

    Pairs run in lex order, |- before -| at each; the images of products
    are their linear extensions."""
    cd = CoefficientDialgebra(alg)
    products = (("|-", a.rprod, cd.rprod), ("-|", a.lprod, cd.lprod))
    for i, j in itertools.product(range(a.dim), repeat=2):
        bi, bj = a.basis(i), a.basis(j)
        for symbol, prod, image_prod in products:
            if not alg.eq(image_prod(images[i], images[j]), lin_comb(alg, images, prod(bi, bj))):
                return symbol, i, j
    return None


def check_var_pseudo(alg: PseudoAlgebra, sigma: IdentitySet):
    """Evaluate every defining identity on all generator tuples.

    Returns None on success or a (identity, generator names, spread)
    witness.  Generator tuples suffice by multilinearity of the expanded
    pseudo-product over H.
    """
    gens = alg.generators()
    for t in sigma:
        n = t.arity
        guard_tuples(len(gens) ** n, f"{len(gens)}^{n} generator tuples")
        for combo in itertools.product(gens, repeat=n):
            names = tuple(name for name, _ in combo)
            spread = eval_term(alg, t, [el for _, el in combo])
            if not spread.is_zero():
                return (t, names, spread)
    return None
