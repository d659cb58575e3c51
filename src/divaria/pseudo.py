"""Pseudo-algebras over the one-variable polynomial Hopf algebra H = k[T].

Values of an n-ary operation live in H^{(x)n} (x)_H C.  We keep them
*normalized*: a polynomial in formal variables T_1..T_{n-1} with
coefficients in C (slot n eliminated through the standard isomorphism,
which for a slot-n power T^k expands through the iterated coproduct and
the antipode signs).  Normalized values are canonical, so equality is a
dictionary comparison.

A pseudo-algebra implements the element protocol of PseudoAlgebra:
EnvelopePA (envelope module) and CurrentPA (current module) do.  The
protocol reads the coefficient products |- and -| off the base product; an
algebra with a closed form for them overrides both.  This module holds
what works for any of them: spreads, the expanded pseudo-product, the slot
twist act_spread, the recursive word evaluator eval_term, which keeps
every subword of the shape it is on under the leaf keys of shared
generators (leaf_key), and its entry for a polynomial on every argument
tuple (eval_term_on_tuples), the evaluator of dialgebra polynomials in the
coefficient dialgebra, the identity check on generators, and the map
layer: the linear extension of basis images (lin_comb) and the one check
that such a map carries both dialgebra products to the coefficient
products (hom_failure).  The normalization tables (_slot_table,
_product_table) and the twist plans (_twist_plan) depend on their keys
alone, so each is an lru_cache kept for the process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add
from typing import Iterator, Sequence

from . import perms
from .errors import InputError, ResourceError, guard_tuples
from .hopf import antipode_sign, coproduct_splits
from .linalg import add_term
from .operads import IdentitySet
from .words import MultilinearPoly, Shape, eval_shape_tree, nonzero_words

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

    def leaf_key(self, x):
        """The key under which eval_term may keep values on the shared
        generator x, or None: only equal elements have equal keys."""
        return None

    def describe(self, a) -> str:
        return repr(a)

    def t_pow(self, a, k: int):
        for _ in range(k):
            a = self.t_act(a)
        return a

    def eq(self, a, b) -> bool:
        return self.is_zero(self.add(a, self.scale(b, -1)))

    def rprod(self, x, y):
        """x |- y: the sum of T^q c over the terms T^0 (x) T^q (x)_H c of
        the base product x*y."""
        out = self.zero()
        for p, q, c in self.base_product(x, y):
            if p == 0:
                out = self.add(out, self.t_pow(c, q))
        return out

    def lprod(self, x, y):
        """x -| y: the sum of T^p c over the terms T^p (x) T^0 (x)_H c of
        the base product x*y."""
        out = self.zero()
        for p, q, c in self.base_product(x, y):
            if q == 0:
                out = self.add(out, self.t_pow(c, p))
        return out


# ---------------------------------------------------------------------------
# normalized spread elements
# ---------------------------------------------------------------------------

class Spread:
    """Polynomial in T_1..T_{n-1} with coefficients in the algebra."""

    __slots__ = ("alg", "n", "terms")

    def __init__(self, alg: PseudoAlgebra, n: int, terms: dict):
        """The spread with the nonzero terms of terms."""
        self.alg = alg
        self.n = n
        self.terms = {k: v for k, v in terms.items() if not alg.is_zero(v)}

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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """True when nonzero: words.nonzero_words tests its values by truth."""
        return bool(self.terms)

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


def _spread_into(alg, acc: dict, elem, entries) -> None:
    """acc += the sum over the (exponents, T-power, coefficient) entries of
    c T^exponents (x)_H T^power elem.

    The entries rise in T-power, so each power of elem is computed once;
    once T kills elem, no later entry adds anything."""
    power, shifted = 0, elem
    for exps, need, c in entries:
        while power < need:
            shifted = alg.t_act(shifted)
            power += 1
            if alg.is_zero(shifted):
                return
        accumulate(alg, acc, exps, shifted, c)


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
                _spread_into(alg, acc, c, [(tuple(map(add, base, off)), power, coeff)
                                           for off, power, coeff in _product_table(p, q, k, m)])
    return Spread.of_terms(alg, k + m, acc)


@lru_cache(maxsize=None)
def _twist_plan(exps: tuple, sigma, n: int) -> tuple:
    """The twist of T^exps over n slots by sigma: T_i -> T_{i*sigma}, then
    slot n removed, as (target exponents, T-power, coefficient) triples by
    rising T-power; the degree is checked before the slot table is read."""
    _check_degree(max(exps, default=0))
    full = exps + (0,)
    moved = [0] * n
    for i in range(n):
        moved[sigma[i] - 1] = full[i]
    base = moved[:-1]
    return tuple((tuple(map(add, base, off)), power, coeff)
                 for off, power, coeff in _slot_table(moved[-1], n))


def act_spread(alg, f: Spread, sigma) -> Spread:
    """Slot relabeling T_i -> T_{i*sigma} followed by renormalization: each
    term is spread through its plan (_twist_plan)."""
    n = f.n
    acc: dict = {}
    for exps, elem in f.terms.items():
        _spread_into(alg, acc, elem, _twist_plan(exps, sigma, n))
    return Spread.of_terms(alg, n, acc)


def eval_term(alg, t, args: Sequence) -> Spread:
    """Recursive pseudo-product evaluation of t, a word; a polynomial goes
    through the tuple entry, eval_term_on_tuples.

    The word (shape, sigma) evaluates the plain shape on the permuted
    arguments and then twists the slots by sigma.  On shared generators
    (alg.leaf_key) its subwords are kept in alg's table for its shape;
    other arguments get a table for this call, keyed by position.
    """
    shape, sigma = t
    n = shape.arity
    if n != len(args):
        raise InputError("arity mismatch")
    permuted = [args[s - 1] for s in sigma]
    keys = tuple(map(alg.leaf_key, permuted))
    if None in keys:
        values, keys = {}, tuple(sigma)
    else:
        values = _shape_table(alg, shape)
    plain = _eval_plain(alg, shape, permuted, keys, values)
    return plain if sigma == perms.identity(n) else act_spread(alg, plain, sigma)


def _shape_table(alg, shape: Shape) -> dict:
    """The values of alg's table for shape.  It holds one shape, and a word
    of another shape replaces it.  The values are terms, not spreads, which
    would make a reference cycle through alg."""
    table = getattr(alg, "_plain", None)
    if table is None or table[0] is not shape:
        table = alg._plain = (shape, {})
    return table[1]


def _eval_plain(alg, shape: Shape, args, keys: tuple, values: dict) -> Spread:
    """The plain value of shape on args, whose leaf keys are keys; it and
    the value of each subword are kept in values under (shape, keys)."""
    terms = values.get((shape, keys))
    if terms is not None:
        return Spread.of_terms(alg, shape.arity, terms)
    if shape.is_leaf:
        value = leaf_spread(alg, args[0])
    else:
        m = shape.left.arity
        value = pseudo_product(alg,
                               _eval_plain(alg, shape.left, args[:m], keys[:m], values),
                               _eval_plain(alg, shape.right, args[m:], keys[m:], values))
    values[shape, keys] = value.terms
    return value


def eval_term_on_tuples(alg, p: MultilinearPoly, args: Sequence) -> Iterator[tuple]:
    """Yield (index tuple, eval_term(alg, p, tuple)) for every tuple of the
    elements args, in lex order, with a zero spread at the tuples where p
    vanishes.  p has arity >= 2, as every identity has.

    The pseudo-product is bilinear, so the plain values of p's words come
    from the join of words.nonzero_words on the nonzero spreads alone: each
    proper subword shape keeps a table of its nonzero plain values, for this
    call only.  Each word's value is twisted by each monomial of its shape
    and added into the accumulator of the tuple it belongs to, which is
    dropped when it cancels; kept spreads are never changed.
    """
    n, g = p.arity, len(args)
    guard_tuples(g ** n, f"{g}^{n} generator tuples")
    leaves = [leaf_spread(alg, x) for x in args]
    products = (partial(pseudo_product, alg),)
    ident = perms.identity(n)
    acc: dict = {}
    for monos, at, value in nonzero_words(p, leaves, products, {}):
        for coeff, sigma, place in monos:
            twisted = value if sigma == ident else act_spread(alg, value, sigma)
            idx = place(at)
            cur = acc.setdefault(idx, {})
            for exps, elem in twisted.terms.items():
                accumulate(alg, cur, exps, elem, coeff)
            if not cur:
                del acc[idx]
    for idx in itertools.product(range(g), repeat=n):
        yield idx, Spread.of_terms(alg, n, acc.pop(idx, None) or {})


def product(alg, x, y) -> Spread:
    """The 2-slot spread x*y."""
    return pseudo_product(alg, leaf_spread(alg, x), leaf_spread(alg, y))


def lin_comb(alg, images, vec: dict):
    """The linear extension of images to vec: the sum of c * images[k]
    over the terms k: c of vec."""
    out = alg.zero()
    for k, c in vec.items():
        out = alg.add(out, alg.scale(images[k], c))
    return out


@dataclass
class CoefficientDialgebra:
    """The coefficient dialgebra of a pseudo-algebra: a view whose products
    are the algebra's lprod and rprod."""

    alg: PseudoAlgebra

    @property
    def products(self) -> tuple:
        """The products by node label (words.eval_shape_tree): (-|, |-)."""
        return (self.alg.lprod, self.alg.rprod)

    def eval_dipoly(self, p, args):
        acc = self.alg.zero()
        for (shape, perm), coeff in p.terms.items():
            leaves = [args[perm[k] - 1] for k in range(shape.arity)]
            val = eval_shape_tree(shape, leaves, self.products)
            acc = self.alg.add(acc, self.alg.scale(val, coeff))
        return acc


def hom_failure(a, images: Sequence, alg: PseudoAlgebra) -> tuple | None:
    """The first (symbol, i, j) at which e_i -> images[i] fails to carry the
    dialgebra product symbol of a to the coefficient product of alg, or None.

    Pairs run in lex order, |- before -| at each; the images of products
    are their linear extensions."""
    products = (("|-", a.rprod, alg.rprod), ("-|", a.lprod, alg.lprod))
    for i, j in itertools.product(range(a.dim), repeat=2):
        bi, bj = a.basis(i), a.basis(j)
        for symbol, prod, image_prod in products:
            if not alg.eq(image_prod(images[i], images[j]), lin_comb(alg, images, prod(bi, bj))):
                return symbol, i, j
    return None


def check_var_pseudo(alg: PseudoAlgebra, sigma: IdentitySet):
    """Evaluate every defining identity on all generator tuples.

    Returns None on success or the (identity, generator names, spread)
    witness at the first failing tuple in lex order.  Generator tuples
    suffice by multilinearity of the expanded pseudo-product over H.
    """
    gens = alg.generators()
    elements = [el for _, el in gens]
    for t in sigma:
        for idx, spread in eval_term_on_tuples(alg, t, elements):
            if not spread.is_zero():
                return (t, tuple(gens[i][0] for i in idx), spread)
    return None
