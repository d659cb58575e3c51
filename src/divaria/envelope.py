"""The enveloping pseudo-algebra of a zero-dialgebra A, its variety quotients
and homomorphisms out of it.

EnvelopePA is built on (k[T] (x) A) (+) (A (x) A)/W.  W always contains
the span of defect(x)defect tensors; variety quotients enlarge it by an
ideal that the closed forms produce.  When a relation has a Fraction
entry, reduction turns the integral Fractions it makes back into int.  The
envelope hands out one shared element per generator, basis_a(i) and
pair(i, j), never mutated, whose leaf_key keys the recursive evaluator's
per-shape table; the closed forms key theirs by basis indices alone.  Each
table holds values only: what depends on the word alone, the twist plans
of the pseudo module and the inverses of the closed forms, is kept for the
process by an lru_cache on each side.

The closed-form evaluator assembles values of words on basis elements of A
directly from dialgebra evaluations of labeled words: on shared basis
elements it reads the plain word from its table under the permuted
indices and twists it.  Words are multilinear, so the values on other
A-arguments are combinations of those, and H-linear in each slot, so the
values on tensor-part arguments are read off them too (the lemma of
closed_form_eval).  It is the independent oracle against the recursive
pseudo-product evaluator of the pseudo module, and the two are compared
term by term in the test suite before the closed forms are trusted
anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Iterator, Sequence

from . import perms
from .errors import InputError, guard_tuples
from .fd import FDDialgebra, first_witness, is_zero_dialgebra
from .linalg import RowSpace, Vec, add_term, decimal_str, rational, vec_axpy
from .operads import IdentitySet
from .pseudo import (PseudoAlgebra, Spread, accumulate, eval_term, hom_failure, lin_comb,
                     product)
# re-exports: callers import check_var_pseudo from here, and perfbench/tracer.py reads the others
from .pseudo import CoefficientDialgebra, check_var_pseudo, pseudo_product  # noqa: F401
from .translate import derive_variety
from .words import MultilinearPoly, Shape, all_shapes


# ---------------------------------------------------------------------------
# the enveloping pseudo-algebra of a zero-dialgebra
# ---------------------------------------------------------------------------

class CElement:
    """c0: {(T-power, basis index): coeff}; c1: {(i, j): coeff} reduced."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: dict | None = None, c1: dict | None = None):
        self.c0 = c0 or {}
        self.c1 = c1 or {}

    def __repr__(self):
        return f"CElement(c0={self.c0}, c1={self.c1})"


class BasisElement(CElement):
    """The basis element i of A, in degree zero.  An envelope builds each one
    once and hands out that object, so it is shared and never mutated; its
    index classifies it in O(1)."""

    __slots__ = ("index",)

    def __init__(self, i: int):
        super().__init__({(0, i): 1}, {})
        self.index = i


class PairElement(CElement):
    """The tensor generator [e_i (x) e_j], reduced modulo the relations.  Like
    a basis element, it is built once per envelope, shared and never mutated;
    its key (i, j) classifies it in O(1)."""

    __slots__ = ("key",)

    def __init__(self, key: tuple, c1: dict):
        super().__init__({}, c1)
        self.key = key


def _outer(x: Vec, y: Vec) -> dict:
    """x (x) y in (A (x) A) coordinates."""
    return {(i, j): a * b for i, a in x.items() for j, b in y.items()}


def _settled_reduce(rel: RowSpace, c1: dict) -> dict:
    """c1 modulo rel, with its integral Fractions as int."""
    return {k: rational(c) for k, c in rel.reduce(c1).items()}


class EnvelopePA(PseudoAlgebra):
    """(k[T] (x) A) (+) (A (x) A)/W with the four base products.

    W must be closed under the requirement T(W) = 0 (checked), which is
    what makes the T-action and the products descend to the quotient.
    A must be a zero-dialgebra: build_envelope checks it, and a quotient
    is built on the A of an envelope that exists.
    """

    def __init__(self, a: FDDialgebra, extra_relations: Sequence[dict] = ()):
        self.A = a
        d = a.dim
        self.defects = [[a.defect(a.basis(i), a.basis(j)) for j in range(d)] for i in range(d)]
        # W contains D (x) D for the defect span D: the outer products of a basis of D span it
        span = RowSpace(v for row in self.defects for v in row if v).rows()
        rel = RowSpace(_outer(x, y) for x in span for y in span)
        for row in rel.rows():
            if self._t_of_pairs(row):
                raise InputError("defect tensors are not killed by T; input is inconsistent")
        for extra in extra_relations:
            if self._t_of_pairs(extra):
                raise InputError("quotient relation not killed by T")
            rel.add(extra)
        self.rel = rel
        # a Fraction in a relation makes integral Fractions out of int data,
        # which would leave int arithmetic, the fast path, for good
        fractional = any(type(c) is Fraction for row in rel.rows() for c in row.values())
        self._reduce = partial(_settled_reduce, rel) if fractional else rel.reduce
        pivots = set(rel.pivots())
        self.c1_basis = tuple(p for p in sorted(itertools.product(range(d), repeat=2))
                              if p not in pivots)
        self._basis = tuple(map(BasisElement, range(d)))
        self._pairs = {p: PairElement(p, self._reduce({p: 1}))
                       for p in itertools.product(range(d), repeat=2)}

    # -- constructors ------------------------------------------------------

    def from_a(self, vec: Vec) -> CElement:
        return CElement({(0, i): x for i, x in vec.items()}, {})

    def basis_a(self, i: int) -> BasisElement:
        return self._basis[i]

    def pair(self, i: int, j: int) -> PairElement:
        return self._pairs[i, j]

    def tensor_pair(self, x: Vec, y: Vec) -> dict:
        return self._reduce(_outer(x, y))

    # -- element protocol ----------------------------------------------------

    def zero(self):
        return CElement()

    def add(self, a: CElement, b: CElement) -> CElement:
        c0 = dict(a.c0)
        vec_axpy(c0, 1, b.c0)
        c1 = dict(a.c1)
        vec_axpy(c1, 1, b.c1)
        return CElement(c0, c1)

    def scale(self, a: CElement, coeff) -> CElement:
        if not coeff:
            return CElement()
        return CElement({k: coeff * v for k, v in a.c0.items()},
                        {k: coeff * v for k, v in a.c1.items()})

    def is_zero(self, a: CElement) -> bool:
        return not a.c0 and not a.c1

    def eq(self, a: CElement, b: CElement) -> bool:
        # elements are canonical: no stored zero, and c1 reduced modulo rel
        return a.c0 == b.c0 and a.c1 == b.c1

    def _t_of_pairs(self, c1: dict) -> Vec:
        out: Vec = {}
        for (i, j), coeff in c1.items():
            vec_axpy(out, coeff, self.defects[i][j])
        return out

    def t_act(self, a: CElement) -> CElement:
        c0 = {(k + 1, i): v for (k, i), v in a.c0.items()}
        for i, x in self._t_of_pairs(a.c1).items():
            add_term(c0, (0, i), x)
        return CElement(c0, {})

    def base_product(self, x: CElement, y: CElement) -> list:
        buckets: dict = {}
        for (k, i), cx in x.c0.items():
            xi_right = self.A.right_cells[i]
            for (l, j), cy in y.c0.items():
                c = cx * cy
                prod = {(0, s): c * t for s, t in xi_right[j].items()}
                if prod:
                    accumulate(self, buckets, (k, l), CElement(prod, {}))
                accumulate(self, buckets, (k + 1, l), CElement({}, self._reduce({(i, j): -c})))
            if y.c1:
                ty = self._t_of_pairs(y.c1)
                if ty:
                    accumulate(self, buckets, (k, 0), CElement({}, self.tensor_pair({i: cx}, ty)))
        if x.c1:
            tx = self._t_of_pairs(x.c1)
            if tx:
                for (l, j), cy in y.c0.items():
                    elem = CElement({}, self.tensor_pair(tx, {j: -cy}))
                    accumulate(self, buckets, (0, l), elem)
        return [(p, q, e) for (p, q), e in buckets.items()]

    def generators(self) -> list:
        gens = [(self.A.labels[i], self.basis_a(i)) for i in range(self.A.dim)]
        for (i, j) in self.c1_basis:
            gens.append((f"[{self.A.labels[i]}(x){self.A.labels[j]}]", self.pair(i, j)))
        return gens

    def describe(self, a: CElement) -> str:
        bits = []
        for (k, i) in sorted(a.c0):
            coeff = a.c0[(k, i)]
            t = f"T^{k} " if k > 1 else ("T " if k == 1 else "")
            bits.append(f"{decimal_str(coeff)} {t}{self.A.labels[i]}")
        for (i, j) in sorted(a.c1):
            bits.append(f"{decimal_str(a.c1[(i, j)])} [{self.A.labels[i]}(x){self.A.labels[j]}]")
        return " + ".join(bits) if bits else "0"

    # -- classification ------------------------------------------------------

    # A shared generator reads its stored classification; any other
    # element, equal to one or not, is scanned.

    def leaf_key(self, x: CElement):
        """i for the shared basis element i, (i, j) for the shared pair
        (i, j), None for any other element."""
        if type(x) is BasisElement:
            return x.index
        if type(x) is PairElement and self._pairs.get(x.key) is x:  # not another envelope's
            return x.key
        return None


def build_envelope(a: FDDialgebra) -> EnvelopePA:
    """The envelope of a, after checking that a is a zero-dialgebra."""
    w = is_zero_dialgebra(a)
    if w is not None:
        raise InputError(f"not a zero-dialgebra: {w.describe(a.labels)}")
    return EnvelopePA(a)


# ---------------------------------------------------------------------------
# closed forms (the independent oracle)
# ---------------------------------------------------------------------------

class _ZeroLabelings(list):
    """The labelings of a word whose every labeling is zero: n empty dicts
    (one dict, never changed), and false, so that a word with this word as
    a child is known to be zero without a product."""

    __slots__ = ()

    def __bool__(self):
        return False


_ZERO_FORM = ({}, {})  # the closed form of a zero word; kept values are never changed


def _word_values(env: EnvelopePA, shape: Shape, keys: tuple, values: dict) -> list:
    """Dialgebra values of the word on the basis elements keys of A, labeled
    toward each leaf position in turn (the section_dishape labelings), from
    one bottom-up fold; kept, with those of its subwords, in values under
    (shape, keys).

    -| and |- are bilinear, so a labeling with a zero factor is zero and
    its product is never made, and a word with a child whose every labeling
    is zero has every labeling zero.  A word with every labeling zero keeps
    a false _ZeroLabelings."""
    got = values.get((shape, keys))
    if got is None:
        if shape.is_leaf:
            got = [{keys[0]: 1}]
        else:
            m = shape.left.arity
            left = _word_values(env, shape.left, keys[:m], values)
            right = _word_values(env, shape.right, keys[m:], values)
            got = _ZeroLabelings([{}] * shape.arity)
            if left and right:
                r1, lm = right[0], left[-1]
                lprod, rprod = env.A.lprod, env.A.rprod
                labelings = ([lprod(x, r1) if x and r1 else {} for x in left]
                             + [rprod(lm, y) if lm and y else {} for y in right])
                if any(labelings):
                    got = labelings
        values[shape, keys] = got
    return got


def _closed_join(env: EnvelopePA, shape: Shape, keys: tuple, values: dict):
    """(y0, {i: pair dict z_i}) for the value y0 + sum_i T_i [z_i] of a plain
    word on the basis elements keys of A, from the _word_values of its two
    sides, which are kept in values.

    |- and tensor_pair are bilinear, so the join of a side that is zero (a
    false _word_values list) is the zero form, made without a product, and
    no product or tensor is made with a zero factor."""
    if shape.is_leaf:
        return {keys[0]: 1}, {}
    m = shape.left.arity
    left = _word_values(env, shape.left, keys[:m], values)
    right = _word_values(env, shape.right, keys[m:], values)
    if not (left and right):
        return _ZERO_FORM
    x0l, y0 = left[-1], right[-1]
    minus_y0 = {k: -v for k, v in y0.items()}
    zs: dict = {}
    if y0:
        for i, li in enumerate(left, start=1):
            if li:
                pair = env.tensor_pair(li, minus_y0)
                if pair:
                    zs[i] = pair
    if x0l:
        for j, rj in enumerate(right[:-1], start=m + 1):
            diff = dict(minus_y0)
            vec_axpy(diff, 1, rj)
            if diff:
                pair = env.tensor_pair(x0l, diff)
                if pair:
                    zs[j] = pair
    return (env.A.rprod(x0l, y0) if x0l and y0 else {}), zs


def _closed_twist(env: EnvelopePA, y0: Vec, zs: dict, sigma, inv) -> tuple[Vec, dict]:
    """The closed form (x0, {j: x_j}), for the value x0 + sum_j T_j [x_j], of
    the word with permutation sigma, whose inverse is inv, from the closed
    form (y0, zs) of its plain word."""
    n = len(sigma)
    if sigma[n - 1] == n:
        x0 = y0
        xs = {j: zs[inv[j - 1]] for j in range(1, n) if inv[j - 1] in zs}
    else:
        zq = zs.get(inv[n - 1], {})
        x0 = dict(y0)  # y0 may come from the table: never add into it
        vec_axpy(x0, 1, env._t_of_pairs(zq))
        xs = {}
        nsig = sigma[n - 1]
        for j in range(1, n):
            if j == nsig:
                val = {k: -v for k, v in zq.items()}
            else:
                val = dict(zs.get(inv[j - 1], {}))
                vec_axpy(val, -1, zq)
            if val:
                xs[j] = val
    return x0, xs


def _closed_table(env: EnvelopePA, shape: Shape) -> dict:
    """The values of env's table for shape, apart from eval_term's.  It
    holds one shape, and a word of another shape replaces it."""
    table = getattr(env, "_closed", None)
    if table is None or table[0] is not shape:
        table = env._closed = (shape, {})
    return table[1]


_inverse = lru_cache(maxsize=None)(perms.inverse)  # the closed side's own, kept for the process


def closed_form_eval(env: EnvelopePA, t, args: Sequence[CElement]) -> Spread:
    """Assemble the value of t, a word; a polynomial goes through the tuple
    entry, closed_form_on_tuples.  Only dialgebra evaluations are used, no
    pseudo-products.

    When every argument is a shared basis element, as on every basis tuple
    of a sweep, their indices, permuted by sigma, key env's table for the
    shape directly: the plain closed form is twisted and spread as it is.
    Otherwise each argument lies in A or in the tensor part; others are
    refused.  Each is read once: a shared basis element (env.leaf_key) by
    its index, any other argument by its content.  A tensor-part argument
    is one with a tensor part and no free part; a shared pair that reduces
    to 0 is the zero A-vector.

    Multilinearity: a word's value is linear in each argument, so it is the
    combination, over the basis expansions of the A-vector arguments (and of
    T.x, below), of the plain closed forms on basis indices, which env's
    table for the shape keeps with their subwords.

    Lemma: let x be a tensor-part element, and v the value of a word of
    arity n >= 2 with x in slot s.  Each slot of a pseudo-algebra word is
    H-linear, so
      for s < n:  v(..., T.x, ...) = T_s.v(..., x, ...),
      for s = n:  v(..., T.x) = -(T_1 + ... + T_{n-1}).v(..., x) + T.const(v).
    The left side is a value on A, of T-degree <= 1, and a nonzero linear
    form in the T_i raises the top degree by one.  So v is of degree zero
    and needs no twist: it is the T_p coefficient for p < n, and minus the
    T_1 coefficient for p = n, of the plain word with T.x = sum_k c_k e_k at
    x's plain position p.  Two such steps make v 0 when a second slot also
    holds a tensor-part argument.
    """
    shape, sigma = t
    n = shape.arity
    if n != len(args):
        raise InputError("arity mismatch")
    if all(type(x) is BasisElement for x in args):
        keys = tuple(args[g - 1].index for g in sigma)
        y0, zs = _closed_plain(env, shape, keys, _closed_table(env, shape))
        if not (y0 or zs):
            return Spread.of_terms(env, n, {})
        return _closed_spread(env, n, *_closed_twist(env, y0, zs, sigma, _inverse(sigma)))
    items, slots = [], []
    for pos, x in enumerate(args, start=1):
        item = env.leaf_key(x)
        if type(item) is not int:
            if x.c1 and not x.c0:  # by content, not by key: a shared pair may reduce to 0
                slots.append(pos)
                item = env._t_of_pairs(x.c1)
            elif x.c1 or any(k for k, _i in x.c0):
                raise InputError("closed forms support pure A or pure tensor arguments only")
            else:
                item = {i: v for (_k, i), v in x.c0.items()}
        items.append(item)
    if len(slots) > 1:
        return Spread.of_terms(env, n, {})
    if slots and n == 1:  # the argument itself
        return Spread.of_terms(env, 1, {(): CElement({}, args[0].c1)})
    values, inv = _closed_table(env, shape), _inverse(sigma)
    combos = _basis_combos([items[g - 1] for g in sigma])
    if not slots:
        return _closed_sum(env, n, [
            (c, _closed_twist(env, *_closed_plain(env, shape, keys, values), sigma, inv))
            for keys, c in combos])
    p = inv[slots[0] - 1]
    sign, j = (1, p) if p < n else (-1, 1)
    c1: dict = {}  # reduced: a combination of reduced vectors
    for keys, c in combos:
        vec_axpy(c1, sign * c, _closed_plain(env, shape, keys, values)[1].get(j, {}))
    return Spread.of_terms(env, n, {(0,) * (n - 1): CElement({}, c1)} if c1 else {})


def _basis_combos(items: list) -> list:
    """(basis indices, coefficient) of each term of the multilinear
    expansion of items, each a basis index or a vector over the basis."""
    combos = [((), 1)]
    for item in items:
        terms = ((item, 1),) if type(item) is int else item.items()
        combos = [(keys + (k,), c * v) for keys, c in combos for k, v in terms]
    return combos


def _closed_plain(env: EnvelopePA, shape: Shape, keys: tuple, values: dict):
    """_closed_join of the word, kept in values under (shape, keys); a word
    with a zero side keeps the one shared zero form."""
    plain = values.get((shape, keys))  # the word itself, not a proper subword
    if plain is None:
        plain = values[shape, keys] = _closed_join(env, shape, keys, values)
    return plain


def _closed_sum(env: EnvelopePA, n: int, values) -> Spread:
    """The spread over n slots of the sum of coeff * (x0, xs) over the
    (coeff, closed form) pairs in values, added into fresh accumulators,
    never into the kept values themselves."""
    x0: Vec = {}
    xs: dict = {}
    for coeff, (y0, zs) in values:
        vec_axpy(x0, coeff, y0)
        for j, pair in zs.items():
            vec_axpy(xs.setdefault(j, {}), coeff, pair)
    return _closed_spread(env, n, x0, xs)


def _closed_spread(env: EnvelopePA, n: int, x0: Vec, xs: dict) -> Spread:
    """The spread x0 + sum_j T_j [xs[j]] over n slots.  x0 is copied; the
    nonzero xs[j] become the terms themselves, which kept values may be."""
    terms = {(0,) * (n - 1): env.from_a(x0)} if x0 else {}
    units = _unit_exps(n)
    for j, pair in xs.items():
        if pair:
            terms[units[j - 1]] = CElement({}, pair)
    return Spread.of_terms(env, n, terms)


def closed_form_on_tuples(env: EnvelopePA, p: MultilinearPoly) -> Iterator[tuple]:
    """Yield (index tuple, closed_form_eval(env, p, tuple)) for every tuple
    of A basis indices, in lex order.  p has arity >= 2, as every identity has.

    The _word_values of each proper subword are kept, for this call only,
    under (interned shape, basis indices of its leaves); kept values are
    never changed, as the monomials add into fresh accumulators.  -|, |- and
    tensor_pair are bilinear, so a monomial whose word has a child with
    every labeling zero has the zero _closed_join: no tensor is reduced, no
    twist made and nothing added for it.  Nothing else is kept, neither a
    join of a top word nor an accumulator past its tuple, so the memory of
    a call is its subword table.
    """
    n, d = p.arity, env.A.dim
    guard_tuples(d ** n, f"{d}^{n} basis tuples")
    values: dict = {}
    plan = [(coeff, shape, itemgetter(*[s - 1 for s in sigma]), sigma, perms.inverse(sigma))
            for (shape, sigma), coeff in p.terms.items()]
    for idx in itertools.product(range(d), repeat=n):
        yield idx, _closed_sum(env, n, [
            (coeff, _closed_twist(env, *form, sigma, inv)) for coeff, shape, pick, sigma, inv in plan
            if (form := _closed_join(env, shape, pick(idx), values))[0] or form[1]])


@lru_cache(maxsize=None)
def _unit_exps(n: int) -> tuple:
    """The exponents of T_1, ..., T_{n-1} in a spread over n slots."""
    zero = (0,) * (n - 1)
    return tuple(zero[:j] + (1,) + zero[j + 1:] for j in range(n - 1))


def oracle_sweep(env: EnvelopePA, max_arity: int, one_pair) -> tuple[str | None, int]:
    """Compare eval_term with closed_form_eval on every word of degree <= max_arity.

    Each word is checked on every basis tuple of A, then, slot by slot, on
    the arguments listed by one_pair(n): (pair, idx) puts the tensor
    generator of the index pair in the slot and the basis elements idx in
    the other n - 1 slots.  one_pair is called once per word and slot, in
    that order.  Returns the first mismatch (None if there is none) and the
    number of instances checked.
    """
    n, d = max(max_arity, 1), env.A.dim  # the top degree costs most: refuse it up front
    guard_tuples(math.comb(2 * n - 2, n - 1) // n * math.factorial(n) * d ** n,
                 f"words of degree {n} on {d}^{n} basis tuples")
    checked = 0
    for n in range(1, max_arity + 1):
        for shape in all_shapes(n):
            for perm in perms.symmetric_group(n):
                word = (shape, perm)
                for idx in itertools.product(range(env.A.dim), repeat=n):
                    args = [env.basis_a(i) for i in idx]
                    checked += 1
                    if not eval_term(env, word, args).eq(closed_form_eval(env, word, args)):
                        return f"word {shape.flat_key()} perm {perm} tuple {idx}", checked
                for slot in range(1, n + 1):
                    for pr, idx in one_pair(n):
                        it = iter(idx)
                        args = [env.pair(*pr) if pos == slot else env.basis_a(next(it))
                                for pos in range(1, n + 1)]
                        checked += 1
                        if not eval_term(env, word, args).eq(closed_form_eval(env, word, args)):
                            return (f"one-pair word {shape.flat_key()} perm {perm} slot {slot}",
                                    checked)
    return None, checked


# ---------------------------------------------------------------------------
# variety quotients
# ---------------------------------------------------------------------------

@dataclass
class VarQuotient:
    ideal: RowSpace          # rows in (A (x) A) coordinates reduced mod U
    quotient: EnvelopePA


def build_var_quotient(env: EnvelopePA, sigma: IdentitySet) -> VarQuotient:
    """Span the tensor-part coefficients of all identity evaluations on
    basis tuples, check the degree-zero parts vanish, and quotient by the
    resulting ideal.

    Arguments in the tensor part add no rows.  By the lemma of
    closed_form_eval (an identity has arity n >= 2, which IdentitySet
    enforces), the value with a tensor-part x in slot s is 0 or a
    T-coefficient of the value with T.x in A in slot s, which by
    multilinearity is a combination of the rows added here.  This builds a
    span and nothing else: oracle_sweep, check_var_pseudo and extend_hom
    check values, not a span, and still enumerate every tuple.

    env's A passed the zero-dialgebra check of build_envelope, so the
    quotient does not check it again.
    """
    a = env.A
    w = first_witness(a, derive_variety(sigma).derived)  # env exists, so A is a 0-dialgebra
    if w is not None:
        raise InputError(f"dialgebra fails the variety: {w.describe(a.labels)}")
    rows = RowSpace()
    for t in sigma:
        for idx, spread in closed_form_on_tuples(env, t):
            const = spread.constant()
            if not env.is_zero(const):
                raise InputError(
                    f"degree-zero part of {t} at basis tuple {idx} is nonzero; "
                    f"the identity fails on A")
            for exps, elem in spread.terms.items():
                if any(exps):  # _closed_sum puts the free part at exponent zero only
                    rows.add(dict(elem.c1))
    quotient = EnvelopePA(a, extra_relations=rows.rows())
    return VarQuotient(rows, quotient)


# ---------------------------------------------------------------------------
# homomorphism extension
# ---------------------------------------------------------------------------

@dataclass
class ExtendedHom:
    """k[T]-linear map out of a (quotiented) envelope, with its check log."""

    env: EnvelopePA
    target: PseudoAlgebra
    phi: list                 # image of each A basis element
    pair_images: dict         # (i, j) -> image of the tensor generator
    checks: dict

    def apply(self, x: CElement):
        out = lin_comb(self.target, self.pair_images, x.c1)
        for (k, i), coeff in x.c0.items():
            out = self.target.add(out, self.target.scale(self.target.t_pow(self.phi[i], k), coeff))
        return out


def extend_hom(env: EnvelopePA, phi: Sequence, target: PseudoAlgebra) -> ExtendedHom:
    """Extend a dialgebra homomorphism phi: A -> target^(0) to the envelope.

    phi is given on the A basis.  Raises InputError naming the first
    failed requirement: homomorphism property, slot-degree bound, killed
    relations, T-linearity, or product preservation on generators.
    """
    a = env.A
    d = a.dim
    tgt = target

    checks = {}
    bad = hom_failure(a, phi, tgt)
    if bad is not None:
        symbol, i, j = bad
        raise InputError(f"phi is not a dialgebra homomorphism ({symbol} at {i},{j})")
    checks["dialgebra-hom"] = True

    pair_images = {}  # (i, j) -> minus the T_1 coefficient of phi(e_i)*phi(e_j)
    for i, j in itertools.product(range(d), repeat=2):
        prod = product(tgt, phi[i], phi[j])
        if any(exps[0] > 1 for exps in prod.terms):
            raise InputError(f"phi({a.labels[i]})*phi({a.labels[j]}) has slot-1 degree > 1")
        pair_images[i, j] = tgt.scale(prod.coefficient((1,)), -1)
    checks["degree-bound"] = True
    hom = ExtendedHom(env, tgt, list(phi), pair_images, checks)

    for row in env.rel.rows():
        if not tgt.is_zero(lin_comb(tgt, pair_images, row)):
            raise InputError("relation subspace is not killed by the extension")
    checks["kills-relations"] = True

    gens = env.generators()
    images = [hom.apply(g) for _name, g in gens]
    for (name, g), image in zip(gens, images):
        if not tgt.eq(hom.apply(env.t_act(g)), tgt.t_act(image)):
            raise InputError(f"extension is not T-linear at generator {name}")
    checks["t-linear"] = True

    for (name_x, gx), image_x in zip(gens, images):
        for (name_y, gy), image_y in zip(gens, images):
            inner = product(env, gx, gy)
            mapped = Spread(tgt, 2, {exps: hom.apply(elem) for exps, elem in inner.terms.items()})
            direct = product(tgt, image_x, image_y)
            if not mapped.eq(direct):
                raise InputError(f"products not preserved at ({name_x}, {name_y})")
    checks["preserves-products"] = True
    return hom
