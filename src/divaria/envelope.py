"""The enveloping pseudo-algebra of a zero-dialgebra A, its variety quotients
and homomorphisms out of it.

EnvelopePA is built on (k[T] (x) A) (+) (A (x) A)/W.  W always contains
the span of defect(x)defect tensors; variety quotients enlarge it by an
ideal that the closed forms produce.

The closed-form evaluator assembles values of words on A-arguments (and
on arguments with a single (A(x)A)-entry) directly from dialgebra
evaluations of labeled words; it is the independent oracle against the
recursive pseudo-product evaluator of the pseudo module, and the two are
compared term by term in the test suite before the closed forms are
trusted anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import perms
from .errors import InputError, guard_tuples
from .fd import FDDialgebra, first_witness, is_zero_dialgebra
from .linalg import RowSpace, Vec, add_term, decimal_str, vec_axpy
from .operads import IdentitySet
from .pseudo import (PseudoAlgebra, Spread, accumulate, eval_term, hom_failure, kept, lin_comb,
                     n_product, product)
# re-exports: callers import check_var_pseudo from here, and perfbench/tracer.py reads the others
from .pseudo import CoefficientDialgebra, check_var_pseudo, pseudo_product  # noqa: F401
from .words import MultilinearPoly, Shape, all_shapes, eval_shape_tree


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
    once and hands out that object, so it is shared and never mutated; it
    carries its index and its A-vector, which classify it in O(1)."""

    __slots__ = ("index", "avec")

    def __init__(self, i: int):
        super().__init__({(0, i): 1}, {})
        self.index = i
        self.avec = {i: 1}


def _outer(x: Vec, y: Vec) -> dict:
    """x (x) y in (A (x) A) coordinates."""
    return {(i, j): a * b for i, a in x.items() for j, b in y.items()}


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
        rel = RowSpace()
        for i in range(d):
            for j in range(d):
                di = self.defects[i][j]
                if not di:
                    continue
                for k in range(d):
                    for l in range(d):
                        dk = self.defects[k][l]
                        if dk:
                            rel.add(_outer(di, dk))
        for row in rel.rows():
            if self._t_of_pairs(row):
                raise InputError("defect tensors are not killed by T; input is inconsistent")
        for extra in extra_relations:
            if self._t_of_pairs(extra):
                raise InputError("quotient relation not killed by T")
            rel.add(extra)
        self.rel = rel
        pivots = set(rel.pivots())
        self.c1_basis = tuple(p for p in sorted(itertools.product(range(d), repeat=2))
                              if p not in pivots)
        self._basis = tuple(map(BasisElement, range(d)))

    # -- constructors ------------------------------------------------------

    def from_a(self, vec: Vec) -> CElement:
        return CElement({(0, i): x for i, x in vec.items()}, {})

    def basis_a(self, i: int) -> BasisElement:
        return self._basis[i]

    def pair(self, i: int, j: int) -> CElement:
        return CElement({}, self.rel.reduce({(i, j): 1}))

    def tensor_pair(self, x: Vec, y: Vec) -> dict:
        return self.rel.reduce(_outer(x, y))

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
        a = self.A
        for (k, i), cx in x.c0.items():
            xi_right = a.right[i]
            for (l, j), cy in y.c0.items():
                c = cx * cy
                prod = {(0, s): c * t for s, t in enumerate(xi_right[j]) if t}
                if prod:
                    accumulate(self, buckets, (k, l), CElement(prod, {}))
                accumulate(self, buckets, (k + 1, l), CElement({}, self.rel.reduce({(i, j): -c})))
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

    # A shared basis element reads its stored classification; any other
    # element, equal to one or not, is scanned.

    def basis_index(self, x: CElement) -> int | None:
        if type(x) is BasisElement:
            return x.index
        if not x.c1 and len(x.c0) == 1:
            ((k, i), v), = x.c0.items()
            if k == 0 and v == 1:
                return i
        return None

    def a_part(self, x: CElement) -> tuple[Vec, int | None] | None:
        """x as (A-vector, basis_index(x)) if x lies in A, else None.  The
        A-vector of a shared basis element is its own: never change it."""
        if type(x) is BasisElement:
            return x.avec, x.index
        if x.c1:
            return None
        out: Vec = {}
        for (k, i), v in x.c0.items():
            if k:
                return None
            out[i] = v
        return out, (i if len(out) == 1 and v == 1 else None)


def build_envelope(a: FDDialgebra) -> EnvelopePA:
    """The envelope of a, after checking that a is a zero-dialgebra."""
    w = is_zero_dialgebra(a)
    if w is not None:
        raise InputError(f"not a zero-dialgebra: {w.describe(a.labels)}")
    return EnvelopePA(a)


# ---------------------------------------------------------------------------
# closed forms (the independent oracle)
# ---------------------------------------------------------------------------

def _word_values(env: EnvelopePA, shape: Shape, avecs: list) -> list:
    """Dialgebra values of the word labeled toward each leaf position in turn
    (the section_dishape labelings), from one bottom-up fold."""
    if shape.is_leaf:
        return [avecs[0]]
    m = shape.left.arity
    left = _word_values(env, shape.left, avecs[:m])
    right = _word_values(env, shape.right, avecs[m:])
    r1, lm = right[0], left[-1]
    return [env.A.lprod(x, r1) for x in left] + [env.A.rprod(lm, y) for y in right]


def _plain_closed(env: EnvelopePA, shape: Shape, avecs: list):
    """(x0, {i: c1 pair dict}) for a plain word on A arguments."""
    if shape.is_leaf:
        return avecs[0], {}
    m = shape.left.arity
    left = _word_values(env, shape.left, avecs[:m])
    right = _word_values(env, shape.right, avecs[m:])
    x0l, y0 = left[-1], right[-1]
    xs: dict = {}
    for i, li in enumerate(left, start=1):
        pair = env.tensor_pair(li, y0)
        if pair:
            xs[i] = pair
    for j, rj in enumerate(right[:-1], start=1):
        diff = dict(y0)
        vec_axpy(diff, -1, rj)
        pair = env.tensor_pair(x0l, diff)
        if pair:
            xs[m + j] = pair
    return env.A.rprod(x0l, y0), xs


def _closed_mono_a(env: EnvelopePA, mono, avecs: list, idx) -> tuple[Vec, dict]:
    """Closed form of a (possibly twisted) word on A arguments:
    (x0, {j: pair dict x_j}) for the value x0 - sum_j T_j [x_j].

    idx is the arguments' basis-index tuple, or None; on basis tuples the
    plain value is kept in env's own table, apart from eval_term's."""
    shape, sigma = mono
    n = shape.arity

    def plain():  # the permuted arguments are built only when a value is computed
        return _plain_closed(env, shape, [avecs[s - 1] for s in sigma])

    if idx is None:
        y0, ys = plain()
    else:
        y0, ys = kept(env, "_closed", shape, tuple([idx[s - 1] for s in sigma]), plain)
    inv = perms.inverse(sigma)
    if sigma[n - 1] == n:
        x0 = y0
        xs = {j: ys[inv[j - 1]] for j in range(1, n) if inv[j - 1] in ys}
    else:
        q = inv[n - 1]
        yq = ys.get(q, {})
        x0 = dict(y0)  # y0 may come from the table: never add into it
        vec_axpy(x0, -1, env._t_of_pairs(yq))
        xs = {}
        nsig = sigma[n - 1]
        for j in range(1, n):
            if j == nsig:
                val = {k: -v for k, v in yq.items()}
            else:
                val = dict(ys.get(inv[j - 1], {}))
                vec_axpy(val, -1, yq)
            if val:
                xs[j] = val
    return x0, xs


def _closed_d_plain(env: EnvelopePA, shape: Shape, args: list, s: int) -> dict:
    """C1 value of a plain word whose argument s (leaf position) is a pair."""
    if shape.is_leaf:
        return args[0]
    m = shape.left.arity
    # the other side's value labeled toward its last leaf: every product is |-
    if s <= m:
        x = _closed_d_plain(env, shape.left, args[:m], s)
        y0 = eval_shape_tree(shape.right, args[m:], env.A.rprod)
        return env.tensor_pair({k: -v for k, v in env._t_of_pairs(x).items()}, y0)
    x0l = eval_shape_tree(shape.left, args[:m], env.A.rprod)
    x = _closed_d_plain(env, shape.right, args[m:], s - m)
    return env.tensor_pair(x0l, env._t_of_pairs(x))


def closed_form_eval(env: EnvelopePA, t, args: Sequence[CElement]) -> Spread:
    """Assemble the value of t on args from dialgebra evaluations only.

    Supported argument patterns: all arguments in A, or exactly one
    argument in the tensor part (then each monomial of t is a word, plain
    or twisted).  No pseudo-products are used.  The arguments are
    classified once, and the monomials of a polynomial add into one
    accumulator.
    """
    poly = isinstance(t, MultilinearPoly)
    n = t.arity if poly else t[0].arity
    if n != len(args):
        raise InputError("arity mismatch")
    vals, idx, slots = [], [], []
    for pos, x in enumerate(args, start=1):
        got = env.a_part(x)
        if got is None:
            if x.c0:
                raise InputError("closed forms support pure A or pure tensor arguments only")
            slots.append(pos)
            vals.append(x.c1)
        else:
            vals.append(got[0])
            idx.append(got[1])
    if len(slots) > 1:
        raise InputError("closed forms support at most one tensor argument")
    monos = t.terms.items() if poly else [(t, 1)]
    zero = (0,) * (n - 1)
    if slots:
        acc: dict = {}
        for (shape, sigma), coeff in monos:
            _add_scaled(acc, zero, coeff, _closed_d_plain(env, shape, [vals[g - 1] for g in sigma],
                                                          perms.inverse(sigma)[slots[0] - 1]))
        # sums of reduced vectors stay reduced: nothing to reduce again
        return Spread.of_terms(env, n, {k: CElement({}, v) for k, v in acc.items() if v})
    if poly:
        x0: Vec = {}
        xs: dict = {}  # j -> the tensor part of the T_j coefficient: -sum of coeff * x_j
        for mono, coeff in monos:
            y0, ys = _closed_mono_a(env, mono, vals, None)
            vec_axpy(x0, coeff, y0)
            for j, pair in ys.items():
                _add_scaled(xs, j, -coeff, pair)
    else:  # as in eval_term, only a word keeps its plain values
        x0, ys = _closed_mono_a(env, t, vals, None if None in idx else tuple(idx))
        xs = {j: {k: -v for k, v in pair.items()} for j, pair in ys.items()}
    # fresh dicts, zero-free and reduced, never the kept values themselves
    terms = {zero: env.from_a(x0)} if x0 else {}
    units = _unit_exps(n)
    for j, pair in xs.items():
        if pair:
            terms[units[j - 1]] = CElement({}, pair)
    return Spread.of_terms(env, n, terms)


@lru_cache(maxsize=None)
def _unit_exps(n: int) -> tuple:
    """The exponents of T_1, ..., T_{n-1} in a spread over n slots."""
    zero = (0,) * (n - 1)
    return tuple(zero[:j] + (1,) + zero[j + 1:] for j in range(n - 1))


def _add_scaled(acc: dict, key, coeff, vec: dict) -> None:
    """acc[key] += coeff * vec, where a first term is copied, not added."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = {k: coeff * v for k, v in vec.items()}
    else:
        vec_axpy(cur, coeff, vec)


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
                        return f"word {shape.key} perm {perm} tuple {idx}", checked
                for slot in range(1, n + 1):
                    for pr, idx in one_pair(n):
                        it = iter(idx)
                        args = [env.pair(*pr) if pos == slot else env.basis_a(next(it))
                                for pos in range(1, n + 1)]
                        checked += 1
                        if not eval_term(env, word, args).eq(closed_form_eval(env, word, args)):
                            return f"one-pair word {shape.key} perm {perm} slot {slot}", checked
    return None, checked


# ---------------------------------------------------------------------------
# variety quotients
# ---------------------------------------------------------------------------

@dataclass
class VarQuotient:
    base: EnvelopePA
    ideal: RowSpace          # rows in (A (x) A) coordinates reduced mod U
    quotient: EnvelopePA


def build_var_quotient(env: EnvelopePA, sigma: IdentitySet) -> VarQuotient:
    """Span the tensor-part coefficients of all identity evaluations on
    basis tuples, check the degree-zero parts vanish, and quotient by the
    resulting ideal.

    Lemma: arguments with one tensor-part entry add no rows.  Let x be a
    tensor-part element with T.x = delta in A, and v the value of an
    identity (arity n >= 2, which IdentitySet enforces) with x in slot s.
    Each slot of a pseudo-algebra word is H-linear, so
      for s < n:  v(..., T.x, ...) = T_s.v(..., x, ...),
      for s = n:  v(..., T.x) = -(T_1 + ... + T_{n-1}).v(..., x) + T.const(v),
    the second after slot n is eliminated (v(..., x) is concentrated in
    degree zero).  The left side is the value on an A-tuple with delta in
    slot s; by multilinearity its T-coefficients are combinations of the
    rows added here.  Multiplying by a nonzero linear form in the T_i is
    injective on coefficients, so every coefficient of v(..., x, ...), and
    with it every one-pair row, lies in the span of the basis-tuple rows.
    This builds a span and nothing else: oracle_sweep, check_var_pseudo and
    extend_hom check values, not a span, and still enumerate every tuple.

    env's A passed the zero-dialgebra check of build_envelope, so the
    quotient does not check it again.
    """
    a = env.A
    d = a.dim
    from .translate import derive_variety
    w = first_witness(a, derive_variety(sigma).derived)  # env exists, so A is a 0-dialgebra
    if w is not None:
        raise InputError(f"dialgebra fails the variety: {w.describe(a.labels)}")
    rows = RowSpace()
    for t in sigma:
        n = t.arity
        guard_tuples(d ** n, f"{d}^{n} basis tuples")
        for idx in itertools.product(range(d), repeat=n):
            args = [env.basis_a(i) for i in idx]
            spread = closed_form_eval(env, t, args)
            const = spread.constant()
            if not env.is_zero(const):
                raise InputError(
                    f"degree-zero part of {t} at basis tuple {idx} is nonzero; "
                    f"the identity fails on A")
            for exps, elem in spread.terms.items():
                if any(exps):
                    if elem.c0:
                        raise InputError("unexpected free part in ideal generator")
                    rows.add(dict(elem.c1))
    quotient = EnvelopePA(a, extra_relations=rows.rows())
    return VarQuotient(env, rows, quotient)


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

    for i, j in itertools.product(range(d), repeat=2):
        if any(exps[0] > 1 for exps in product(tgt, phi[i], phi[j]).terms):
            raise InputError(f"phi({a.labels[i]})*phi({a.labels[j]}) has slot-1 degree > 1")
    checks["degree-bound"] = True

    pair_images = {(i, j): tgt.scale(n_product(tgt, phi[i], phi[j], 1), -1)
                   for i in range(d) for j in range(d)}
    hom = ExtendedHom(env, tgt, list(phi), pair_images, checks)

    for row in env.rel.rows():
        if not tgt.is_zero(lin_comb(tgt, pair_images, row)):
            raise InputError("relation subspace is not killed by the extension")
    checks["kills-relations"] = True

    for name, g in env.generators():
        if not tgt.eq(hom.apply(env.t_act(g)), tgt.t_act(hom.apply(g))):
            raise InputError(f"extension is not T-linear at generator {name}")
    checks["t-linear"] = True

    gens = env.generators()
    for name_x, gx in gens:
        for name_y, gy in gens:
            inner = product(env, gx, gy)
            mapped = Spread(tgt, 2, {exps: hom.apply(elem) for exps, elem in inner.terms.items()})
            direct = product(tgt, hom.apply(gx), hom.apply(gy))
            if not mapped.eq(direct):
                raise InputError(f"products not preserved at ({name_x}, {name_y})")
    checks["preserves-products"] = True
    return hom
