"""References that the tests compare the program against.  The program
never calls them, so they live here and not in the package.

- psi, the label-erasing map from labeled (dialgebra) monomials to
  tensor monomials, with its center computed two ways: by descent from
  the root (center_leaf_position) and by the recursion into the
  symmetric-group operad (alpha_center, which asserts that they agree);
- epsilon_eval, the counit collapse of a tensor element evaluated in a
  pseudo-algebra;
- gl, the commutator Lie algebra of the n x n matrix units;
- eval_poly and first_lex_witness, a polynomial folded monomial by
  monomial at one argument tuple of a structure-constant (di)algebra, and
  the identity check that scans the basis tuples with it, the per-tuple
  references of words.eval_on_tuples and fd.eval_identity;
- spread_sum and poly_value, a linear combination of spreads added term
  by term, and a polynomial at one argument tuple as the sum of its words'
  values under either evaluator (eval_term and closed_form_eval take a
  word; only their tuple entries take a polynomial);
- generator_tuple_values and first_generator_witness, a polynomial
  evaluated through eval_term on one generator tuple at a time and the
  identity check that scans the tuples with it, the per-tuple references
  of pseudo.eval_term_on_tuples and pseudo.check_var_pseudo;
- basis_tuple_values and closed_form_rows, the closed forms evaluated on one
  basis tuple at a time and the ideal spanned from their values, the
  per-tuple references of envelope.closed_form_on_tuples and the ideal of
  envelope.build_var_quotient;
- recursive_ideal, the same ideal spanned from the recursive evaluator's
  tuple entry, pseudo.eval_term_on_tuples, which reads no closed form;
- from_vec, the inverse of words.to_vec;
- round_trip_compose_mono, the operad composite of monomials computed by
  reordering the partition by sigma^{-1} and composing through
  perms.sym_compose, which reorders it back, with a TensorPoly center from
  pair_to_index: the reference of TermPoly.compose_mono, which reads each
  block's start offset straight off the partition;
- relabeled_consequences, the consequence span with every relabeling
  built as a polynomial and then mapped to coordinates, the reference of
  operads.consequence_space, which permutes coordinates instead;
- relabeled_orbit_key, the least scaled sort key over all n! relabelings,
  the reference of translate._same_orbit, which tries one candidate
  relabeling per matching term: two identities are in one orbit exactly
  when their keys are equal;
- generated_basis and generated_subspace_failure, a basis of the subspace
  S that the images of rho generate, and the 5 identities of
  embed_associative evaluated on every triple of it, the references of
  the two facts about S that embed_associative reads off the images (S
  begins with them when they have rank d; S's top T-degree is theirs) and
  of its check on the matrix units of the current algebra;
- parse_expression, one identity read by the parser of variety files.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from divaria import perms
from divaria.dsl import parse_identity, tokenize
from divaria.envelope import closed_form_eval
from divaria.errors import InputError
from divaria.fd import FDAlgebra, Witness
from divaria.linalg import RowSpace, vec_axpy
from divaria.operads import consequence_generators
from divaria.perms import Perm
from divaria.pseudo import CoefficientDialgebra, Spread, accumulate, eval_term, eval_term_on_tuples
from divaria.translate import derive_variety, zero_dialgebra_axioms
from divaria.varieties import builtin_identity_set
from divaria.words import (DiPoly, DiShape, LEAF, LPROD, RPROD, Shape, TensorPoly,
                           basis_monomials, eval_on_tuples, eval_shape_tree, graft, node,
                           to_vec)


def parse_expression(text: str):
    return parse_identity(tokenize(text))


# ---------------------------------------------------------------------------
# the label-erasing map and the center
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def erase_labels(ds: DiShape) -> Shape:
    if ds.is_leaf:
        return LEAF
    return node(erase_labels(ds.left), erase_labels(ds.right))


def center_leaf_position(ds: DiShape) -> int:
    """Leaf position reached from the root going left at -| and right at |-."""
    pos = 1
    while not ds.is_leaf:
        if ds.label == LPROD:
            ds = ds.left
        else:
            pos += ds.left.arity
            ds = ds.right
    return pos


@lru_cache(maxsize=None)
def alpha_perm(ds: DiShape) -> Perm:
    """The permutation attached to a labeled shape by the binary recursion
    x|-y -> id_2, x-|y -> (12) composed in the symmetric-group operad."""
    if ds.is_leaf:
        return (1,)
    base = (1, 2) if ds.label == RPROD else (2, 1)
    lp = alpha_perm(ds.left)
    rp = alpha_perm(ds.right)
    return perms.sym_compose(base, (ds.left.arity, ds.right.arity), [lp, rp])


def alpha_center(mono) -> tuple[tuple, Perm, int]:
    """(underlying word monomial, recursion permutation, center variable).

    The center variable index is the path-descent leaf position pushed
    through the monomial's permutation; it always equals n*tau^{-1}
    transported the same way, which this asserts.
    """
    ds, sigma = mono
    tau = alpha_perm(ds)
    p = center_leaf_position(ds)
    n = ds.arity
    if perms.inverse(tau)[n - 1] != p:
        raise AssertionError("center path and recursion disagree")
    return (erase_labels(ds), sigma), tau, sigma[p - 1]


def psi_monomial(mono) -> tuple:
    """Tensor monomial image (word, perm, center index) of a labeled monomial."""
    ds, sigma = mono
    p = center_leaf_position(ds)
    return (erase_labels(ds), sigma, sigma[p - 1])


def psi(p: DiPoly) -> TensorPoly:
    """Linear extension of the label-erasing functor."""
    out: dict = {}
    for mono, coeff in p.terms.items():
        t = psi_monomial(mono)
        out[t] = out.get(t, 0) + coeff
    return TensorPoly(p.arity, out)


# ---------------------------------------------------------------------------
# the counit collapse, gl(n) and coordinates
# ---------------------------------------------------------------------------

def epsilon_eval(alg, f, args) -> object:
    """Counit-collapse of a tensor element evaluated on args.

    For f0 (x) e_i only the slot-i variable survives; its power acts
    through T on the coefficient.  Accepts a TensorPoly or a single
    (shape, perm, center) monomial.
    """
    if isinstance(f, TensorPoly):
        acc = alg.zero()
        for mono, coeff in f.terms.items():
            acc = alg.add(acc, alg.scale(epsilon_eval(alg, mono, args), coeff))
        return acc
    shape, sigma, center = f
    spread = eval_term(alg, (shape, sigma), args)
    n = shape.arity
    out = alg.zero()
    if center == n:
        return spread.constant()
    for exps, elem in spread.terms.items():
        if all(e == 0 for i, e in enumerate(exps) if i != center - 1):
            out = alg.add(out, alg.t_pow(elem, exps[center - 1]))
    return out


def gl(n: int) -> FDAlgebra:
    """The commutator Lie algebra of the n x n matrix units E_ij."""
    units = [(i, j) for i in range(n) for j in range(n)]
    table = [[[0] * n * n for _ in units] for _ in units]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):  # [E_ij, E_kl] = [j = k] E_il - [l = i] E_kj
            if j == k:
                table[a][b][i * n + l] += 1
            if l == i:
                table[a][b][k * n + j] -= 1
    return FDAlgebra(table, [f"E{i + 1}{j + 1}" for i, j in units])


def eval_poly(alg, p, args) -> dict:
    """p at args in an FDAlgebra (a MultilinearPoly) or an FDDialgebra (a
    DiPoly), each monomial folded over its own leaves."""
    assert len(args) == p.arity
    acc: dict = {}
    for (shape, perm), coeff in p.terms.items():
        leaves = [args[perm[k] - 1] for k in range(shape.arity)]
        vec_axpy(acc, coeff, eval_shape_tree(shape, leaves, alg.products))
    return acc


def first_lex_witness(alg, p):
    """The Witness of the first basis tuple, in lex order, at which p does not vanish."""
    basis = [alg.basis(i) for i in range(alg.dim)]
    for idx in itertools.product(range(alg.dim), repeat=p.arity):
        val = eval_poly(alg, p, [basis[i] for i in idx])
        if val:
            return Witness(p, idx, val)
    return None


# ---------------------------------------------------------------------------
# the two evaluators, one argument tuple at a time
# ---------------------------------------------------------------------------

def spread_sum(alg, n: int, values) -> Spread:
    """The spread over n slots that is the sum of coeff * spread over the
    (coeff, spread) pairs in values, added into a fresh dict."""
    acc: dict = {}
    for coeff, spread in values:
        for exps, elem in spread.terms.items():
            accumulate(alg, acc, exps, elem, coeff)
    return Spread.of_terms(alg, n, acc)


def poly_value(evaluate, alg, p, args) -> Spread:
    """p at args: the sum of coeff * evaluate(alg, word, args) over the
    monomials coeff * word of p."""
    return spread_sum(alg, p.arity, [(coeff, evaluate(alg, word, args))
                                     for word, coeff in p.terms.items()])


def generator_tuple_values(alg, t, elements) -> list:
    """[(index tuple, eval_term value)] on every tuple of elements, in lex order."""
    return [(idx, poly_value(eval_term, alg, t, [elements[i] for i in idx]))
            for idx in itertools.product(range(len(elements)), repeat=t.arity)]


def first_generator_witness(alg, sigma):
    """check_var_pseudo one tuple at a time: (identity, generator names,
    spread) at the first tuple in lex order where an identity fails."""
    gens = alg.generators()
    for t in sigma:
        for combo in itertools.product(gens, repeat=t.arity):
            spread = poly_value(eval_term, alg, t, [el for _, el in combo])
            if not spread.is_zero():
                return (t, tuple(name for name, _ in combo), spread)
    return None


def basis_tuple_values(env, t) -> list:
    """[(index tuple, closed_form_eval value)] on every basis tuple of A, in lex order."""
    return [(idx, poly_value(closed_form_eval, env, t, [env.basis_a(i) for i in idx]))
            for idx in itertools.product(range(env.A.dim), repeat=t.arity)]


def closed_form_rows(env, sigma) -> RowSpace:
    """The ideal of build_var_quotient, from closed_form_eval one basis tuple
    at a time; InputError with its text where a degree-zero part is nonzero."""
    rows = RowSpace()
    for t in sigma:
        for idx, spread in basis_tuple_values(env, t):
            if not env.is_zero(spread.constant()):
                raise InputError(f"degree-zero part of {t} at basis tuple {idx} is nonzero; "
                                 f"the identity fails on A")
            for exps, elem in spread.terms.items():
                if any(exps):
                    rows.add(dict(elem.c1))
    return rows


def recursive_ideal(env, sigma) -> RowSpace:
    """The span of the tensor parts of the T-coefficients of every identity
    of sigma on every tuple of A basis elements, from eval_term_on_tuples."""
    basis = [env.basis_a(i) for i in range(env.A.dim)]
    rows = RowSpace()
    for t in sigma:
        for _idx, spread in eval_term_on_tuples(env, t, basis):
            for exps, elem in spread.terms.items():
                if any(exps):
                    rows.add(dict(elem.c1))
    return rows


def from_vec(cls, n: int, vec: dict):
    index = basis_monomials(cls, n)
    rev = {i: m for m, i in index.items()}
    return cls(n, {rev[i]: c for i, c in vec.items()})


def round_trip_compose_mono(cls, mono, pi: tuple, inner) -> tuple:
    """The composite of the cls monomial mono with the monomials inner along
    pi: the blocks of pi reordered by sigma^{-1}, then composed through
    sym_compose (which validates every entry), the center of a TensorPoly
    monomial the index of its inner center in pi."""
    sigma = mono[1]
    pi2 = perms.act_partition(pi, perms.inverse(sigma))
    reordered = [inner[k - 1] for k in sigma]
    out = (graft(mono[0], [g[0] for g in reordered]),
           perms.sym_compose(sigma, pi2, [g[1] for g in reordered]))
    if cls is TensorPoly:
        center = mono[2]
        out += (perms.pair_to_index(pi, center, inner[center - 1][2]),)
    return out


def relabeled_consequences(sigma, n: int) -> RowSpace:
    """The span of g0.act(s) for every consequence generator g0 and every s
    in S_n, in the row order of consequence_space."""
    space = RowSpace()
    for g0 in consequence_generators(sigma, n):
        for s in perms.symmetric_group(n):
            space.add(to_vec(g0.act(s)))
    return space


def relabeled_orbit_key(p: DiPoly) -> tuple:
    """The least sort_key of p.act(sigma) / (its leading coefficient) over
    every sigma in S_n."""
    best = None
    for sigma in perms.symmetric_group(p.arity):
        q = p.act(sigma)
        key = q.scale(Fraction(1, q.sorted_terms()[0][1])).sort_key()
        if best is None or key < best:
            best = key
    return best


def generated_basis(rep) -> list:
    """A basis of the span of the words of length <= 3 in the images rho(x)
    under both coefficient products of the associative current algebra,
    the first independent ones in order."""
    ops = (rep.cur.rprod, rep.cur.lprod)
    layer1 = rep.rho
    layer2 = [op(x, y) for x in layer1 for y in layer1 for op in ops]
    layer3 = [op(x, y) for x, y in itertools.chain(
        itertools.product(layer1, layer2), itertools.product(layer2, layer1))
        for op in ops]
    span = RowSpace()
    return [m for m in itertools.chain(layer1, layer2, layer3) if m and span.add(dict(m))]


def generated_subspace_failure(rep):
    """The first of the zero-dialgebra axioms and the derived associative
    identities that fails on a triple of generated_basis(rep) under the
    coefficient products of rep.cur, or None if all 5 vanish there."""
    basis = generated_basis(rep)
    products = CoefficientDialgebra(rep.cur).products
    subwords: dict = {}
    for p in (*zero_dialgebra_axioms(), *derive_variety(builtin_identity_set("associative")).derived):
        if any(val for _idx, val in eval_on_tuples(p, basis, products, subwords)):
            return p
    return None
