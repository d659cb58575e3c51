import functools
import gc
import itertools
import random
import sys
from fractions import Fraction

import pytest

from divaria import envelope, pseudo
from divaria.envelope import (BasisElement, CElement, EnvelopePA, PairElement, _word_values,
                              build_envelope, build_var_quotient, closed_form_eval, extend_hom,
                              oracle_sweep)
from divaria.pseudo import (CoefficientDialgebra, Spread, accumulate, act_spread,
                            check_var_pseudo, eval_term, leaf_spread, product,
                            pseudo_product)
from divaria.conformal import build_rho
from divaria.current import CurrentPA
from divaria.errors import InputError, ResourceError
from divaria.fd import (FDDialgebra, abelian, corpus, diagonal_lift, dual_numbers, leibniz2,
                        leibniz_to_dialgebra, sl2)
from divaria.linalg import vec_axpy
from divaria.operads import IdentitySet
from divaria.perms import random_perm, symmetric_group
from divaria.varieties import builtin_identity_set
from divaria.words import (DiPoly, LEAF, TensorPoly, all_dishapes, all_shapes,
                           eval_shape_tree, node, section_dishape)
from support import epsilon_eval, eval_poly, parse_expression, poly_value, psi

LIE = builtin_identity_set("lie")
B2 = node(LEAF, LEAF)


def a_vec(*coords) -> dict:
    """The sparse A-vector with these coordinates."""
    return {i: c for i, c in enumerate(coords) if c}


def difference(x: dict, y: dict) -> dict:
    out = dict(x)
    vec_axpy(out, -1, y)
    return out


@pytest.fixture(scope="module")
def env2():
    return build_envelope(leibniz_to_dialgebra(leibniz2()))


def test_envelope_relations_leibniz2(env2):
    # defects span {e2}; the only relation is e2 (x) e2
    assert env2.rel.pivots() == [(1, 1)]
    assert len(env2.c1_basis) == 3


def test_envelope_relations_abelian_and_diagonal():
    env = build_envelope(abelian(2))
    assert env.rel.rank == 0 and len(env.c1_basis) == 4
    envd = build_envelope(diagonal_lift(dual_numbers()))
    assert envd.rel.rank == 0
    # T vanishes on the tensor part of a diagonal lift
    for (i, j) in envd.c1_basis:
        assert envd.is_zero(envd.t_act(envd.pair(i, j)))


def test_envelope_rejects_non_zero_dialgebra():
    left = [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]
    right = [[(0, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(InputError) as err:
        build_envelope(FDDialgebra(left, right))
    assert str(err.value) == ("not a zero-dialgebra: identity (x1-|x2)|-x3 - (x1|-x2)|-x3 "
                              "fails at (b2, b2, b2); defect ('0', '-1')")


def test_envelope_refuses_defect_tensors_that_t_does_not_kill():
    # on a zero-dialgebra <x,y> = 0 for defects x, y; here e-|e = e and
    # e|-e = 0, so <e,e> = -e spans the defects and T(e (x) e) = -e
    with pytest.raises(InputError, match="defect tensors are not killed by T"):
        EnvelopePA(FDDialgebra([[[1]]], [[[0]]]))


def test_envelope_refuses_a_relation_that_t_does_not_kill():
    d = leibniz_to_dialgebra(leibniz2())
    assert d.defect(d.basis(0), d.basis(0))  # so T(e1 (x) e1) is not 0
    EnvelopePA(d, extra_relations=[{(1, 1): 1}])  # <e2,e2> = 0: T kills it
    with pytest.raises(InputError, match="quotient relation not killed by T"):
        EnvelopePA(d, extra_relations=[{(0, 0): 1}])


# ---------------------------------------------------------------------------
# normalization and base products
# ---------------------------------------------------------------------------

def test_normalization_examples(env2):
    # swapping the two slots of T (x) 1 gives 1 (x) T, and back
    c = env2.basis_a(0)
    f = act_spread(env2, Spread(env2, 2, {(1,): c}), (2, 1))  # 1 (x) T -> -T_1 . + (T.)
    assert set(f.terms) == {(0,), (1,)}
    assert env2.eq(f.coefficient((1,)), env2.scale(c, -1))
    assert env2.eq(f.constant(), env2.t_act(c))
    f = act_spread(env2, f, (2, 1))                            # T (x) 1 -> T_1 .
    assert set(f.terms) == {(1,)} and env2.eq(f.coefficient((1,)), c)


def test_base_product_table(env2):
    e1 = env2.basis_a(0)
    p11 = env2.pair(0, 0)
    # a*b = (a |- b) - T_1 (a (x) b)
    f = pseudo_product(env2, leaf_spread(env2, e1), leaf_spread(env2, e1))
    assert env2.eq(f.coefficient((0,)), env2.basis_a(1))
    assert env2.eq(f.coefficient((1,)), env2.scale(p11, -1))
    # (a(x)b)*(c(x)d) = 0
    assert pseudo_product(env2, leaf_spread(env2, p11), leaf_spread(env2, p11)).is_zero()
    # a*(b(x)c) = a (x) <b,c> at degree zero
    g = pseudo_product(env2, leaf_spread(env2, e1), leaf_spread(env2, p11))
    assert set(g.terms) == {(0,)}
    assert env2.eq(g.constant(), CElement({}, env2.rel.reduce({(0, 1): Fraction(2)})))
    # (a(x)b)*c = -(<a,b> (x) c) at degree zero
    h = pseudo_product(env2, leaf_spread(env2, p11), leaf_spread(env2, e1))
    assert env2.eq(h.constant(), CElement({}, env2.rel.reduce({(1, 0): Fraction(-2)})))


def test_h_bilinearity(env2):
    rng = random.Random(13)
    for _ in range(30):
        x = env2.t_pow(env2.from_a(a_vec(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))),
                       rng.randint(0, 1))
        y = env2.from_a(a_vec(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))))
        base = pseudo_product(env2, leaf_spread(env2, x), leaf_spread(env2, y))
        # (T x) * y shifts the first slot
        lhs = pseudo_product(env2, leaf_spread(env2, env2.t_act(x)), leaf_spread(env2, y))
        shifted = Spread(env2, 2, {(e[0] + 1,): v for e, v in base.terms.items()})
        assert lhs.eq(shifted)
        # x * (T y) = sum T_1^s (T z_s) - T_1^{s+1} z_s
        acc: dict = {}
        for e, v in base.terms.items():
            accumulate(env2, acc, e, env2.t_act(v))
            accumulate(env2, acc, (e[0] + 1,), v, -1)
        rhs = Spread.of_terms(env2, 2, acc)
        lhs2 = pseudo_product(env2, leaf_spread(env2, x), leaf_spread(env2, env2.t_act(y)))
        assert lhs2.eq(rhs)


def test_degree_cap(env2, monkeypatch):
    monkeypatch.setattr(pseudo, "DEGREE_BOUND", 2)
    x = env2.t_pow(env2.from_a({0: Fraction(1)}), 2)
    with pytest.raises(ResourceError):
        pseudo_product(env2, leaf_spread(env2, x), leaf_spread(env2, x))


# ---------------------------------------------------------------------------
# the oracle equality
# ---------------------------------------------------------------------------

def test_closed_form_spec_example(env2):
    # t = (x1x2)x3 on (e1, e1, e1)
    lc = node(B2, LEAF)
    args = [env2.basis_a(0)] * 3
    f = closed_form_eval(env2, (lc, (1, 2, 3)), args)
    d = env2.A
    e1 = d.basis(0)
    x0 = d.rprod(d.rprod(e1, e1), e1)
    assert env2.eq(f.constant(), env2.from_a(x0))
    # T x_1 = (a|-b)|-c - (a-|b)-|c ; T x_2 = (a|-b)|-c - (a|-b)-|c
    x1 = env2.scale(f.coefficient((1, 0)), -1)
    x2 = env2.scale(f.coefficient((0, 1)), -1)
    t_x1 = env2.t_act(x1)
    want1 = difference(x0, d.lprod(d.lprod(e1, e1), e1))
    assert env2.eq(t_x1, env2.from_a(want1))
    t_x2 = env2.t_act(x2)
    want2 = difference(x0, d.lprod(d.rprod(e1, e1), e1))
    assert env2.eq(t_x2, env2.from_a(want2))


def test_oracle_equality_small_sweep(env2):
    for n in range(1, 4):
        for shape in all_shapes(n):
            for sigma in symmetric_group(n):
                for idx in itertools.product(range(2), repeat=n):
                    args = [env2.basis_a(i) for i in idx]
                    a = eval_term(env2, (shape, sigma), args)
                    b = closed_form_eval(env2, (shape, sigma), args)
                    assert a.eq(b)


def test_oracle_equality_one_pair_sweep(env2):
    rng = random.Random(19)
    for n in range(1, 4):
        for shape in all_shapes(n):
            for sigma in symmetric_group(n):
                for slot in range(1, n + 1):
                    pr = rng.choice(env2.c1_basis)
                    idx = tuple(rng.randrange(2) for _ in range(n - 1))
                    args, it = [], iter(idx)
                    for pos in range(1, n + 1):
                        args.append(env2.pair(*pr) if pos == slot else env2.basis_a(next(it)))
                    assert eval_term(env2, (shape, sigma), args).eq(
                        closed_form_eval(env2, (shape, sigma), args))


@pytest.mark.parametrize("name", ["sl2", "bar-unit"])
def test_word_values_match_section_labelings(name):
    # the one fold gives, at index p - 1, the word labeled toward leaf p; one
    # table holds every shape of the degree, so a subword read under another
    # shape's key shows
    env = build_envelope(dict(corpus())[name])
    a = env.A
    for n in range(1, 6):
        table: dict = {}
        for shape, idx in itertools.product(all_shapes(n),
                                            itertools.product(range(a.dim), repeat=n)):
            vs = [a.basis(i) for i in idx]
            values = _word_values(env, shape, idx, table)
            assert len(values) == n
            for p in range(1, n + 1):
                want = eval_shape_tree(section_dishape(shape, p), vs, (a.lprod, a.rprod))
                assert values[p - 1] == want, (shape.key, idx, p)
            assert eval_shape_tree(shape, vs, (a.rprod,)) == values[-1]


def _forbid(*_args, **_kwargs):
    raise AssertionError("the closed forms called the recursive evaluator")


def test_closed_forms_never_reach_the_recursive_evaluator(monkeypatch):
    # the closed forms are the oracle for eval_term; a speed-up must not
    # route them through the evaluator they check
    envs = [build_envelope(a) for _name, a in corpus()]
    cases = []
    for env in envs:
        d = env.A.dim
        for n in range(1, 4):
            for shape in all_shapes(n):
                for perm in symmetric_group(n):
                    for idx in itertools.product(range(d), repeat=n):
                        cases.append((env, (shape, perm), [env.basis_a(i) for i in idx]))
                    for slot, pr in itertools.product(range(1, n + 1), env.c1_basis):
                        args = [env.pair(*pr) if pos == slot else env.basis_a((pos + pr[0]) % d)
                                for pos in range(1, n + 1)]
                        cases.append((env, (shape, perm), args))
    with monkeypatch.context() as mp:
        for mod in [m for k, m in sys.modules.items() if k.startswith("divaria")]:
            for fn in ("eval_term", "_eval_plain", "pseudo_product"):
                if hasattr(mod, fn):
                    mp.setattr(mod, fn, _forbid)
        mp.setattr(EnvelopePA, "base_product", _forbid)
        env, word, args = cases[0]
        with pytest.raises(AssertionError):
            eval_term(env, word, args)
        closed = [closed_form_eval(env, word, args) for env, word, args in cases]
    for (env, word, args), value in zip(cases, closed):
        assert eval_term(env, word, args).eq(value)


def _forbid_table(*_key):
    raise AssertionError("the closed forms read a normalization table")


def test_closed_forms_never_read_the_normalization_tables(monkeypatch):
    # the tables of pseudo feed the recursive side only
    cases = []
    for _name, a in corpus():
        env = build_envelope(a)
        d = env.A.dim
        for n in range(1, 4):
            for word in itertools.product(all_shapes(n), symmetric_group(n)):
                for idx in itertools.product(range(d), repeat=n):
                    cases.append((env, word, [env.basis_a(i) for i in idx]))
                for slot, pr in itertools.product(range(1, n + 1), env.c1_basis):
                    args = [env.pair(*pr) if pos == slot else env.basis_a((pos + pr[1]) % d)
                            for pos in range(1, n + 1)]
                    cases.append((env, word, args))
    with monkeypatch.context() as mp:
        mp.setattr(pseudo, "_product_table", _forbid_table)
        mp.setattr(pseudo, "_slot_table", _forbid_table)
        env = build_envelope(leibniz_to_dialgebra(leibniz2()))
        with pytest.raises(AssertionError):
            eval_term(env, (B2, (2, 1)), [env.basis_a(0), env.basis_a(1)])
        closed = [closed_form_eval(env, word, args) for env, word, args in cases]
    for (env, word, args), value in zip(cases, closed):
        assert eval_term(env, word, args).eq(value)


# ---------------------------------------------------------------------------
# the per-shape tables of the two evaluators
# ---------------------------------------------------------------------------

def _word_arguments(env, n: int) -> list:
    """Every basis tuple of length n, then every one-pair tuple: each tensor
    generator of the c1 basis in each slot, each basis tuple in the others."""
    d = env.A.dim
    out = [[env.basis_a(i) for i in idx] for idx in itertools.product(range(d), repeat=n)]
    for slot, pr, idx in itertools.product(range(n), env.c1_basis,
                                           itertools.product(range(d), repeat=n - 1)):
        out.append([env.basis_a(i) for i in idx[:slot]] + [env.pair(*pr)]
                   + [env.basis_a(i) for i in idx[slot:]])
    return out


def _unshared(x: CElement) -> CElement:
    return CElement(dict(x.c0), dict(x.c1))


def _basis_keys(env, keys: tuple) -> list:
    """The closed table's keys for the plain word on keys: the keys
    themselves if all are basis indices, else one key per basis index in
    the support of T.x, put in place of the pair x."""
    at = [i for i, k in enumerate(keys) if type(k) is tuple]
    if not at:
        return [keys]
    t_image = env.t_act(env.pair(*keys[at[0]])).c0
    return [keys[:at[0]] + (k,) + keys[at[0] + 1:] for _deg, k in t_image]


def test_kept_values_equal_fresh_evaluation():
    # with the tables warm, every word of degree <= 3 on every basis tuple and
    # every one-pair tuple gives the value of a fresh evaluation, on both
    # sides; a one-pair word reads the closed table under basis keys only
    env = build_envelope(dict(corpus())["leibniz3"])
    fold = (functools.partial(pseudo_product, env),)
    for n in range(1, 4):
        for shape in all_shapes(n):
            for k, perm in enumerate(symmetric_group(n)):
                for args in _word_arguments(env, n):
                    permuted = [args[s - 1] for s in perm]
                    if k:  # the first permutation filled both tables
                        keys = tuple(map(env.leaf_key, permuted))
                        assert (shape, keys) in env._plain[1]
                        assert all((shape, basis) in env._closed[1]
                                   for basis in _basis_keys(env, keys))
                    value = eval_term(env, (shape, perm), args)
                    fresh = eval_shape_tree(shape, [leaf_spread(env, x) for x in permuted], fold)
                    assert value.eq(act_spread(env, fresh, perm))
                    closed = closed_form_eval(env, (shape, perm), args)
                    assert closed.eq(closed_form_eval(env, (shape, perm), list(map(_unshared, args))))
                    assert closed.eq(value)
            assert all(_basis_only(keys) for _sub, keys in env._closed[1]), shape


def test_shared_basis_paths_equal_the_unshared_ones():
    # shared basis elements take the direct closed path and eval_term's
    # table for the shape; equal unshared copies take the multilinear
    # expansion and a table for the call alone
    for _name, a in corpus():
        env = build_envelope(a)
        for n in range(1, 4):
            for word in itertools.product(all_shapes(n), symmetric_group(n)):
                for idx in itertools.product(range(a.dim), repeat=n):
                    shared = [env.basis_a(i) for i in idx]
                    copies = [env.from_a({i: 1}) for i in idx]
                    assert closed_form_eval(env, word, shared).eq(
                        closed_form_eval(env, word, copies)), (word, idx)
                    assert eval_term(env, word, shared).eq(
                        eval_term(env, word, list(map(_unshared, shared)))), (word, idx)


def test_subwords_of_two_shapes_on_the_same_keys_stay_apart():
    # both halves of ((x1 x2) x3)(x4 (x5 x6)) on (e, f, f, e, f, f) have the
    # leaf keys (0, 1, 1); on sl2 the word changes if one half reads the other's value
    env = build_envelope(dict(corpus())["sl2"])
    left, right = node(B2, LEAF), node(LEAF, B2)
    word, args = (node(left, right), tuple(range(1, 7))), [env.basis_a(i) for i in (0, 1, 1)] * 2
    halves = [eval_term(env, (half, (1, 2, 3)), args[:3]) for half in (left, right)]
    value = pseudo_product(env, *halves)
    assert not value.eq(pseudo_product(env, halves[0], halves[0]))
    assert eval_term(env, word, args).eq(value)
    assert closed_form_eval(env, word, args).eq(value)


class _WrongHits(dict):
    """A per-shape table whose hits on the chosen leaf keys come back wrong."""

    def __init__(self, wrong, chosen):
        super().__init__()
        self.wrong, self.chosen = wrong, chosen

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None or not self.chosen(key[1]):
            return value
        return self.wrong(key[0], value)


TABLES = {"_plain": "_shape_table", "_closed": "_closed_table"}  # attribute: its function


def _with_wrong_hits(module, attr: str, wrong, chosen):
    """module's table function for the attribute attr, making each new
    table a _WrongHits."""
    real = getattr(module, TABLES[attr])

    def table(owner, shape):
        values = real(owner, shape)
        if type(values) is dict:
            values = _WrongHits(functools.partial(wrong, owner), chosen)
            setattr(owner, attr, (shape, values))
        return values
    return table


def _plus(x: dict, y: dict) -> dict:
    out = dict(x)
    vec_axpy(out, 1, y)
    return out


def _wrong_terms(env, shape, terms):
    """The spread terms with e1 added to the constant term."""
    zero = (0,) * (shape.arity - 1)
    return {**terms, zero: env.add(terms.get(zero, env.zero()), env.basis_a(0))}


def _wrong_closed(env, _shape, value):
    """e1 added to the _word_values or to the plain x0."""
    if isinstance(value, list):
        return [_plus(v, {0: 1}) for v in value]
    return _plus(value[0], {0: 1}), value[1]


def _wrong_t_coefficients(env, shape, value):
    """A pair added to every T-coefficient of a plain closed form; the
    _word_values and the plain x0 are kept."""
    if isinstance(value, list):
        return value
    zs, pair = value[1], {env.c1_basis[0]: 1}
    return value[0], {j: _plus(zs.get(j, {}), pair) for j in range(1, shape.arity)}


def _basis_only(keys) -> bool:
    return all(type(k) is int for k in keys)


def _holds_a_pair(keys) -> bool:
    return not _basis_only(keys)


WRONG_HITS = {  # attribute: (module, [(wrong value, chosen keys, mismatch kind)])
    "_plain": (pseudo, [(_wrong_terms, _basis_only, "word "),
                        (_wrong_terms, _holds_a_pair, "one-pair word ")]),
    # a one-pair word reads the plain closed forms on basis keys, at T-coefficients alone
    "_closed": (envelope, [(_wrong_closed, _basis_only, "word "),
                           (_wrong_t_coefficients, _basis_only, "one-pair word ")]),
}


@pytest.mark.parametrize("attr", ["_plain", "_closed"])
def test_wrong_table_value_is_a_mismatch(monkeypatch, attr):
    # the sweep compares what the tables hand back, so a wrong kept value of a
    # basis-only subword or of a one-pair subword shows, on either side
    module, cases = WRONG_HITS[attr]

    def sweep():
        env = build_envelope(dict(corpus())["leibniz2"])
        return oracle_sweep(env, 3, lambda n: [(env.c1_basis[0], (0,) * (n - 1))])
    assert sweep() == (None, 2 + 8 + 2 * 6 * 8 + 1 + 2 * 2 + 12 * 3)
    for wrong, chosen, kind in cases:
        with monkeypatch.context() as mp:
            mp.setattr(module, TABLES[attr], _with_wrong_hits(module, attr, wrong, chosen))
            bad, _checked = sweep()
        assert bad is not None and bad.startswith(kind), (wrong.__name__, chosen.__name__, bad)


def _off_at_arity_3(holds_a_pair):
    """closed_form_eval with e1 added to the value of every word of arity 3
    whose arguments hold a pair (or, with holds_a_pair false, do not)."""
    def closed(env, word, args):
        value = closed_form_eval(env, word, args)
        if word[0].arity != 3 or any(type(x) is PairElement for x in args) != holds_a_pair:
            return value
        return Spread(env, 3, {**value.terms, (0, 0): env.add(value.constant(), env.basis_a(0))})
    return closed


def test_mismatch_messages_print_the_flat_preorder_key(monkeypatch):
    env = build_envelope(dict(corpus())["leibniz2"])
    want = {False: "word (0, 0, 1, 1, 1) perm (1, 2, 3) tuple (0, 0, 0)",
            True: "one-pair word (0, 0, 1, 1, 1) perm (1, 2, 3) slot 1"}
    for holds_a_pair, message in want.items():
        monkeypatch.setattr(envelope, "closed_form_eval", _off_at_arity_3(holds_a_pair))
        bad, _checked = oracle_sweep(env, 3, lambda n: [(env.c1_basis[0], (0,) * (n - 1))])
        assert bad == message


def _subtrees(shape) -> set:
    if shape.is_leaf:
        return {shape}
    return {shape} | _subtrees(shape.left) | _subtrees(shape.right)


def test_tables_hold_one_shape_after_a_sweep():
    env = build_envelope(dict(corpus())["leibniz2"])
    d = env.A.dim
    rng = random.Random(3)
    bad, _checked = oracle_sweep(env, 4, lambda n: [(rng.choice(env.c1_basis),
                                                     tuple(rng.randrange(d) for _ in range(n - 1)))])
    assert bad is None
    last = all_shapes(4)[-1]
    generators = set(range(d)) | set(env.c1_basis)
    for attr in ("_plain", "_closed"):
        shape, values = getattr(env, attr)
        assert shape is last
        assert values, attr
        for sub, keys in values:
            assert sub in _subtrees(last) and len(keys) == sub.arity, (attr, sub, keys)
            assert set(keys) <= generators and sum(type(k) is tuple for k in keys) <= 1
    # the recursive side keeps one-pair subwords; the closed side keeps basis keys only
    assert any(not _basis_only(keys) for _sub, keys in env._plain[1])
    assert all(_basis_only(keys) for _sub, keys in env._closed[1])


def test_tensor_and_current_arguments_bypass_the_tables(env2):
    d = env2.A.dim
    for i in range(d):
        assert env2.leaf_key(env2.basis_a(i)) == i
    for pr in itertools.product(range(d), repeat=2):
        assert env2.leaf_key(env2.pair(*pr)) == pr
    e0, e1 = env2.basis_a(0), env2.basis_a(1)
    other = build_envelope(env2.A)
    unkeyed = [env2.t_act(e0), env2.scale(e0, 2), env2.zero(), env2.add(e0, e1),
               _unshared(e0), _unshared(env2.pair(0, 0)), other.pair(0, 0)]
    for x in unkeyed:
        assert env2.leaf_key(x) is None, x
    word = (B2, (2, 1))
    env = build_envelope(env2.A)  # shared pairs use the tables
    args = [env.pair(0, 0), env.basis_a(0)]
    assert eval_term(env, word, args).eq(closed_form_eval(env, word, args))
    assert env._plain[0] is B2 and env._closed[0] is B2
    # other arguments bypass the recursive side's table; the closed side reads
    # them by content, into its one table under basis indices
    env = build_envelope(env2.A)
    e0, e1 = env.basis_a(0), env.basis_a(1)
    unshared = [env.scale(e0, 2), env.zero(), env.add(e0, e1), _unshared(e0),
                _unshared(env.pair(0, 0))]
    for x in unshared + [env.scale(x, Fraction(1, 2)) for x in unshared]:
        args = [x, e1]
        assert eval_term(env, word, args).eq(closed_form_eval(env, word, args)), x
    eval_term(env, word, [env.t_act(e0), e1])
    assert getattr(env, "_plain", None) is None
    assert env._closed[0] is B2 and env._closed[1]
    assert all(type(keys) is tuple and _basis_only(keys) for _sub, keys in env._closed[1])
    cur = CurrentPA(2)
    gens = [g for _, g in cur.generators()]
    eval_term(cur, word, gens[:2])
    assert getattr(cur, "_plain", None) is None


def test_per_word_sweep_leaves_no_cyclic_garbage():
    # the tables keep terms, lists and dicts: nothing in them refers back to
    # the envelope, so a dropped envelope is freed by reference counting
    a = dict(corpus())["leibniz2"]
    rng = random.Random(5)
    env = build_envelope(a)
    pairs = env.c1_basis
    gc.collect()
    gc.disable()
    try:
        bad, _checked = oracle_sweep(env, 4, lambda n: [(rng.choice(pairs),
                                                         tuple(rng.randrange(a.dim) for _ in range(n - 1)))])
        assert bad is None
        assert env._plain and env._closed
        del env
        assert gc.collect() == 0
    finally:
        gc.enable()


def _integral_fractions(elem: CElement) -> int:
    return sum(type(c) is Fraction and c.denominator == 1
               for c in (*elem.c0.values(), *elem.c1.values()))


def test_bar_unit_products_hold_no_integral_fraction():
    # bar-unit is the one corpus member whose relations hold a Fraction; its
    # envelope turns the integral Fractions that reduction makes into int,
    # and the products keep their values
    envs = {name: build_envelope(a) for name, a in corpus()}
    assert [name for name, env in envs.items() if env._reduce != env.rel.reduce] == ["bar-unit"]
    env = envs["bar-unit"]
    kept = build_envelope(env.A)
    kept._reduce = kept.rel.reduce  # the reduction as it was, unsettled
    kept._pairs = {p: PairElement(p, kept.rel.reduce({p: 1})) for p in kept._pairs}
    gens = [g for _name, g in env.generators()]
    xs = gens + [env.t_act(g) for g in gens]
    unsettled = 0
    for x, y in itertools.product(xs, repeat=2):
        got, want = env.base_product(x, y), kept.base_product(x, y)
        assert [(p, q) for p, q, _e in got] == [(p, q) for p, q, _e in want]
        assert all(env.eq(e, f) for (_p, _q, e), (_r, _s, f) in zip(got, want))
        assert not any(_integral_fractions(e) for _p, _q, e in got)
        unsettled += sum(_integral_fractions(e) for _p, _q, e in want)
        assert product(env, x, y).eq(product(kept, x, y))
    assert unsettled  # without the settling, reduction leaves integral Fractions
    for pr, x in env._pairs.items():
        assert x.c1 == kept.pair(*pr).c1 and not _integral_fractions(x)


def test_closed_form_rejects_mixed_arguments(env2):
    mixed = env2.add(env2.basis_a(0), env2.pair(0, 0))
    t_power = env2.t_act(env2.basis_a(0))
    for x in (mixed, t_power):
        for args in ([x, env2.basis_a(0)], [x, env2.pair(0, 0)], [env2.pair(0, 1), x]):
            with pytest.raises(InputError, match="pure A or pure tensor arguments only"):
                closed_form_eval(env2, (B2, (1, 2)), args)


def _multi_pair_tuples(env, n: int):
    """Every tuple of n generators with two or more tensor generators of
    the c1 basis, the other slots on A basis elements."""
    gens = [env.basis_a(i) for i in range(env.A.dim)] + [env.pair(*pr) for pr in env.c1_basis]
    for args in itertools.product(gens, repeat=n):
        if sum(type(x) is PairElement for x in args) >= 2:
            yield args


def test_evaluators_agree_on_tuples_of_two_or_more_pairs():
    # the lemma of closed_form_eval makes these values 0: every tuple of arity
    # <= 4 with two, three or four pairs is compared on one word, the words
    # taken in turn
    for name, a in corpus():
        env = build_envelope(a)
        for n in (2, 3, 4):
            words = list(itertools.product(all_shapes(n), symmetric_group(n)))
            tuples = list(_multi_pair_tuples(env, n))
            for w, word in enumerate(words):  # word-major, so the tables stay warm
                for args in tuples[w::len(words)]:
                    value = eval_term(env, word, args)
                    assert value.eq(closed_form_eval(env, word, args)), (name, word, args)
                    assert value.is_zero(), (name, word, args)


ZERO_PAIRS = {"leibniz2": [(1, 1)], "leibniz3": [(1, 1), (1, 2), (2, 1), (2, 2)]}


@pytest.mark.parametrize("name", sorted(ZERO_PAIRS))
def test_evaluators_agree_with_a_zero_shared_pair_in_any_slot(name):
    # a shared pair that reduces to 0 is the zero element, not a tensor-part
    # argument: every word of arity <= 3 with one in some slot, every shared
    # generator in the others, is 0 on both sides, and a one-slot word has no
    # term at all
    env = build_envelope(dict(corpus())[name])
    pairs = list(itertools.product(range(env.A.dim), repeat=2))
    assert [pr for pr in pairs if not env.pair(*pr).c1] == ZERO_PAIRS[name]
    zeros = [env.pair(*pr) for pr in ZERO_PAIRS[name]]
    gens = [env.basis_a(i) for i in range(env.A.dim)] + [env.pair(*pr) for pr in pairs]
    for n in (1, 2, 3):
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for slot, zero, rest in itertools.product(range(n), zeros,
                                                      itertools.product(gens, repeat=n - 1)):
                args = list(rest[:slot]) + [zero] + list(rest[slot:])
                value = eval_term(env, word, args)
                assert value.is_zero(), (word, args)
                assert value.eq(closed_form_eval(env, word, args)), (word, args)


def test_d_form_matches_substitution_formula(env2):
    # T x = value of t with a product plugged at the pair slot, at e_{i+1}-e_i
    lc = node(B2, LEAF)
    d = env2.A
    for slot in (1, 2, 3):
        for pr in env2.c1_basis:
            args = []
            others = iter([0, 1])
            for pos in (1, 2, 3):
                args.append(env2.pair(*pr) if pos == slot else env2.basis_a(next(others)))
            spread = closed_form_eval(env2, (lc, (1, 2, 3)), args)
            assert set(spread.terms) <= {(0, 0)}
            x = spread.constant()
            # substitute x_slot x_{slot+1} into the word, evaluate at e_{slot+1}-e_slot
            f = parse_expression({
                1: "((x1*x2)*x3)*x4",
                2: "(x1*(x2*x3))*x4",
                3: "(x1*x2)*(x3*x4)",
            }[slot])
            flat = []
            others = iter([0, 1])
            for pos in (1, 2, 3):
                if pos == slot:
                    flat.extend([d.basis(pr[0]), d.basis(pr[1])])
                else:
                    flat.append(d.basis(next(others)))
            from divaria.translate import psi_section
            hi = psi_section(TensorPoly(4, {(s, p, slot + 1): c for (s, p), c in f.terms.items()}))
            lo = psi_section(TensorPoly(4, {(s, p, slot): c for (s, p), c in f.terms.items()}))
            want = difference(eval_poly(d, hi, flat), eval_poly(d, lo, flat))
            assert env2.eq(env2.t_act(x), env2.from_a(want))


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def test_shared_basis_elements_never_change():
    # a sweep hands the same basis elements to both evaluators and their tables
    rng = random.Random(13)
    for name, a in corpus():
        env = build_envelope(a)
        d = a.dim
        shared = [env.basis_a(i) for i in range(d)]

        def one_pair(n):
            return [(rng.choice(env.c1_basis), tuple(rng.randrange(d) for _ in range(n - 1)))]
        assert oracle_sweep(env, 3, one_pair)[0] is None, name
        for i, e in enumerate(shared):
            assert env.basis_a(i) is e
            fresh = CElement({(0, i): 1}, {})
            assert (e.c0, e.c1) == (fresh.c0, fresh.c1), (name, i)
            assert e.index == i, (name, i)


def _scan(x):
    """x's A-vector, or None if x is not in A, read off its coordinates."""
    if x.c1 or any(k for k, _i in x.c0):
        return None
    return {i: v for (_k, i), v in x.c0.items()}


@pytest.mark.parametrize("name", ["leibniz2", "bar-unit"])
def test_stored_classification_agrees_with_the_scan(name):
    env = build_envelope(dict(corpus())[name])
    d = env.A.dim
    pairs = list(itertools.product(range(d), repeat=2))
    shared = [env.basis_a(i) for i in range(d)] + [env.pair(*pr) for pr in pairs]
    fresh = list(map(_unshared, shared))
    assert [type(x) for x in shared] == [BasisElement] * d + [PairElement] * d * d
    for x, key in zip(shared, list(range(d)) + pairs):
        assert env.leaf_key(x) == key
        if type(key) is int:
            assert (x.c0, x.c1) == ({(0, key): 1}, {}), x
        else:
            assert (x.c0, x.c1) == ({}, env.rel.reduce({key: 1})), x
    others = [env.from_a({i: 1}) for i in range(d)] + [env.zero()]
    for i, j in pairs:
        e, f = shared[i], shared[j]
        others += [env.scale(e, 2), env.add(e, f), env.t_act(e), env.add(e, env.pair(i, j)),
                   env.add(e, env.scale(f, Fraction(1, 2))), env.scale(env.pair(i, j), 2)]
    assert all(env.leaf_key(x) is None for x in fresh + others)
    # the closed forms classify each argument as its scan does: on the A-vector
    # it scans to, on its tensor part, or refused
    word = (B2, (2, 1))
    for x, e in itertools.product(shared + fresh + others, shared[:d]):
        scanned = _scan(x)
        if scanned is None and x.c0:
            with pytest.raises(InputError, match="pure A or pure tensor arguments only"):
                closed_form_eval(env, word, [x, e])
            continue
        like = env.from_a(scanned) if scanned is not None else CElement({}, dict(x.c1))
        assert closed_form_eval(env, word, [x, e]).eq(closed_form_eval(env, word, [like, e])), x
    # interleaved on one envelope, so a wrong stored key reads a wrong table entry
    for n in range(1, 4):
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for args in _word_arguments(env, n):
                values = [f(env, word, pool) for pool in (args, list(map(_unshared, args)))
                          for f in (eval_term, closed_form_eval)]
                assert all(values[0].eq(v) for v in values[1:]), (word, args)


def test_generators_are_shared_and_keyed():
    for name, a in corpus():
        env = build_envelope(a)
        pairs = list(itertools.product(range(a.dim), repeat=2))
        assert all(env.pair(*pr) is env.pair(*pr) for pr in pairs), name
        gens = [env.basis_a(i) for i in range(a.dim)] + [env.pair(*pr) for pr in pairs]
        again = [g for _name, g in env.generators()] + [env.pair(*pr) for pr in reversed(pairs)]
        keys = [env.leaf_key(x) for x in gens]
        assert None not in keys and len(set(keys)) == len(gens), name
        for x, y in itertools.product(gens, again):
            if env.leaf_key(x) == env.leaf_key(y):
                assert env.eq(x, y), (name, x, y)


def test_pairs_keep_their_reduced_value():
    # a sweep, a quotient and two extensions read the shared pairs; none changes one
    env = build_envelope(leibniz_to_dialgebra(leibniz2()))
    rng = random.Random(17)

    def one_pair(n):
        return [(rng.choice(env.c1_basis), tuple(rng.randrange(2) for _ in range(n - 1)))]
    assert oracle_sweep(env, 4, one_pair)[0] is None
    q = build_var_quotient(env, LIE).quotient
    rep = build_rho(leibniz2())
    assert all(extend_hom(q, rep.rho, rep.cur_lie).checks.values())
    assert all(extend_hom(q, [q.basis_a(0), q.basis_a(1)], q).checks.values())
    for e in (env, q):
        for pr in itertools.product(range(2), repeat=2):
            x = e.pair(*pr)
            assert (x.key, x.c0, x.c1) == (pr, {}, e.rel.reduce({pr: 1}))


# ---------------------------------------------------------------------------
# n-products and the coefficient dialgebra
# ---------------------------------------------------------------------------

def test_n_products(env2):
    e1 = env2.basis_a(0)
    assert env2.eq(product(env2, e1, e1).coefficient((0,)), env2.basis_a(1))
    assert env2.eq(product(env2, e1, e1).coefficient((1,)), env2.scale(env2.pair(0, 0), -1))
    assert env2.is_zero(product(env2, e1, e1).coefficient((5,)))


def test_n_product_shift_relations(env2):
    rng = random.Random(23)
    for _ in range(40):
        x = env2.t_pow(env2.from_a(a_vec(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))),
                       rng.randint(0, 1))
        y = env2.from_a(a_vec(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))))
        xy = product(env2, x, y)
        for n in range(4):
            lhs = product(env2, env2.t_act(x), y).coefficient((n,))
            rhs = xy.coefficient((n - 1,)) if n else env2.zero()
            assert env2.eq(lhs, rhs)
            lhs = product(env2, x, env2.t_act(y)).coefficient((n,))
            rhs = env2.add(env2.t_act(xy.coefficient((n,))),
                           env2.scale(xy.coefficient((n - 1,)) if n else env2.zero(), -1))
            assert env2.eq(lhs, rhs)


def test_coefficient_dialgebra_recovers_a(env2):
    d = env2.A
    for i in range(2):
        for j in range(2):
            assert env2.eq(env2.rprod(env2.basis_a(i), env2.basis_a(j)),
                           env2.from_a(d.rprod(d.basis(i), d.basis(j))))
            assert env2.eq(env2.lprod(env2.basis_a(i), env2.basis_a(j)),
                           env2.from_a(d.lprod(d.basis(i), d.basis(j))))


def test_coefficient_dialgebra_is_zero_dialgebra(env2):
    from divaria.translate import zero_dialgebra_axioms
    cd = CoefficientDialgebra(env2)
    gens = [g for _, g in env2.generators()]
    for ax in zero_dialgebra_axioms():
        for combo in itertools.product(gens, repeat=3):
            assert env2.is_zero(cd.eval_dipoly(ax, list(combo)))


def test_epsilon_examples(env2):
    e1 = env2.basis_a(0)
    # arity 1 is the identity
    assert env2.eq(epsilon_eval(env2, (LEAF, (1,), 1), [e1]), e1)
    assert env2.eq(epsilon_eval(env2, (B2, (1, 2), 2), [e1, e1]), env2.rprod(e1, e1))
    assert env2.eq(epsilon_eval(env2, (B2, (1, 2), 1), [e1, e1]), env2.lprod(e1, e1))


def test_epsilon_after_psi_is_coefficient_evaluation(env2):
    cd = CoefficientDialgebra(env2)
    gens = [g for _, g in env2.generators()]
    rng = random.Random(29)
    for n in (2, 3, 4):
        for _ in range(40):
            mono = (rng.choice(all_dishapes(n)), random_perm(n, rng))
            f = DiPoly.monomial(*mono)
            args = [rng.choice(gens) for _ in range(n)]
            assert env2.eq(cd.eval_dipoly(f, args), epsilon_eval(env2, psi(f), args))


# ---------------------------------------------------------------------------
# variety quotient and homomorphism extension
# ---------------------------------------------------------------------------

def test_var_quotient_empty_sigma(env2):
    vq = build_var_quotient(env2, IdentitySet("none", ()))
    assert vq.ideal.rank == 0
    assert vq.quotient.c1_basis == env2.c1_basis


def test_var_quotient_lie(env2):
    vq = build_var_quotient(env2, LIE)
    assert vq.ideal.rank == 1
    assert len(vq.quotient.c1_basis) == 2
    assert check_var_pseudo(env2, LIE) is not None      # raw envelope fails
    assert check_var_pseudo(vq.quotient, LIE) is None   # quotient passes
    # identities evaluate to zero spreads on basis tuples, re-verified recursively
    for t in LIE:
        for idx in itertools.product(range(2), repeat=t.arity):
            args = [vq.quotient.basis_a(i) for i in idx]
            assert poly_value(eval_term, vq.quotient, t, args).is_zero()


def test_var_quotient_requires_variety_membership():
    d = leibniz_to_dialgebra(leibniz2())
    env = build_envelope(d)
    jordan = builtin_identity_set("jordan")
    with pytest.raises(InputError):
        build_var_quotient(env, jordan)  # the bracket is not di-commutative


def test_check_var_pseudo_on_current_matrices():
    from divaria.current import CurrentPA
    cur = CurrentPA(2)
    assoc = builtin_identity_set("associative")
    assert check_var_pseudo(cur, assoc) is None


def test_extend_hom_identity(env2):
    vq = build_var_quotient(env2, LIE)
    q = vq.quotient
    hom = extend_hom(q, [q.basis_a(0), q.basis_a(1)], q)
    for _, g in q.generators():
        assert q.eq(hom.apply(g), g)
    assert hom.checks["preserves-products"]


def test_extend_hom_degree_gate(env2):
    class FatDegree(EnvelopePA):
        def base_product(self, x, y):
            out = super().base_product(x, y)
            return [(p + 2, q, e) for p, q, e in out]  # push slot-1 degree past 1

    fat = FatDegree(env2.A)
    with pytest.raises(InputError):
        extend_hom(fat, [fat.basis_a(0), fat.basis_a(1)], fat)


def test_extend_hom_refuses_the_quotient_into_the_envelope(env2):
    # the identity of A does not extend from the Lie quotient to the envelope it quotients
    q = build_var_quotient(env2, LIE).quotient
    with pytest.raises(InputError) as err:
        extend_hom(q, [env2.basis_a(0), env2.basis_a(1)], env2)
    assert str(err.value) == "relation subspace is not killed by the extension"


class DoubledT(CurrentPA):
    """T acts as 2T; the coefficient products, in closed form, do not read T."""

    def t_act(self, a):
        return super().t_act(self.scale(a, 2))


class DoubledConstantBlock(CurrentPA):
    """The product of the T-degree 0 blocks doubled: only the 0-products
    change, and the closed-form coefficient products do not read them."""

    def base_product(self, x, y):
        return [(k, l, self.scale(m, 2) if k == l == 0 else m)
                for k, l, m in super().base_product(x, y)]


@pytest.mark.parametrize("g,fault,message", [
    (leibniz2, DoubledT, "extension is not T-linear at generator [e1(x)e1]"),
    (sl2, DoubledConstantBlock, "products not preserved at (e, f)"),
], ids=["t-linear", "preserves-products"])
def test_extend_hom_refuses_a_faulted_target(g, fault, message):
    # sl2's Lie quotient has no pair generators, so T-linearity is checked on leibniz2
    q = build_var_quotient(build_envelope(leibniz_to_dialgebra(g())), LIE).quotient
    rep = build_rho(g())
    assert all(extend_hom(q, rep.rho, rep.cur_lie).checks.values())
    with pytest.raises(InputError) as err:
        extend_hom(q, rep.rho, fault(rep.cur_lie.dim, bracket=True))
    assert str(err.value) == message
