import itertools
import random
import sys
from fractions import Fraction

import pytest

from divaria import envelope, pseudo
from divaria.envelope import (BasisElement, CElement, EnvelopePA, _word_values,
                              build_envelope, build_var_quotient, closed_form_eval, extend_hom,
                              oracle_sweep)
from divaria.pseudo import (CoefficientDialgebra, Spread, _eval_plain, act_spread,
                            check_var_pseudo, eval_term, leaf_spread, n_product, pseudo_product)
from divaria.errors import InputError, ResourceError
from divaria.fd import (abelian, corpus, diagonal_lift, dual_numbers, leibniz2,
                        leibniz_to_dialgebra)
from divaria.linalg import vec_axpy
from divaria.operads import IdentitySet
from divaria.perms import random_perm, symmetric_group
from divaria.varieties import builtin_identity_set
from divaria.words import (DiPoly, LEAF, TensorPoly, all_dishapes, all_shapes,
                           eval_shape_tree, node, section_dishape)
from support import epsilon_eval, eval_poly, parse_expression, psi

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
    from divaria.fd import FDDialgebra
    left = [[(1, 0), (0, 0)], [(0, 0), (0, 0)]]
    right = [[(0, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(InputError) as err:
        build_envelope(FDDialgebra(left, right))
    assert str(err.value) == ("not a zero-dialgebra: identity (x1-|x2)|-x3 - (x1|-x2)|-x3 "
                              "fails at (b2, b2, b2); defect ('0', '-1')")


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
        rhs = Spread(env2, 2)
        for e, v in base.terms.items():
            rhs = rhs.add(Spread(env2, 2, {e: env2.t_act(v)}))
            rhs = rhs.add(Spread(env2, 2, {(e[0] + 1,): env2.scale(v, -1)}))
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
    # the one fold gives, at index p - 1, the word labeled toward leaf p
    env = build_envelope(dict(corpus())[name])
    a = env.A
    rng = random.Random(7)
    for n in range(1, 6):
        for shape in all_shapes(n):
            vs = [a_vec(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a.dim)))
                  for _ in range(n)]
            values = _word_values(env, shape, vs)
            assert len(values) == n
            for p in range(1, n + 1):
                want = eval_shape_tree(section_dishape(shape, p), vs, None, (a.lprod, a.rprod))
                assert values[p - 1] == want, (shape.key, p)
            assert eval_shape_tree(shape, vs, a.rprod) == values[-1]


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

def test_kept_values_equal_fresh_evaluation():
    # with the tables warm, every word of degree <= 3 on every basis tuple
    # gives the value of a fresh evaluation, on both sides
    env = build_envelope(dict(corpus())["leibniz3"])
    d = env.A.dim
    for n in range(1, 4):
        for shape in all_shapes(n):
            for k, perm in enumerate(symmetric_group(n)):
                for idx in itertools.product(range(d), repeat=n):
                    args = [env.basis_a(i) for i in idx]
                    if k:  # the first permutation filled both tables
                        key = tuple(idx[s - 1] for s in perm)
                        assert key in env._plain[1] and key in env._closed[1]
                    value = eval_term(env, (shape, perm), args)
                    fresh = act_spread(env, _eval_plain(env, shape, [args[s - 1] for s in perm]), perm)
                    assert value.eq(fresh)
                    closed = closed_form_eval(env, (shape, perm), args)
                    kept, env._closed = env._closed, None  # evaluate through _plain_closed
                    assert closed.eq(closed_form_eval(env, (shape, perm), args))
                    env._closed = kept
                    assert closed.eq(value)


def _corrupt_hits(attr):
    """kept, except that a value of the table attr read back from it is wrong."""
    real = pseudo.kept

    def kept(owner, name, shape, key, compute):
        table = getattr(owner, name, None)
        hit = table is not None and table[0] == shape.key and key in table[1]
        value = real(owner, name, shape, key, compute)
        if name != attr or not hit:
            return value
        if attr == "_plain":  # add e1 to the constant term
            zero = (0,) * (shape.arity - 1)
            return {**value, zero: owner.add(value.get(zero, owner.zero()), owner.basis_a(0))}
        x0, xs = value
        x0 = dict(x0)
        vec_axpy(x0, 1, owner.A.basis(0))
        return x0, xs
    return kept


@pytest.mark.parametrize("attr", ["_plain", "_closed"])
def test_wrong_table_value_is_a_mismatch(monkeypatch, attr):
    # the sweep compares what the tables hand back, so a wrong kept value shows
    env = build_envelope(dict(corpus())["leibniz2"])
    assert oracle_sweep(env, 3, lambda n: []) == (None, 2 + 8 + 2 * 6 * 8)
    for module in (pseudo, envelope):  # eval_term's module and the closed forms'
        monkeypatch.setattr(module, "kept", _corrupt_hits(attr))
    env = build_envelope(dict(corpus())["leibniz2"])
    bad, _checked = oracle_sweep(env, 3, lambda n: [])
    assert bad is not None


def test_tables_hold_one_shape_after_a_sweep():
    env = build_envelope(dict(corpus())["leibniz2"])
    d = env.A.dim
    rng = random.Random(3)
    bad, _checked = oracle_sweep(env, 4, lambda n: [(rng.choice(env.c1_basis), (0,) * (n - 1))])
    assert bad is None
    last = all_shapes(4)[-1].key
    for attr in ("_plain", "_closed"):
        shape_key, values = getattr(env, attr)
        assert shape_key == last
        assert 0 < len(values) <= d ** 4
        assert all(len(key) == 4 and set(key) <= set(range(d)) for key in values)


def test_tensor_and_current_arguments_bypass_the_tables(env2):
    for i in range(env2.A.dim):
        assert env2.basis_index(env2.basis_a(i)) == i
    for x in (env2.pair(0, 0), env2.t_act(env2.basis_a(0)), env2.scale(env2.basis_a(0), 2),
              env2.zero(), env2.add(env2.basis_a(0), env2.basis_a(1))):
        assert env2.basis_index(x) is None
    env = build_envelope(env2.A)
    word = (B2, (2, 1))
    args = [env.pair(0, 0), env.basis_a(0)]
    assert eval_term(env, word, args).eq(closed_form_eval(env, word, args))
    assert getattr(env, "_plain", None) is None and getattr(env, "_closed", None) is None
    from divaria.current import CurrentPA
    cur = CurrentPA(2)
    gens = [g for _, g in cur.generators()]
    eval_term(cur, word, gens[:2])
    assert getattr(cur, "_plain", None) is None


def test_closed_form_rejects_mixed_arguments(env2):
    mixed = env2.add(env2.basis_a(0), env2.pair(0, 0))
    with pytest.raises(InputError):
        closed_form_eval(env2, (B2, (1, 2)), [mixed, env2.basis_a(0)])
    with pytest.raises(InputError):
        closed_form_eval(env2, (B2, (1, 2)), [env2.pair(0, 0), env2.pair(0, 1)])


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
# shared basis elements
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
            assert (e.index, e.avec) == (i, {i: 1}), (name, i)


def _scan(x):
    """(basis_index, a_part) of x, read off its coordinates."""
    if x.c1 or any(k for k, _i in x.c0):
        return None, None
    avec = {i: v for (_k, i), v in x.c0.items()}
    index = next(iter(avec)) if list(avec.values()) == [1] else None
    return index, (avec, index)


@pytest.mark.parametrize("name", ["leibniz2", "bar-unit"])
def test_stored_classification_agrees_with_the_scan(name):
    env = build_envelope(dict(corpus())[name])
    d = env.A.dim
    shared = [env.basis_a(i) for i in range(d)]
    fresh = [CElement({(0, i): 1}, {}) for i in range(d)]
    assert all(type(e) is BasisElement for e in shared)
    others = [env.from_a({i: 1}) for i in range(d)] + [env.zero()]
    for i, j in itertools.product(range(d), repeat=2):
        others += [env.scale(shared[i], 2), env.add(shared[i], shared[j]), env.t_act(shared[i]),
                   env.pair(i, j), env.add(shared[i], env.pair(i, j)),
                   env.add(shared[i], env.scale(shared[j], Fraction(1, 2)))]
    for x in shared + fresh + others:
        assert (env.basis_index(x), env.a_part(x)) == _scan(x), x
    # interleaved on one envelope, so a wrong stored index reads a wrong table entry
    for n in range(1, 4):
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for idx in itertools.product(range(d), repeat=n):
                values = [f(env, word, [pool[i] for i in idx]) for pool in (shared, fresh)
                          for f in (eval_term, closed_form_eval)]
                assert all(values[0].eq(v) for v in values[1:]), (word, idx)


# ---------------------------------------------------------------------------
# n-products and the coefficient dialgebra
# ---------------------------------------------------------------------------

def test_n_products(env2):
    e1 = env2.basis_a(0)
    assert env2.eq(n_product(env2, e1, e1, 0), env2.basis_a(1))
    assert env2.eq(n_product(env2, e1, e1, 1), env2.scale(env2.pair(0, 0), -1))
    assert env2.is_zero(n_product(env2, e1, e1, 5))


def test_n_product_shift_relations(env2):
    rng = random.Random(23)
    for _ in range(40):
        x = env2.t_pow(env2.from_a(a_vec(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))),
                       rng.randint(0, 1))
        y = env2.from_a(a_vec(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))))
        for n in range(4):
            lhs = n_product(env2, env2.t_act(x), y, n)
            rhs = n_product(env2, x, y, n - 1) if n else env2.zero()
            assert env2.eq(lhs, rhs)
            lhs = n_product(env2, x, env2.t_act(y), n)
            rhs = env2.add(env2.t_act(n_product(env2, x, y, n)),
                           env2.scale(n_product(env2, x, y, n - 1) if n else env2.zero(), -1))
            assert env2.eq(lhs, rhs)


def test_coefficient_dialgebra_recovers_a(env2):
    cd = CoefficientDialgebra(env2)
    d = env2.A
    for i in range(2):
        for j in range(2):
            assert env2.eq(cd.rprod(env2.basis_a(i), env2.basis_a(j)),
                           env2.from_a(d.rprod(d.basis(i), d.basis(j))))
            assert env2.eq(cd.lprod(env2.basis_a(i), env2.basis_a(j)),
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
    cd = CoefficientDialgebra(env2)
    assert env2.eq(epsilon_eval(env2, (B2, (1, 2), 2), [e1, e1]), cd.rprod(e1, e1))
    assert env2.eq(epsilon_eval(env2, (B2, (1, 2), 1), [e1, e1]), cd.lprod(e1, e1))


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
            assert eval_term(vq.quotient, t, args).is_zero()


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
