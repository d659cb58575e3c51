"""One-pair tuples: the value of a word of arity >= 2 is H-linear in its
tensor-part argument, which is why build_var_quotient spans its ideal from
basis tuples alone."""

import itertools
import random

import pytest

from divaria.envelope import (CElement, EnvelopePA, build_envelope, build_var_quotient,
                              closed_form_eval)
from divaria.pseudo import Spread, eval_term
from divaria.errors import InputError
from divaria.fd import corpus, is_var_dialgebra, leibniz_to_dialgebra
from divaria.linalg import RowSpace
from divaria.perms import symmetric_group
from divaria.varieties import BUILTIN, builtin_identity_set
from divaria.words import all_shapes
from support import gl, poly_value

CORPUS = dict(corpus())


def kernel_of_t(env: EnvelopePA) -> list:
    """A basis of the tensor-part vectors on c1_basis that T sends to 0.

    Each row is (T-image | pair coordinates); the RREF rows whose pivot is a
    pair coordinate have a zero image part."""
    space = RowSpace()
    for (i, j) in env.c1_basis:
        row = {(0, s): x for (_k, s), x in env.t_act(env.pair(i, j)).c0.items()}
        row[(1, i, j)] = 1
        space.add(row)
    return [{key[1:]: v for key, v in row.items()} for row in space.rows() if min(row)[0] == 1]


def one_pair_rows(env: EnvelopePA, sigma, pairs) -> RowSpace:
    """The span of the identity values with a pair of pairs in one slot and
    basis elements in the others."""
    rows = RowSpace()
    for t in sigma:
        n = t.arity
        for slot in range(n):
            for idx in itertools.product(range(env.A.dim), repeat=n - 1):
                for pr in pairs:
                    args = [env.basis_a(i) for i in idx]
                    args.insert(slot, env.pair(*pr))
                    for elem in poly_value(closed_form_eval, env, t, args).terms.values():
                        rows.add(dict(elem.c1))
    return rows


def full_ideal(env: EnvelopePA, sigma) -> RowSpace:
    """The ideal spanned with every pair of c1_basis in every one-pair slot."""
    a = env.A
    w = is_var_dialgebra(a, sigma)
    if w is not None:
        raise InputError(f"dialgebra fails the variety: {w.describe(a.labels)}")
    rows = one_pair_rows(env, sigma, env.c1_basis)
    for t in sigma:
        for idx in itertools.product(range(a.dim), repeat=t.arity):
            spread = poly_value(closed_form_eval, env, t, [env.basis_a(i) for i in idx])
            if not env.is_zero(spread.constant()):
                raise InputError(f"degree-zero part of {t} at basis tuple {idx} is nonzero; "
                                 f"the identity fails on A")
            for exps, elem in spread.terms.items():
                if any(exps):
                    rows.add(dict(elem.c1))
    return rows


CASES = [(name, v) for name in CORPUS for v in BUILTIN] + [("gl2", "lie")]


@pytest.mark.parametrize("name,variety", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_pruned_ideal_equals_full_enumeration(name, variety):
    a = leibniz_to_dialgebra(gl(2)) if name == "gl2" else CORPUS[name]
    sigma = builtin_identity_set(variety)
    env = build_envelope(a)
    try:
        want = full_ideal(env, sigma)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            build_var_quotient(env, sigma)
        assert str(got.value) == str(exc)
        return
    vq = build_var_quotient(env, sigma)
    assert vq.ideal == want
    assert vq.quotient.c1_basis == EnvelopePA(a, extra_relations=want.rows()).c1_basis


def basis_tuple_rows(env: EnvelopePA, sigma) -> RowSpace:
    """The span of the identity values on basis tuples at nonzero exponents."""
    rows = RowSpace()
    for t in sigma:
        for idx in itertools.product(range(env.A.dim), repeat=t.arity):
            args = [env.basis_a(i) for i in idx]
            for exps, elem in poly_value(closed_form_eval, env, t, args).terms.items():
                if any(exps):
                    rows.add(dict(elem.c1))
    return rows


@pytest.mark.parametrize("name,variety", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_independent_pairs_span_every_one_pair_row(name, variety):
    # the conclusion of the lemma of build_var_quotient: the basis-tuple rows
    # span the one-pair rows of every pair, also where A fails the variety
    a = leibniz_to_dialgebra(gl(2)) if name == "gl2" else CORPUS[name]
    sigma = builtin_identity_set(variety)
    env = build_envelope(a)
    assert one_pair_rows(env, sigma, env.c1_basis) <= basis_tuple_rows(env, sigma)


@pytest.mark.parametrize("evaluate", [eval_term, closed_form_eval], ids=["recursive", "closed"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_one_pair_values_are_h_linear(name, evaluate):
    # the lemma of build_var_quotient: with T.x in slot s instead of x,
    # v becomes T_s.v for s < n and -(T_1 + ... + T_{n-1}).v + T.const(v) for s = n
    env = build_envelope(CORPUS[name])
    rng = random.Random(5)
    d = env.A.dim
    for n in (2, 3, 4):
        zero = (0,) * (n - 1)
        units = [tuple(int(i == j) for i in range(n - 1)) for j in range(n - 1)]
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for slot in range(n):
                for pr in env.c1_basis:
                    x = env.pair(*pr)
                    rest = [env.basis_a(rng.randrange(d)) for _ in range(n - 1)]
                    v = evaluate(env, word, rest[:slot] + [x] + rest[slot:])
                    const = v.constant()
                    # concentrated in degree zero and in the tensor part
                    assert set(v.terms) <= {zero} and not const.c0, (word, slot, pr)
                    if slot < n - 1:
                        want = {units[slot]: const}
                    else:
                        want = {u: env.scale(const, -1) for u in units}
                        want[zero] = env.t_act(const)
                    got = evaluate(env, word, rest[:slot] + [env.t_act(x)] + rest[slot:])
                    assert got.eq(Spread(env, n, want)), (word, slot, pr)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_one_pair_values_depend_only_on_the_t_image(name):
    env = build_envelope(CORPUS[name])
    kernel = kernel_of_t(env)
    assert kernel
    rng = random.Random(7)
    d = env.A.dim
    for n in (2, 3, 4):
        for word in itertools.product(all_shapes(n), symmetric_group(n)):
            for slot in range(n):
                x = env.pair(*rng.choice(env.c1_basis))
                coeffs = [0] * len(kernel)
                while not any(coeffs):
                    coeffs = [rng.randint(-2, 2) for _ in kernel]
                y = x
                for c, vec in zip(coeffs, kernel):
                    y = env.add(y, env.scale(CElement({}, env.rel.reduce(vec)), c))
                assert env.is_zero(env.add(env.t_act(x), env.scale(env.t_act(y), -1)))
                assert y.c1 != x.c1
                rest = [env.basis_a(rng.randrange(d)) for _ in range(n - 1)]
                xs, ys = list(rest), list(rest)
                xs.insert(slot, x)
                ys.insert(slot, y)
                assert eval_term(env, word, xs).eq(eval_term(env, word, ys)), (word, slot)
                assert closed_form_eval(env, word, xs).eq(closed_form_eval(env, word, ys))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_closed_forms_of_identities_match_the_recursive_evaluator(name):
    # each evaluator takes a word: the identities are summed over their
    # monomials, on basis tuples and on one-pair tuples
    env = build_envelope(CORPUS[name])
    rng = random.Random(11)
    d = env.A.dim
    for variety in BUILTIN:
        for t in builtin_identity_set(variety):
            n = t.arity
            tuples = [[env.basis_a(i) for i in idx] for idx in itertools.product(range(d), repeat=n)]
            for slot, pr in itertools.product(range(n), env.c1_basis):
                args = [env.basis_a(rng.randrange(d)) for _ in range(n - 1)]
                args.insert(slot, env.pair(*pr))
                tuples.append(args)
            for args in tuples:
                closed = poly_value(closed_form_eval, env, t, args)
                assert closed.eq(poly_value(eval_term, env, t, args)), (variety, t)


def test_criterion_08_one_pair_draws_meet_nonzero_values():
    # criterion 08's one-pair draws, drawn in the order oracle_sweep asks for
    # them, counted per member where the value of a word of arity >= 2 is
    # nonzero (an arity-1 word returns the pair itself)
    rng = random.Random(88)
    nonzero, t_kills_pairs = {}, set()
    for name, d in corpus():
        env = build_envelope(d)
        assert env.c1_basis, name
        drawn = nonzero[name] = 0
        for n in range(1, 5):
            for word in itertools.product(all_shapes(n), symmetric_group(n)):
                for slot in range(n):
                    for _ in range(3):
                        pr = env.c1_basis[rng.randrange(len(env.c1_basis))]
                        args = [env.basis_a(rng.randrange(d.dim)) for _ in range(n - 1)]
                        args.insert(slot, env.pair(*pr))
                        drawn += 1
                        if n > 1 and not closed_form_eval(env, word, args).is_zero():
                            nonzero[name] += 1
        assert drawn == 1563, name
        if all(env.is_zero(env.t_act(env.pair(*pr))) for pr in env.c1_basis):
            t_kills_pairs.add(name)
    assert sum(nonzero.values()) > 0, nonzero
    # none on sl2, uppertri2-diag, dual-numbers-diag and abelian2: T kills every
    # pair there, so by the lemma of closed_form_eval every value is 0
    none = {name for name, count in nonzero.items() if not count}
    assert none == t_kills_pairs == {"sl2", "uppertri2-diag", "dual-numbers-diag", "abelian2"}
