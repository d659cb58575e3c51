"""Invariants of the one element-vector type, linalg.Vec: a result never
stores a zero coordinate, no caller adds into a value that a per-shape
table keeps, and every tensor part of an envelope element is reduced
modulo the relations, which makes equality a dictionary comparison."""

import copy
import itertools
import random
from collections import Counter
from fractions import Fraction

from divaria.envelope import CElement, build_envelope, build_var_quotient, closed_form_eval
from divaria.fd import corpus, leibniz_to_dialgebra
from divaria.perms import symmetric_group
from divaria.pseudo import Spread, eval_term
from divaria.translate import derive_variety, zero_dialgebra_axioms
from divaria.varieties import builtin_identity_set
from divaria.words import LEAF, all_shapes, eval_on_tuples
from support import gl, spread_sum

ALGEBRAS = corpus() + [("gl2", leibniz_to_dialgebra(gl(2)))]


def _zero_free(vec: dict) -> bool:
    # a stored zero would make `if vec:` read the zero vector as nonzero
    return all(c != 0 for c in vec.values())


def _vectors(dim: int) -> list:
    """The basis vectors and every sum and difference of two of them."""
    out = [{i: 1} for i in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        out += [{i: 1, j: 1}, {i: 1, j: -1}]
    return out


def test_results_hold_no_zero():
    identities = list(zero_dialgebra_axioms()) + list(
        derive_variety(builtin_identity_set("lie")).derived)
    for name, d in ALGEBRAS:
        vecs = _vectors(d.dim)
        for x, y in itertools.product(vecs, repeat=2):
            for op in (d.lprod, d.rprod, d.defect):
                assert _zero_free(op(x, y)), (name, op.__name__, x, y)
        basis = [d.basis(i) for i in range(d.dim)]
        for p in identities:
            for idx, val in eval_on_tuples(p, basis, (d.lprod, d.rprod), {}):
                assert _zero_free(val), (name, str(p), idx)
        env = build_envelope(d)
        pairs = list(itertools.product(range(d.dim), repeat=2))
        c1s = [{p: 1} for p in pairs] + [{p: 1, q: s} for p, q in itertools.combinations(pairs, 2)
                                         for s in (1, -1)]
        for c1 in c1s:
            assert _zero_free(env._t_of_pairs(c1)), (name, c1)
        for v in vecs:  # an unshared A-vector expands over the basis
            value = closed_form_eval(env, (LEAF, (1,)), [env.from_a(v)])
            assert value.eq(Spread(env, 1, {(): env.from_a(v)})), (name, v)
            assert all(_zero_free(e.c0) and _zero_free(e.c1) for e in value.terms.values())


def _comparable(table, terms: bool):
    """The table with shape keys for shapes and, if it keeps spread terms,
    each CElement as its (c0, c1) pair, sharing its dicts."""
    shape, values = table
    return shape.key, {(sub.key, keys): ({exps: (e.c0, e.c1) for exps, e in value.items()}
                                         if terms else value)
                       for (sub, keys), value in values.items()}


def test_kept_values_are_never_changed():
    for name, d in corpus():
        env = build_envelope(d)
        for n in range(1, 4):
            for shape in all_shapes(n):
                for sweep in range(2):  # the second reads every value from the tables
                    for sigma in symmetric_group(n):  # twisted words included
                        for args in _word_arguments(env, n):  # one-pair words included
                            value = eval_term(env, (shape, sigma), args)
                            assert value.eq(closed_form_eval(env, (shape, sigma), args))
                    tables = [_comparable(env._plain, True), _comparable(env._closed, False)]
                    if sweep == 0:
                        first = copy.deepcopy(tables)
                assert tables == first, (name, shape.key)


# ---------------------------------------------------------------------------
# canonical tensor parts: what dictionary equality of elements relies on
# ---------------------------------------------------------------------------

def _canonical(env, elem) -> bool:
    return _zero_free(elem.c0) and _zero_free(elem.c1) and env.rel.reduce(elem.c1) == elem.c1


def _envelopes() -> list:
    """The corpus envelopes and the Lie quotients of the Lie members, whose
    relations reach beyond the defect tensors."""
    lie = builtin_identity_set("lie")
    envs = []
    for name, d in corpus():
        envs.append((name, build_envelope(d)))
        if name in ("leibniz2", "leibniz3", "sl2"):
            envs.append((f"{name}/lie", build_var_quotient(envs[-1][1], lie).quotient))
    return envs


def _word_arguments(env, n: int) -> list:
    """Every basis tuple of length n, and every one-pair tuple of a c1 basis pair."""
    d = env.A.dim
    out = [[env.basis_a(i) for i in idx] for idx in itertools.product(range(d), repeat=n)]
    for slot, pr in itertools.product(range(n), env.c1_basis):
        out.append([env.pair(*pr) if pos == slot else env.basis_a((pos + pr[0]) % d)
                    for pos in range(n)])
    return out


def test_tensor_parts_are_reduced():
    # EnvelopePA.eq and Spread.eq compare dicts: right only while every c1
    # is reduced modulo rel and no dict holds a zero
    envs = _envelopes()
    assert min(env.rel.rank for name, env in envs if name.endswith("/lie")) > 1
    for name, env in envs:
        d = env.A.dim
        pairs = list(itertools.product(range(d), repeat=2))
        elems = [env.pair(i, j) for i, j in pairs]
        elems += [CElement({}, env.rel.reduce({p: 1, q: s})) for p, q in itertools.combinations(pairs, 2)
                  for s in (1, -1)]
        elems += [g for _name, g in env.generators()] + [env.basis_a(i) for i in range(d)]
        elems += [env.t_act(x) for x in elems]
        for x in elems:
            assert _canonical(env, x), (name, x)
        for x, y in itertools.product(elems[:2 * d * d], repeat=2):
            for p, q, z in env.base_product(x, y):
                assert _canonical(env, z), (name, x, y, p, q)
        for n in range(1, 4):
            for word in itertools.product(all_shapes(n), symmetric_group(n)):
                for args in _word_arguments(env, n):
                    for value in (eval_term(env, word, args), closed_form_eval(env, word, args)):
                        for exps, z in value.terms.items():
                            assert _canonical(env, z) and not env.is_zero(z), (name, word, exps)


def _old_eq(alg, a, b) -> bool:
    """Element equality by subtracting and testing for zero."""
    return alg.is_zero(alg.add(a, alg.scale(b, -1)))


def _old_spread_eq(f, g) -> bool:
    return spread_sum(f.alg, f.n, [(1, f), (-1, g)]).is_zero()


def test_dictionary_equality_agrees_with_subtraction():
    rng = random.Random(23)
    for name, env in _envelopes():
        d = env.A.dim
        gens = [g for _name, g in env.generators()] + [env.pair(*p) for p in env.rel.pivots()]
        elems = []
        for _ in range(12):
            x = env.zero()
            for _ in range(rng.randint(1, 3)):
                g = env.t_pow(rng.choice(gens), rng.randint(0, 2))
                x = env.add(x, env.scale(g, Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))))
            # the same value built another way, and one that differs from it
            elems += [x, env.add(env.scale(x, 3), env.scale(x, -2)),
                      env.add(x, env.basis_a(rng.randrange(d)))]
        counts = Counter()
        for a, b in itertools.product(elems, repeat=2):
            same = _old_eq(env, a, b)
            assert env.eq(a, b) == same, (name, a, b)
            counts[same] += 1
        assert counts[True] > len(elems) and counts[False], name
        spreads = []
        for word in itertools.product(all_shapes(3), symmetric_group(3)):
            args = rng.choice(_word_arguments(env, 3))
            f = eval_term(env, word, args)
            bump = Spread(env, 3, {(rng.randrange(2), 0): rng.choice(elems)})
            spreads += [f, closed_form_eval(env, word, args), spread_sum(env, 3, [(3, f), (-2, f)]),
                        spread_sum(env, 3, [(1, f), (1, bump)])]
        counts = Counter()
        for f, g in itertools.product(spreads, repeat=2):
            same = _old_spread_eq(f, g)
            assert f.eq(g) == same, (name, f.describe(), g.describe())
            counts[same] += 1
        assert counts[True] > len(spreads) and counts[False], name
