"""Invariants of the one element-vector type, linalg.Vec: a result never
stores a zero coordinate, and no caller adds into a value that a per-shape
table keeps."""

import copy
import itertools

from divaria.envelope import build_envelope, closed_form_eval
from divaria.fd import corpus, gl, leibniz_to_dialgebra
from divaria.perms import symmetric_group
from divaria.pseudo import eval_term
from divaria.translate import derive_variety, zero_dialgebra_axioms
from divaria.varieties import builtin_identity_set
from divaria.words import all_shapes

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
            for args in itertools.product(basis, repeat=p.arity):
                assert _zero_free(d.eval_poly(p, list(args))), (name, str(p))
        env = build_envelope(d)
        pairs = list(itertools.product(range(d.dim), repeat=2))
        c1s = [{p: 1} for p in pairs] + [{p: 1, q: s} for p, q in itertools.combinations(pairs, 2)
                                         for s in (1, -1)]
        for c1 in c1s:
            assert _zero_free(env._t_of_pairs(c1)), (name, c1)
        for v in vecs:
            vec, _index = env.a_part(env.from_a(v))
            assert vec == v and _zero_free(vec), (name, v)


def _comparable(table):
    """The table with each CElement as its (c0, c1) pair, sharing its dicts."""
    shape_key, values = table
    return shape_key, {key: ({exps: (e.c0, e.c1) for exps, e in value.items()}
                             if isinstance(value, dict) else value)
                       for key, value in values.items()}


def test_kept_values_are_never_changed():
    for name, d in corpus():
        env = build_envelope(d)
        for n in range(1, 4):
            for shape in all_shapes(n):
                for sweep in range(2):  # the second reads every value from the tables
                    for sigma in symmetric_group(n):  # twisted words included
                        for idx in itertools.product(range(d.dim), repeat=n):
                            args = [env.basis_a(i) for i in idx]
                            value = eval_term(env, (shape, sigma), args)
                            assert value.eq(closed_form_eval(env, (shape, sigma), args))
                    tables = [_comparable(env._plain), _comparable(env._closed)]
                    if sweep == 0:
                        first = copy.deepcopy(tables)
                assert tables == first, (name, shape.key)
