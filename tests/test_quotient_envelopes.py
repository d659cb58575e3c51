"""Variety quotients of the corpus envelopes: their relation spaces, the
two evaluators against each other on them, and the tuple entry's garbage."""

import functools
import gc
import itertools

import pytest

from divaria.envelope import build_envelope, build_var_quotient, oracle_sweep
from divaria.errors import InputError
from divaria.fd import bar_unit, corpus
from divaria.linalg import RowSpace
from divaria.pseudo import eval_term_on_tuples
from divaria.varieties import builtin_identity_set

VARIETIES = ("associative", "commutative", "alternative", "lie", "jordan")


@functools.lru_cache(maxsize=None)
def quotients() -> tuple:
    """(label, variety quotient) for every corpus member and builtin variety
    whose quotient builds."""
    out = []
    for name, a in corpus():
        env = build_envelope(a)
        for variety in VARIETIES:
            try:
                out.append((f"{name}/{variety}",
                            build_var_quotient(env, builtin_identity_set(variety))))
            except InputError:
                continue
    return tuple(out)


def pairwise_relations(a, extra=()) -> RowSpace:
    """The relation space as built one pair of nonzero defects at a time,
    d^4 outer products, then the rows of extra."""
    d = a.dim
    defects = [a.defect(a.basis(i), a.basis(j)) for i in range(d) for j in range(d)]
    rel = RowSpace()
    for x, y in itertools.product(filter(None, defects), repeat=2):
        rel.add({(i, j): u * v for i, u in x.items() for j, v in y.items()})
    for row in extra:
        rel.add(row)
    return rel


def test_relations_equal_the_pairwise_defect_construction():
    algebras = corpus() + [("bar-unit-3", bar_unit((1, 2, 3)))]
    ranks = []
    for name, a in algebras:
        env = build_envelope(a)
        assert env.rel == pairwise_relations(a), name
        ranks.append(env.rel.rank)
    assert ranks == [1, 4, 0, 0, 0, 0, 1, 4]
    assert len(quotients()) == 20
    for label, vq in quotients():
        q = vq.quotient
        assert q.rel == pairwise_relations(q.A, vq.ideal.rows()), label


def test_evaluators_agree_on_quotient_envelopes():
    # every tensor generator of the quotient in every slot, with every
    # basis tuple in the other slots
    checked = 0
    for label, vq in quotients():
        q = vq.quotient

        def one_pair(n):
            return [(pr, idx) for pr in q.c1_basis
                    for idx in itertools.product(range(q.A.dim), repeat=n - 1)]
        bad, count = oracle_sweep(q, 3, one_pair)
        assert bad is None, (label, bad)
        checked += count
    assert checked == 7637


@pytest.mark.parametrize("label", ["leibniz2/lie", "sl2/lie", "bar-unit/associative"])
def test_tuple_entry_leaves_no_cyclic_garbage(label):
    q = dict(quotients())[label].quotient
    gens = [el for _name, el in q.generators()]
    variety = builtin_identity_set(label.partition("/")[2])
    gc.collect()
    gc.disable()
    try:
        for t in variety:
            assert sum(1 for _ in eval_term_on_tuples(q, t, gens)) == len(gens) ** t.arity
        assert gc.collect() == 0
    finally:
        gc.enable()
