import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from divaria.dsl import parse_variety
from divaria.errors import InputError
from divaria.perms import random_perm, symmetric_group
from divaria.translate import derive_variety
from divaria.words import (DiPoly, DiShape, DILEAF, LEAF, LPROD, MultilinearPoly, RPROD,
                           TensorPoly, all_dishapes, all_shapes, basis_monomials,
                           dinode, graft, node, section_dishape, to_vec)
from support import center_leaf_position, from_vec

LC3 = node(node(LEAF, LEAF), LEAF)
RC3 = node(LEAF, node(LEAF, LEAF))


def test_shape_counts_are_catalan():
    assert [len(all_shapes(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]
    assert [len(all_dishapes(n)) for n in range(1, 5)] == [1, 2, 8, 40]


def test_shape_order_prefers_left_combs():
    assert all_shapes(3)[0] is LC3


def _preorder(s) -> tuple:
    """The flat preorder encoding of s, built from its children."""
    if s.is_leaf:
        return (1,)
    head = (0, s.label) if isinstance(s, DiShape) else (0,)
    return head + _preorder(s.left) + _preorder(s.right)


def test_nested_keys_sort_as_the_flat_preorder_encodings():
    for shapes in ([s for n in range(1, 8) for s in all_shapes(n)],
                   [s for n in range(1, 8) for s in all_dishapes(n)]):
        assert [s.flat_key() for s in shapes] == list(map(_preorder, shapes))
        assert len({s.key for s in shapes}) == len(shapes)
        assert sorted(shapes, key=lambda s: s.key) == sorted(shapes, key=_preorder)
        assert sorted(shapes) == sorted(shapes, key=_preorder)


def test_shapes_print_their_flat_preorder_encoding():
    assert repr(LC3) == "Shape(00111)" and repr(LEAF) == "Shape(1)"
    assert repr(dinode(RPROD, dinode(LPROD, DILEAF, DILEAF), DILEAF)) == "DiShape(0100111)"


def test_derive_on_a_long_left_comb_stays_small():
    # a node shares its children's keys: a flat key copied its subtree, and
    # this derivation peaked at about 220 MB
    n = 300
    chain = "*".join(f"x{i}" for i in range(1, n + 1))
    sigma = parse_variety(f"variety comb\nidentity {chain} - x1*({chain[3:]})\n")
    tracemalloc.start()
    try:
        derived = derive_variety(sigma).derived
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(derived) == n
    assert peak < 64 << 20, peak


def test_word_rendering():
    # a stored (shape, perm) pair displays as the substituted word
    assert str(MultilinearPoly.monomial(LC3, (2, 1, 3))) == "(x2*x1)*x3"
    p = DiPoly.monomial(dinode(LPROD, dinode(RPROD, DILEAF, DILEAF), DILEAF), (1, 2, 3))
    assert str(p) == "(x1|-x2)-|x3"
    t = TensorPoly.monomial(node(LEAF, LEAF), (1, 2), 2)
    assert str(t) == "(x1*x2)@e2"


def test_cancellation_and_merge():
    u = MultilinearPoly.monomial(LC3, (1, 2, 3))
    assert (u - u).is_zero()
    assert (u.scale(2) + u.scale(3)) == u.scale(5)


def test_mixed_arity_rejected():
    u = MultilinearPoly.monomial(LC3, (1, 2, 3))
    v = MultilinearPoly.monomial(node(LEAF, LEAF), (1, 2))
    with pytest.raises(InputError):
        u + v


def test_act_examples():
    u = MultilinearPoly.monomial(LC3, (1, 2, 3))
    assert str(u.act((2, 1, 3))) == "(x2*x1)*x3"
    t = TensorPoly.monomial(node(LEAF, LEAF), (1, 2), 2)
    assert t.act((2, 1)) == TensorPoly.monomial(node(LEAF, LEAF), (2, 1), 1)


@given(st.integers(0, 10 ** 6), st.integers(0, 5))
def test_act_is_group_action(seed, n_extra):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    shape = rng.choice(all_shapes(n))
    perm = random_perm(n, rng)
    p = (MultilinearPoly.monomial(shape, perm)
         + MultilinearPoly.monomial(rng.choice(all_shapes(n)), random_perm(n, rng)).scale(3))
    s, t = random_perm(n, rng), random_perm(n, rng)
    from divaria.perms import compose
    assert p.act(s).act(t) == p.act(compose(s, t))
    from divaria.perms import inverse
    assert p.act(s).act(inverse(s)) == p


def test_coordinate_roundtrip():
    b2, l2, r2 = node(LEAF, LEAF), dinode(LPROD, DILEAF, DILEAF), dinode(RPROD, DILEAF, DILEAF)
    assert list(basis_monomials(MultilinearPoly, 2)) == [(b2, (1, 2)), (b2, (2, 1))]
    assert list(basis_monomials(DiPoly, 2)) == [(l2, (1, 2)), (l2, (2, 1)), (r2, (1, 2)), (r2, (2, 1))]
    assert list(basis_monomials(TensorPoly, 2)) == [
        (b2, (1, 2), 1), (b2, (1, 2), 2), (b2, (2, 1), 1), (b2, (2, 1), 2)]
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        dim = len(all_shapes(n)) * len(symmetric_group(n))
        assert len(basis_monomials(MultilinearPoly, n)) == dim
        assert len(basis_monomials(TensorPoly, n)) == dim * n
        for _ in range(10):
            p = MultilinearPoly(n)
            for _ in range(3):
                p = p + MultilinearPoly.monomial(
                    rng.choice(all_shapes(n)), random_perm(n, rng)).scale(Fraction(rng.randint(-3, 3)))
            assert from_vec(MultilinearPoly, n, to_vec(p)) == p


def test_coordinates_are_shape_blocks_of_permutation_ranks():
    # operads.consequence_space relabels by permuting coordinates, and reads
    # a coordinate's shape and permutation off this layout
    for cls in (MultilinearPoly, DiPoly):
        for n in (1, 2, 3, 4):
            group = symmetric_group(n)
            order = len(group)
            index = basis_monomials(cls, n)
            assert len(index) == len(cls.shapes(n)) * order
            for b, s in enumerate(cls.shapes(n)):
                for r, p in enumerate(group):
                    assert index[(s, p)] == b * order + r


def test_graft():
    assert graft(node(LEAF, LEAF), [node(LEAF, LEAF), LEAF]) is LC3
    # a labeled shape keeps the labels of the outer shape and of every inner one
    inner = dinode(LPROD, DILEAF, DILEAF)
    grafted = graft(dinode(RPROD, DILEAF, DILEAF), [DILEAF, inner])
    assert grafted is dinode(RPROD, DILEAF, inner)
    assert str(DiPoly.monomial(grafted, (1, 2, 3))) == "x1|-(x2-|x3)"
    with pytest.raises(InputError):
        graft(inner, [DILEAF])


def test_section_labeling_points_at_center():
    for n in (2, 3, 4, 5):
        for shape in all_shapes(n):
            for p in range(1, n + 1):
                ds = section_dishape(shape, p)
                assert center_leaf_position(ds) == p


def test_section_matches_identity_tables():
    # x1-|(x2-|x3): both signs point at x1 even off the path
    assert str(DiPoly.monomial(section_dishape(RC3, 1), (1, 2, 3))) == "x1-|(x2-|x3)"
    assert str(DiPoly.monomial(section_dishape(RC3, 2), (1, 2, 3))) == "x1|-(x2-|x3)"
    assert str(DiPoly.monomial(section_dishape(RC3, 3), (1, 2, 3))) == "x1|-(x2|-x3)"


def test_each_kind_refuses_the_other_kinds_shapes():
    # a DiShape is a Shape, so only an exact type test keeps the kinds apart
    plain, labeled = node(LEAF, LEAF), dinode(LPROD, DILEAF, DILEAF)
    refused = [(MultilinearPoly, 2, (labeled, (1, 2))), (MultilinearPoly, 1, (DILEAF, (1,))),
               (TensorPoly, 2, (labeled, (1, 2), 1)),
               (DiPoly, 2, (plain, (1, 2))), (DiPoly, 1, (LEAF, (1,)))]
    for cls, n, mono in refused:
        with pytest.raises(InputError, match=f"bad {cls.__name__} monomial"):
            cls(n, {mono: 1})
    assert str(MultilinearPoly.monomial(plain, (2, 1))) == "x2*x1"
    assert str(DiPoly.monomial(labeled, (2, 1))) == "x2-|x1"
