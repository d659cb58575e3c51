"""TermPoly.compose_mono, which places each inner block at its start offset
in the partition, against the round trip through sym_compose that it
replaced (tests/support.py), for every polynomial class."""

import itertools
import random

import pytest

from divaria import perms
from divaria.words import DiPoly, MultilinearPoly, TensorPoly
from support import round_trip_compose_mono

CLASSES = [MultilinearPoly, DiPoly, TensorPoly]


def _inner_choices(cls, k: int) -> list:
    """Every monomial of arity k for k <= 3; above that, every monomial on
    the first shape of arity k (every permutation, and every center of a
    TensorPoly).  The permutation and the center of the composite do not
    depend on the inner shapes, and grafting is checked on every shape of
    arity <= 3; all of arity 4 to 6 would be 1.4 million DiPoly cases."""
    monos = cls.monomials(k)
    return monos if k <= 3 else [m for m in monos if m[0] is monos[0][0]]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_compose_mono_matches_round_trip_exhaustively(cls):
    choices = {k: _inner_choices(cls, k) for k in range(1, 7)}
    cases = 0
    for n in range(1, 4):
        outers = cls.monomials(n)
        for m in range(n, 7):
            for pi in perms.compositions(m, n):
                for inner in itertools.product(*[choices[k] for k in pi]):
                    for mono in outers:
                        assert (cls.compose_mono(mono, pi, inner)
                                == round_trip_compose_mono(cls, mono, pi, inner)), (mono, pi, inner)
                        cases += 1
    assert cases == {MultilinearPoly: 5445, DiPoly: 85737, TensorPoly: 70281}[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_compose_mono_matches_round_trip_on_a_sample(cls):
    rng = random.Random(30)
    for _ in range(400):
        n = rng.randint(1, 5)
        pi = tuple(rng.randint(1, 5) for _ in range(n))
        mono = cls.random_mono(n, rng)
        inner = [cls.random_mono(k, rng) for k in pi]
        assert cls.compose_mono(mono, pi, inner) == round_trip_compose_mono(cls, mono, pi, inner)
