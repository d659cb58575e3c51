import random

import pytest
from hypothesis import given, strategies as st

from divaria.errors import InputError
from divaria.perms import (act_partition, compose, compose_partitions, compositions,
                           from_cycles, identity, inverse, pair_to_index,
                           random_partition, random_perm, sym_compose)


def index_to_pair(pi, k):
    """Inverse of pair_to_index: the block i and the place j of index k."""
    if not 1 <= k <= sum(pi):
        raise InputError(f"index {k} out of range for partition {pi!r}")
    acc = 0
    for i, m in enumerate(pi, start=1):
        if k <= acc + m:
            return i, k - acc
        acc += m
    raise AssertionError("unreachable")


def _sym_compose_by_pairs(sigma, pi, taus):
    """The definition of sym_compose read place by place, O(m^2): k = (i,j)
    maps to the index of (i*sigma, j*tau_i) in the blocks of pi*sigma."""
    pi_sigma = act_partition(pi, sigma)
    images = []
    for k in range(1, sum(pi) + 1):
        i, j = index_to_pair(pi, k)
        images.append(pair_to_index(pi_sigma, sigma[i - 1], taus[i - 1][j - 1]))
    return tuple(images)


def test_pair_to_index_examples():
    pi = (3, 2, 4)
    assert pair_to_index(pi, 1, 3) == 3
    assert pair_to_index(pi, 2, 2) == 5
    assert pair_to_index(pi, 3, 4) == 9


def test_pair_to_index_range_errors():
    with pytest.raises(InputError):
        pair_to_index((3, 2), 1, 4)
    with pytest.raises(InputError):
        pair_to_index((3, 2), 3, 1)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_pair_index_roundtrip(parts):
    pi = tuple(parts)
    for k in range(1, sum(pi) + 1):
        i, j = index_to_pair(pi, k)
        assert pair_to_index(pi, i, j) == k


def test_index_to_pair_example():
    assert index_to_pair((3, 2, 4), 5) == (2, 2)
    with pytest.raises(InputError):
        index_to_pair((3, 2), 6)


def test_sym_compose_matches_the_pairwise_definition():
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(1, 6)
        pi = random_partition(rng.randint(n, 9), n, rng)
        sigma = random_perm(n, rng)
        taus = [random_perm(k, rng) for k in pi]
        assert sym_compose(sigma, pi, taus) == _sym_compose_by_pairs(sigma, pi, taus)


def test_sym_compose_errors():
    pi, sigma, taus = (3, 2, 4), (2, 3, 1), [(1, 3, 2), (2, 1), (2, 3, 4, 1)]
    with pytest.raises(InputError, match="partition length does not match outer degree"):
        sym_compose(sigma, (3, 2), taus)
    with pytest.raises(InputError, match="inner permutation degrees do not match partition"):
        sym_compose(sigma, pi, taus[:2])
    with pytest.raises(InputError, match="inner permutation degrees do not match partition"):
        sym_compose(sigma, pi, [(1, 2), (2, 1), (2, 3, 4, 1)])
    # an inner image outside its block, and an outer image 0: both the
    # one-pass rule and the pairwise definition refuse with the same message
    for bad_sigma, bad_taus in [(sigma, [(1, 4, 2), (2, 1), (2, 3, 4, 1)]),
                                (sigma, [(1, 3, 2), (0, 1), (2, 3, 4, 1)]),
                                ((0, 3, 1), taus)]:
        with pytest.raises(InputError) as fast:
            sym_compose(bad_sigma, pi, bad_taus)
        with pytest.raises(InputError) as slow:
            _sym_compose_by_pairs(bad_sigma, pi, bad_taus)
        assert str(fast.value) == str(slow.value)
        assert "out of range for partition" in str(fast.value)


def test_compose_partitions_examples():
    assert compose_partitions((1, 2, 1, 1, 2), (2, 3)) == ((3, 4), ((1, 2), (1, 1, 2)))
    assert compose_partitions((2, 3, 4), (1, 1, 1)) == ((2, 3, 4), ((2,), (3,), (4,)))
    assert compose_partitions((1, 1, 1, 1), (4,)) == ((4,), ((1, 1, 1, 1),))
    with pytest.raises(InputError):
        compose_partitions((1, 2), (2, 2))


def test_act_partition_examples():
    pi = (3, 2, 4)
    assert act_partition(pi, from_cycles(3, [(1, 2, 3)])) == (4, 3, 2)
    assert act_partition(pi, identity(3)) == (3, 2, 4)
    assert act_partition(pi, (2, 1, 3)) == (2, 3, 4)


def test_act_partition_is_right_action():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        pi = random_partition(rng.randint(n, 9), n, rng)
        s, t = random_perm(n, rng), random_perm(n, rng)
        assert act_partition(act_partition(pi, s), t) == act_partition(pi, compose(s, t))


def test_sym_compose_worked_example():
    # the convention oracle: fixes one-line storage and cycle reading
    got = sym_compose(from_cycles(3, [(1, 2, 3)]), (3, 2, 4),
                      [from_cycles(3, [(1, 3, 2)]), (2, 1), from_cycles(4, [(2, 3, 4)])])
    assert got == (7, 5, 6, 9, 8, 1, 3, 4, 2)


def test_sym_compose_units():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_perm(n, rng)
        assert sym_compose(f, (1,) * n, [identity(1)] * n) == f
        assert sym_compose(identity(1), (n,), [f]) == f
    assert sym_compose((2, 1), (2, 1), [identity(2), identity(1)]) == (2, 3, 1)


def test_sym_compose_associativity_random():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        p = rng.randint(m, 9)
        pi = random_partition(m, n, rng)
        tau = random_partition(p, m, rng)
        phi = random_perm(n, rng)
        chis = [random_perm(k, rng) for k in pi]
        psis = [random_perm(k, rng) for k in tau]
        lhs = sym_compose(sym_compose(phi, pi, chis), tau, psis)
        taupi, subs = compose_partitions(tau, pi)
        inners = [sym_compose(chis[i - 1], subs[i - 1],
                              [psis[pair_to_index(pi, i, t) - 1] for t in range(1, pi[i - 1] + 1)])
                  for i in range(1, n + 1)]
        assert lhs == sym_compose(phi, taupi, inners)


def test_compose_and_inverse():
    assert compose((2, 1, 3), (1, 3, 2)) == (3, 1, 2)
    rng = random.Random(9)
    for _ in range(100):
        p = random_perm(rng.randint(1, 7), rng)
        assert compose(p, inverse(p)) == identity(len(p))


def test_compositions_enumeration():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert sum(1 for _ in compositions(7, 3)) == 15


def test_partition_composition_associativity():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        p = rng.randint(m, 9)
        q = rng.randint(p, 12)
        pi = random_partition(m, n, rng)
        tau = random_partition(p, m, rng)
        rho = random_partition(q, p, rng)
        left = compose_partitions(compose_partitions(rho, tau)[0], pi)[0]
        right = compose_partitions(rho, compose_partitions(tau, pi)[0])[0]
        assert left == right
        assert sum(left) == q and len(left) == n
