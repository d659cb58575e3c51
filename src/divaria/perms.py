"""Ordered partitions of integers, permutations, and their mutual actions.

Conventions (fixed once and for all; the symmetric-operad composition
example in the test suite is the oracle for them):

- A permutation of degree n is a tuple ``p`` of length n whose entry
  ``p[i-1]`` is the image of i, written ``i*sigma``.  All values are
  1-based.
- Permutations act on the right and compose left-to-right:
  ``i*(s*t) = (i*s)*t``.
- An n-partition of m is a tuple of n positive integers summing to m.

>>> compose((2, 3, 1), (2, 3, 1))
(3, 1, 2)
>>> from_cycles(3, [(1, 2, 3)])
(2, 3, 1)
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random
from typing import Iterator, Sequence

from .errors import InputError

Perm = tuple[int, ...]
Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(s: Perm, t: Perm) -> Perm:
    """Right-to-left application order: i -> (i*s)*t.

    >>> compose((2, 1, 3), (1, 3, 2))
    (3, 1, 2)
    """
    if len(s) != len(t):
        raise InputError("degree mismatch in permutation composition")
    return tuple(t[si - 1] for si in s)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi - 1] = i + 1
    return tuple(inv)


def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> Perm:
    """Build a permutation of 1..n from disjoint cycles (a b c): a->b->c->a.

    >>> from_cycles(4, [(2, 3, 4)])
    (1, 3, 4, 2)
    """
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for a in cyc:
            if not 1 <= a <= n or a in seen:
                raise InputError(f"bad cycle entry {a} in {cycles!r}")
            seen.add(a)
        for i, a in enumerate(cyc):
            images[a - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic one-line order."""
    return tuple(itertools.permutations(range(1, n + 1)))


def random_perm(n: int, rng: Random) -> Perm:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def pair_to_index(pi: Partition, i: int, j: int) -> int:
    """The bijection (i, j) -> m_1 + ... + m_{i-1} + j.

    >>> pair_to_index((3, 2, 4), 2, 2)
    5
    """
    if not 1 <= i <= len(pi) or not 1 <= j <= pi[i - 1]:
        raise InputError(f"pair ({i},{j}) out of range for partition {pi!r}")
    return sum(pi[: i - 1]) + j


def compose_partitions(tau: Partition, pi: Partition) -> tuple[Partition, tuple[Partition, ...]]:
    """Group tau's parts by pi's blocks.

    Returns the grouped partition together with the per-block subpartitions.

    >>> compose_partitions((1, 2, 1, 1, 2), (2, 3))
    ((3, 4), ((1, 2), (1, 1, 2)))
    """
    if len(tau) != sum(pi):
        raise InputError(f"length of {tau!r} does not match total of {pi!r}")
    grouped = []
    subparts = []
    pos = 0
    for m in pi:
        block = tau[pos:pos + m]
        grouped.append(sum(block))
        subparts.append(block)
        pos += m
    return tuple(grouped), tuple(subparts)


def act_partition(pi: Partition, sigma: Perm) -> Partition:
    """Right action: entry i of the result is m_{i*sigma^{-1}}.

    >>> act_partition((3, 2, 4), from_cycles(3, [(1, 2, 3)]))
    (4, 3, 2)
    """
    if len(pi) != len(sigma):
        raise InputError("partition length does not match permutation degree")
    inv = inverse(sigma)
    return tuple(pi[inv[i] - 1] for i in range(len(pi)))


def compositions(m: int, n: int) -> Iterator[Partition]:
    """All n-partitions of m (ordered tuples of positive parts), lexicographic."""
    if n == 1:
        if m >= 1:
            yield (m,)
        return
    for first in range(1, m - n + 2):
        for rest in compositions(m - first, n - 1):
            yield (first,) + rest


def random_partition(m: int, n: int, rng: Random) -> Partition:
    """Uniformly random n-partition of m (via a random cut set)."""
    if not 1 <= n <= m:
        raise InputError(f"no {n}-partitions of {m}")
    cuts = sorted(rng.sample(range(1, m), n - 1))
    bounds = [0] + cuts + [m]
    return tuple(bounds[i + 1] - bounds[i] for i in range(n))


# ---------------------------------------------------------------------------
# the symmetric-group operad composition
# ---------------------------------------------------------------------------

def sym_compose(sigma: Perm, pi: Partition, taus: Sequence[Perm]) -> Perm:
    """Compose permutations along a partition: k = (i,j) maps to (i*sigma, j*tau_i)
    read in the blocks of pi acted by sigma.  One pass: the image of (i,j)
    is the start offset of block i*sigma of pi*sigma plus j*tau_i.

    >>> sym_compose(from_cycles(3, [(1, 2, 3)]), (3, 2, 4),
    ...             [from_cycles(3, [(1, 3, 2)]), (2, 1), from_cycles(4, [(2, 3, 4)])])
    (7, 5, 6, 9, 8, 1, 3, 4, 2)
    """
    n = len(sigma)
    if len(pi) != n:
        raise InputError("partition length does not match outer degree")
    if len(taus) != n or any(len(taus[i]) != pi[i] for i in range(n)):
        raise InputError("inner permutation degrees do not match partition")
    pi_sigma = act_partition(pi, sigma)
    for s, tau in zip(sigma, taus):
        size = pi_sigma[s - 1] if 1 <= s <= n else 0
        for t in tau:
            if not 0 < t <= size:
                raise InputError(f"pair ({s},{t}) out of range for partition {pi_sigma!r}")
    return _place_blocks(sigma, block_starts(pi_sigma), taus)


def block_starts(pi: Partition) -> tuple[int, ...]:
    """The offsets 0, m_1, m_1 + m_2, ..., sum(pi): block i of pi holds the
    positions start[i-1] + 1 .. start[i].

    >>> block_starts((3, 2, 4))
    (0, 3, 5, 9)
    """
    return tuple(itertools.accumulate(pi, initial=0))


def _place_blocks(sigma: Perm, start: Sequence[int], taus: Sequence[Perm]) -> Perm:
    """The permutation that sends (i, j) to start[i*sigma - 1] + j*taus[i-1]:
    block i is placed at the start offset of block i*sigma, with no checks."""
    return tuple([start[s - 1] + t for s, tau in zip(sigma, taus) for t in tau])
