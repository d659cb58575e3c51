"""The one-variable polynomial Hopf algebra: Delta(T) = T(x)1 + 1(x)T,
eps(T) = 0, S(T) = -T, extended multiplicatively.

Only the combinatorial shadows are needed downstream: iterated-coproduct
exponent splits with multinomial weights, and the antipode sign.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


def antipode_sign(k: int) -> int:
    """S(T^k) = (-1)^k T^k."""
    return -1 if k & 1 else 1


@lru_cache(maxsize=None)
def coproduct_splits(k: int, slots: int) -> tuple:
    """Delta^{slots-1}(T^k) = sum multinomial(k; j) T^{j_1} (x) ... (x) T^{j_slots}.

    Returns ((j_1..j_slots), coefficient) pairs, lexicographic.
    """
    if slots == 1:
        return (((k,), 1),)
    out = []
    for head in range(k + 1):
        c = comb(k, head)
        for rest, cr in coproduct_splits(k - head, slots - 1):
            out.append(((head,) + rest, c * cr))
    return tuple(out)
