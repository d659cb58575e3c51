"""A fixed reference computation that measures the machine's current speed.

On a shared cloud CPU the speed of a single-threaded process can drift
by up to a factor of two within seconds and stay off for minutes (CPU
time equals wall time, so the process is not preempted; the core itself
is slower).  ``sample.py`` therefore runs this computation every half
second while the jobs run and scales each stretch of job time by
``REF_NOMINAL_S`` divided by the mean of the reference times taken just
before and just after it.  A scaled time reads "seconds at the speed at
which the reference takes ``REF_NOMINAL_S``"; a change to the program
moves it as it moves wall time, and a change in the machine's speed
moves it far less.

The reference does the same kind of work as divaria -- ``Fraction``
arithmetic on sparse vectors held in dicts with tuple keys: an exact row
reduction, as in ``linalg.RowSpace``, and a sparse product, as in the
pseudo-products -- but it imports nothing from divaria, so a change to
the program never changes it.  Its inputs are fixed, so it does the same
work on every call.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the reference's time on a 2-vCPU x86-64 cloud VM under CPython
# 3.11; any fixed value works, it only sets the unit.
REF_NOMINAL_S = 0.05

_ROWS, _COLS, _NONZEROS = 30, 40, 5


def _lcg(state: int) -> int:
    return (state * 1103515245 + 12345) % 2147483648


def _inputs() -> tuple[list, dict, dict]:
    state = 1
    rows = []
    for _ in range(_ROWS):
        row = {}
        for _ in range(_NONZEROS):
            state = _lcg(state)
            col = (state >> 8) % _COLS
            state = _lcg(state)
            row[(col // 8, col % 8)] = Fraction((state >> 8) % 7 - 3 or 1, (state >> 12) % 4 + 1)
        rows.append(row)
    poly_a, poly_b = {}, {}
    for poly in (poly_a, poly_b):
        for _ in range(40):
            state = _lcg(state)
            key = ((state >> 8) % 4, (state >> 10) % 5, (state >> 13) % 3)
            poly[key] = Fraction((state >> 16) % 9 - 4 or 1, (state >> 20) % 3 + 1)
    return rows, poly_a, poly_b


_INPUTS = _inputs()


def _axpy(target: dict, coeff: Fraction, source: dict) -> None:
    for k, v in source.items():
        new = target.get(k, 0) + coeff * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def _row_reduce(rows: list) -> int:
    basis: dict = {}  # pivot -> row with pivot coefficient 1
    for row in rows:
        out = dict(row)
        for pivot in sorted(basis):
            if pivot in out:
                _axpy(out, -out[pivot], basis[pivot])
        if not out:
            continue
        lead = min(out)
        inv = 1 / out[lead]
        out = {k: v * inv for k, v in out.items()}
        for other in basis.values():
            if lead in other:
                _axpy(other, -other[lead], out)
        basis[lead] = out
    return len(basis)


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j, k), x in a.items():
        for (p, q, r), y in b.items():
            key = (i + p, j + q, (k + r) % 3)
            new = out.get(key, 0) + x * y
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def reference_work() -> int:
    """The fixed computation; returns a checksum of its results."""
    rows, poly_a, poly_b = _INPUTS
    rank = _row_reduce(rows)
    square = _product(poly_a, poly_b)
    return rank + len(_product(square, poly_a))


def reference_s() -> float:
    """Wall time of one reference computation."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0
