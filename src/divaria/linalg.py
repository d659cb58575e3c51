"""Exact rational linear algebra on sparse vectors.

Vectors are dicts mapping a hashable, totally ordered column key to a
nonzero exact rational, an int or a Fraction, never a float.  Integral
data stay int: a Fraction comes in only with a non-integral input or a
division by a pivot other than 1 or -1.  RowSpace maintains a reduced row
echelon basis incrementally; the basis is canonical (independent of
insertion order), which makes row spaces directly comparable.
A new pivot is back-substituted only into the rows listed under its column:
for each free column RowSpace lists the rows that took an entry there, and
skips a listing whose entry has cancelled since.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Hashable, Iterable

Vec = dict

ZERO = 0
ONE = Fraction(1)  # the divisor: ONE / x is exact for an int x too


def rational(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    q = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def decimal_str(x) -> str:
    """str(x) for an int or a Fraction x, at any size: str refuses an int of
    more than sys.get_int_max_str_digits() digits (at least 640 when set),
    so this writes one in blocks of 500 digits."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"
    n = int(x)
    if n < 0:
        return "-" + decimal_str(-n)
    base, blocks = 10 ** 500, []
    while n >= base:
        n, low = divmod(n, base)
        blocks.append(f"{low:0500d}")
    return str(n) + "".join(reversed(blocks))


def vec_axpy(target: Vec, coeff: Fraction, source: Vec) -> None:
    """target += coeff * source, dropping cancellations."""
    if not coeff:
        return
    for k, v in source.items():
        new = target.get(k, ZERO) + coeff * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def add_term(target: Vec, key: Hashable, value: Fraction) -> None:
    """target[key] += value, dropping a cancellation."""
    new = target.get(key, ZERO) + value
    if new:
        target[key] = new
    else:
        target.pop(key, None)


class RowSpace:
    """Incrementally built RREF basis of a span of sparse vectors."""

    def __init__(self, rows: Iterable[Vec] = ()):  # rows are copied
        self._rows: dict[Hashable, Vec] = {}  # pivot key -> row (pivot coeff 1)
        # free column -> pivots of the rows that took an entry there
        self._holders: defaultdict[Hashable, list] = defaultdict(list)
        for r in rows:
            self.add(r)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[Vec]:
        """Basis rows sorted by pivot."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def pivots(self) -> list[Hashable]:
        return sorted(self._rows)

    def reduce(self, v: Vec) -> Vec:
        """Normal form of v modulo the row space."""
        out = dict(v)
        # the basis is fully reduced, so clearing one pivot never brings
        # back another: one pass over the pivots of v itself suffices
        for k, c in v.items():
            row = self._rows.get(k)
            if row is not None:
                vec_axpy(out, -c, row)
        return out

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add(self, v: Vec) -> bool:
        """Insert a vector; returns True if the rank grew."""
        red = self.reduce(v)
        if not red:
            return False
        lead = min(red)
        inv = ONE / red[lead]
        row = {k: rational(inv * x) for k, x in red.items()}  # integral entries as int
        # back-substitute into the rows that hold lead, to keep full RREF
        holders = self._holders
        for p in holders.pop(lead, ()):
            r = self._rows[p]
            c = r.get(lead)
            if c is None:  # cancelled since p was listed
                continue
            taken = [k for k in row if k not in r]
            vec_axpy(r, -c, row)
            for k in taken:
                holders[k].append(p)
        self._rows[lead] = row
        for k in row:
            if k != lead:
                holders[k].append(lead)
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowSpace):
            return NotImplemented
        return self._rows == other._rows

    def __le__(self, other: "RowSpace") -> bool:
        """Subspace test."""
        return all(other.contains(r) for r in self._rows.values())

    def __repr__(self) -> str:
        return f"RowSpace(rank={self.rank})"
