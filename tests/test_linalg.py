import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from divaria.linalg import ONE, RowSpace, rational, vec_axpy

COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
VECS = st.dictionaries(st.integers(0, 7), COEFFS, max_size=6)


def _two_loop_reduce(space: RowSpace, v: dict) -> dict:
    """The earlier RowSpace.reduce: clear the lowest key while it is a
    pivot, then every pivot in sorted order."""
    rows = space._rows
    out = dict(v)
    while out:
        lead = min(out)
        row = rows.get(lead)
        if row is None:
            break
        vec_axpy(out, -out[lead], row)
    for p in sorted(rows):
        if p in out:
            vec_axpy(out, -out[p], rows[p])
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(VECS, max_size=7), VECS)
def test_reduce_is_the_normal_form(rows, v):
    space = RowSpace(rows)
    red = space.reduce(v)
    assert not set(red) & set(space.pivots())
    # v - reduce(v) is the combination of the basis rows read off its pivot entries
    diff = dict(v)
    vec_axpy(diff, -ONE, red)
    combo: dict = {}
    for p, row in zip(space.pivots(), space.rows()):
        vec_axpy(combo, diff.get(p, 0), row)
    assert diff == combo
    assert red == _two_loop_reduce(space, v)


class _FullScanRowSpace(RowSpace):
    """The earlier RowSpace.add: back-substitute by testing every stored row."""

    def add(self, v):
        red = self.reduce(v)
        if not red:
            return False
        lead = min(red)
        inv = ONE / red[lead]
        row = {k: rational(inv * x) for k, x in red.items()}
        for p, r in self._rows.items():
            if lead in r:
                vec_axpy(r, -r[lead], row)
        self._rows[lead] = row
        return True


def _random_vectors(rng: random.Random, count: int) -> list:
    """Sparse vectors over a few columns, with int and Fraction entries.
    Some are combinations of earlier ones plus one entry, so that
    back-substitution cancels entries that a row was listed under."""
    out: list = []
    for _ in range(count):
        if out and rng.random() < 0.4:
            v: dict = {}
            for w in rng.sample(out, min(len(out), rng.randint(1, 3))):
                vec_axpy(v, rng.choice((1, -1, 2, Fraction(1, 2))), w)
            vec_axpy(v, 1, {rng.randrange(10): rng.choice((1, -1, Fraction(-3, 2)))})
        else:
            v = {}
            for k in rng.sample(range(10), rng.randint(1, 4)):
                v[k] = rng.choice((1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)))
        out.append(v)
    return out


def test_holder_lists_give_the_full_scan_rows():
    rng = random.Random(5)
    stale = 0
    for _ in range(60):
        vectors = _random_vectors(rng, rng.randint(3, 14))
        for _ in range(5):
            rng.shuffle(vectors)
            space, reference = RowSpace(), _FullScanRowSpace()
            for v in vectors:
                red = space.reduce(v)
                if red:  # listings under the new pivot whose entry has cancelled
                    lead = min(red)
                    stale += sum(lead not in space._rows[p] for p in space._holders.get(lead, ()))
                assert space.add(v) == reference.add(v)
                # the same rows, down to the key order inside each row
                assert [(p, list(r.items())) for p, r in space._rows.items()] \
                    == [(p, list(r.items())) for p, r in reference._rows.items()]
            assert space == reference and space.pivots() == reference.pivots()
            assert space.rows() == reference.rows()
            pivots = set(space.pivots())
            for p, r in space._rows.items():
                assert r[p] == 1 and set(r) & pivots == {p}
            for w in _random_vectors(rng, 4):
                assert space.reduce(w) == reference.reduce(w)
    assert stale  # add met stale listings and skipped them
