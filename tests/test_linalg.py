from fractions import Fraction

from hypothesis import given, settings, strategies as st

from divaria.linalg import ONE, RowSpace, vec_axpy

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
