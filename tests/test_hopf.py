from fractions import Fraction

from divaria.hopf import antipode_sign, coproduct_splits
from divaria.linalg import add_term

DEGREES = range(7)


# ---------------------------------------------------------------------------
# symbolic tensor powers of k[T]: {exponent tuple: coeff}, one slot per factor
# ---------------------------------------------------------------------------

def tensor_monomial(*exps: int) -> dict:
    return {tuple(exps): Fraction(1)}


def delta_slot(a: dict, slot: int) -> dict:
    """Apply the coproduct in one slot (0-based), raising the tensor degree."""
    out: dict = {}
    for key, v in a.items():
        for split, c in coproduct_splits(key[slot], 2):
            add_term(out, key[:slot] + split + key[slot + 1:], v * c)
    return out


def antipode_slot(a: dict, slot: int) -> dict:
    return {k: v * antipode_sign(k[slot]) for k, v in a.items()}


def counit_slot(a: dict, slot: int) -> dict:
    out: dict = {}
    for key, v in a.items():
        if key[slot] == 0:
            add_term(out, key[:slot] + key[slot + 1:], v)
    return out


def mult_slots(a: dict, slot: int) -> dict:
    """Multiply slots slot and slot+1 together."""
    out: dict = {}
    for key, v in a.items():
        add_term(out, key[:slot] + (key[slot] + key[slot + 1],) + key[slot + 2:], v)
    return out


# ---------------------------------------------------------------------------

def test_coproduct_splits_are_multinomial():
    assert coproduct_splits(2, 2) == (((0, 2), 1), ((1, 1), 2), ((2, 0), 1))
    for k in DEGREES:
        assert sum(c for _e, c in coproduct_splits(k, 3)) == 3 ** k


def test_coassociativity():
    for k in DEGREES:
        a = tensor_monomial(k)
        left = delta_slot(delta_slot(a, 0), 0)
        right = delta_slot(delta_slot(a, 0), 1)
        assert left == right


def test_cocommutativity():
    for k in DEGREES:
        d = delta_slot(tensor_monomial(k), 0)
        flipped = {(j, i): c for (i, j), c in d.items()}
        assert d == flipped


def test_counit_axiom():
    for k in DEGREES:
        d = delta_slot(tensor_monomial(k), 0)
        assert counit_slot(d, 0) == tensor_monomial(k)
        assert counit_slot(d, 1) == tensor_monomial(k)


def test_antipode_axiom():
    # m(S (x) id)Delta = unit . counit on monomials
    for k in DEGREES:
        d = delta_slot(tensor_monomial(k), 0)
        collapsed = mult_slots(antipode_slot(d, 0), 0)
        expected = tensor_monomial(0) if k == 0 else {}
        assert collapsed == expected
        collapsed = mult_slots(antipode_slot(d, 1), 0)
        assert collapsed == expected


def test_antipode_sign():
    assert [antipode_sign(k) for k in range(4)] == [1, -1, 1, -1]
