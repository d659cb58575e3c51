"""The normalization tables of pseudo, and the twist plans made from them.

_slot_table and _product_table replace the expansion through coproduct
splits that the normalizer used to walk on every call.  The tests compare
pseudo_product and act_spread with that unfused expansion, which is kept
here as the reference, and check that the tables stay within
DEGREE_BOUND.  act_spread reads each twist through a plan made from
_slot_table; the plans are checked against the unfused expansion too, and
like the tables they are kept for the process by an lru_cache.
"""

import itertools
import random
from fractions import Fraction

import pytest

from divaria import pseudo
from divaria.current import CurrentPA
from divaria.envelope import build_envelope, oracle_sweep
from divaria.errors import ResourceError
from divaria.fd import corpus
from divaria.hopf import coproduct_splits
from divaria.perms import symmetric_group
from divaria.pseudo import Spread, accumulate, act_spread, pseudo_product

CORPUS = dict(corpus())
ALGEBRAS = ["leibniz3", "sl2", "bar-unit", "current2"]


def _algebra(name):
    return CurrentPA(2) if name == "current2" else build_envelope(CORPUS[name])


# ---------------------------------------------------------------------------
# the unfused expansion: every split of every coproduct, one at a time
# ---------------------------------------------------------------------------

def normalize_into(alg, acc: dict, full_exps: tuple, elem, coeff=1):
    """Add T^{full_exps} (x)_H elem, slot n eliminated split by split."""
    n = len(full_exps)
    kn = full_exps[-1]
    if kn == 0:
        accumulate(alg, acc, full_exps[:-1], elem, coeff)
        return
    for split, multi in coproduct_splits(kn, n):
        sign = -1 if (kn - split[-1]) & 1 else 1
        shifted = alg.t_pow(elem, split[-1])
        key = tuple(full_exps[i] + split[i] for i in range(n - 1))
        accumulate(alg, acc, key, shifted, coeff * sign * multi)


def unfused_product(alg, f: Spread, g: Spread) -> Spread:
    k, m = f.n, g.n
    acc: dict = {}
    for mu, fe in f.terms.items():
        for nu, ge in g.terms.items():
            for p, q, c in alg.base_product(fe, ge):
                if alg.is_zero(c):
                    continue
                for ps, m1 in coproduct_splits(p, k):
                    for qs, m2 in coproduct_splits(q, m):
                        full = (tuple(mu[i] + ps[i] for i in range(k - 1)) + (ps[-1],)
                                + tuple(nu[i] + qs[i] for i in range(m - 1)) + (qs[-1],))
                        normalize_into(alg, acc, full, c, m1 * m2)
    return Spread.of_terms(alg, k + m, acc)


def unfused_act(alg, f: Spread, sigma) -> Spread:
    n = f.n
    acc: dict = {}
    for exps, elem in f.terms.items():
        full = exps + (0,)
        moved = [0] * n
        for i in range(n):
            moved[sigma[i] - 1] = full[i]
        normalize_into(alg, acc, tuple(moved), elem)
    return Spread.of_terms(alg, n, acc)


def same(alg, got: Spread, want: Spread) -> bool:
    """Equal by subtraction, and got holds no zero term."""
    diff = dict(got.terms)
    for k, v in want.terms.items():
        accumulate(alg, diff, k, v, -1)
    return not diff and not any(alg.is_zero(v) for v in got.terms.values())


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------

def random_element(alg, rng, top: int = 3):
    """A nonzero combination of T-powers (up to T^top) of generators."""
    gens = [g for _name, g in alg.generators()]
    out = alg.zero()
    while alg.is_zero(out):
        for _ in range(rng.randint(1, 3)):
            g = alg.t_pow(rng.choice(gens), rng.randint(0, top))
            coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
            out = alg.add(out, alg.scale(g, coeff))
    return out


def random_spread(alg, rng, n: int) -> Spread:
    terms = {tuple(rng.randint(0, 2) for _ in range(n - 1)): random_element(alg, rng)
             for _ in range(rng.randint(1, 3))}
    return Spread(alg, n, terms)


# ---------------------------------------------------------------------------
# the tables give the unfused expansion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALGEBRAS)
def test_pseudo_product_matches_the_unfused_expansion(name):
    alg = _algebra(name)
    rng = random.Random(11)
    nonzero = 0
    for k in range(1, 5):
        for m in range(1, 6 - k):
            for _ in range(3):
                f, g = random_spread(alg, rng, k), random_spread(alg, rng, m)
                got = pseudo_product(alg, f, g)
                assert same(alg, got, unfused_product(alg, f, g)), (k, m)
                nonzero += not got.is_zero()
    assert nonzero >= 8


def test_every_small_product_table_matches_the_unfused_expansion():
    # T^p E12 times T^q E21 in CurrentPA(2) has the one base term (p, q, E11),
    # so each product reads the table (p, q, k, m) alone
    cur = CurrentPA(2)
    for k in range(1, 5):
        for m in range(1, 6 - k):
            for p, q in itertools.product(range(5), repeat=2):
                f = Spread(cur, k, {(0,) * (k - 1): {(p, 0, 1): 1}})
                g = Spread(cur, m, {(1,) * (m - 1): {(q, 1, 0): 1}})
                assert cur.base_product(f.terms[(0,) * (k - 1)], g.terms[(1,) * (m - 1)]) \
                    == [(p, q, {(0, 0, 0): 1})]
                assert same(cur, pseudo_product(cur, f, g), unfused_product(cur, f, g)), \
                    (p, q, k, m)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_act_spread_matches_the_unfused_expansion(name):
    alg = _algebra(name)
    rng = random.Random(12)
    for n in range(1, 5):
        for _ in range(2):
            f = random_spread(alg, rng, n)
            assert not f.is_zero()
            for sigma in symmetric_group(n):
                assert same(alg, act_spread(alg, f, sigma), unfused_act(alg, f, sigma)), sigma


# ---------------------------------------------------------------------------
# the degree bound and the size of the tables
# ---------------------------------------------------------------------------

TABLES = ("_product_table", "_slot_table")


def _sizes() -> tuple:
    return tuple(getattr(pseudo, name).cache_info().currsize for name in TABLES)


def test_over_the_bound_raises_before_a_table_entry(monkeypatch):
    # six slots and T^3 make keys that nothing else looks up
    monkeypatch.setattr(pseudo, "DEGREE_BOUND", 2)
    env = build_envelope(CORPUS["leibniz2"])
    x = env.t_pow(env.basis_a(0), 3)
    before = _sizes()
    with pytest.raises(ResourceError, match="exceeds cap 2"):
        pseudo_product(env, Spread(env, 3, {(0, 0): x}), Spread(env, 3, {(0, 0): x}))
    with pytest.raises(ResourceError, match="T-degree 3 exceeds cap 2"):
        act_spread(env, Spread(env, 6, {(3, 0, 0, 0, 0): env.basis_a(0)}), (6, 5, 4, 3, 2, 1))
    assert _sizes() == before


def test_table_keys_stay_within_the_bound_after_criterion_08(monkeypatch):
    # every table entry is made through a lookup: record the lookups of a
    # fresh criterion-08 sweep, then they are exactly the cached keys
    seen = {}
    for name in TABLES:
        table = getattr(pseudo, name)
        table.cache_clear()
        keys = seen[name] = set()

        def recording(*key, table=table, keys=keys):
            keys.add(key)
            return table(*key)
        monkeypatch.setattr(pseudo, name, recording)
    rng = random.Random(88)
    for name, d in corpus():  # the sweep and draws of criterion 08
        env = build_envelope(d)

        def one_pair(n):
            if not env.c1_basis:
                return []
            return [(env.c1_basis[rng.randrange(len(env.c1_basis))],
                     tuple(rng.randrange(d.dim) for _ in range(n - 1))) for _ in range(3)]

        assert oracle_sweep(env, 4, one_pair)[0] is None, name
    monkeypatch.undo()
    assert _sizes() == tuple(len(seen[name]) for name in TABLES)
    assert all(len(keys) > 1 for keys in seen.values())
    assert all(v <= pseudo.DEGREE_BOUND for keys in seen.values() for key in keys for v in key)


# ---------------------------------------------------------------------------
# the sweep sees the tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", TABLES)
def test_flipped_table_coefficient_is_a_mismatch(monkeypatch, name):
    # the recursive side reads every value through the tables, so one
    # coefficient with its sign flipped shows in the sweep
    env = build_envelope(CORPUS["leibniz2"])
    assert oracle_sweep(env, 3, lambda n: [])[0] is None
    table, products, plans = getattr(pseudo, name), pseudo._product_table, pseudo._twist_plan

    def flipped(*key):
        *rest, (off, power, coeff) = table(*key)
        return (*rest, (off, power, -coeff))
    monkeypatch.setattr(pseudo, name, flipped)
    plans.cache_clear()  # kept plans were made from the unflipped slot tables
    try:
        bad, _checked = oracle_sweep(build_envelope(CORPUS["leibniz2"]), 3, lambda n: [])
    finally:  # product tables and plans made meanwhile read the flipped slot tables
        products.cache_clear()
        plans.cache_clear()
    assert bad is not None


# ---------------------------------------------------------------------------
# the twist plans of act_spread
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALGEBRAS)
def test_planned_twists_match_the_unfused_expansion(name):
    # the second pass reads every plan back from _twist_plan
    alg = _algebra(name)
    rng = random.Random(13)
    plans = pseudo._twist_plan
    spreads = [random_spread(alg, rng, n) for n in range(1, 5) for _ in range(2)]
    for _ in range(2):
        before = plans.cache_info()
        for f in spreads:
            for sigma in symmetric_group(f.n):
                got = act_spread(alg, f, sigma)
                assert same(alg, got, unfused_act(alg, f, sigma)), sigma
    after = plans.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == sum(len(f.terms) * len(symmetric_group(f.n))
                                           for f in spreads)


def _sweep(env, max_arity):
    d = env.A.dim
    rng = random.Random(7)
    return oracle_sweep(env, max_arity, lambda n: [(rng.choice(env.c1_basis),
                                                    tuple(rng.randrange(d) for _ in range(n - 1)))])


def test_a_second_sweep_makes_no_plan(monkeypatch):
    # a plan depends on its key alone: a fresh envelope swept again reads
    # every plan back, and each kept plan is the one its key makes
    plans, keys = pseudo._twist_plan, set()

    def recording(*key):
        keys.add(key)
        return plans(*key)
    monkeypatch.setattr(pseudo, "_twist_plan", recording)
    assert _sweep(build_envelope(CORPUS["sl2"]), 4)[0] is None
    misses = plans.cache_info().misses
    assert _sweep(build_envelope(CORPUS["sl2"]), 4)[0] is None
    assert plans.cache_info().misses == misses
    assert any(len(sigma) == 4 for _exps, sigma, _n in keys)
    assert all(plans(*key) == plans.__wrapped__(*key) for key in keys)


def test_a_fresh_envelope_reads_a_patched_slot_table(monkeypatch):
    # plans are made from the slot table of their time: with the plan and
    # product tables cleared, a fresh envelope swept after the slot table
    # changes builds its plans from the changed table
    assert _sweep(build_envelope(CORPUS["leibniz2"]), 3)[0] is None
    table, products, plans = pseudo._slot_table, pseudo._product_table, pseudo._twist_plan

    def flipped(*key):
        *rest, (off, power, coeff) = table(*key)
        return (*rest, (off, power, -coeff))
    monkeypatch.setattr(pseudo, "_slot_table", flipped)
    products.cache_clear()
    plans.cache_clear()
    try:
        bad, _checked = _sweep(build_envelope(CORPUS["leibniz2"]), 3)
        assert bad is not None
    finally:  # product tables and plans made meanwhile read the flipped slot tables
        products.cache_clear()
        plans.cache_clear()
