"""The tuple entries of the two evaluators: pseudo.eval_term_on_tuples
(check_var_pseudo) and envelope.closed_form_on_tuples (build_var_quotient)
give, on every tuple and in lex order, the sums of the values that
eval_term and closed_form_eval give on each word, one tuple at a time
(support.poly_value); they keep apart from each other
and refuse an enumeration past the tuple bound before any product."""

import functools
import itertools
import sys

import pytest

from divaria import envelope, errors, pseudo
from divaria.current import CurrentPA
from divaria.envelope import (EnvelopePA, ExtendedHom, build_envelope, build_var_quotient,
                              closed_form_on_tuples, extend_hom)
from divaria.errors import InputError, ResourceError
from divaria.conformal import build_rho
from divaria.fd import corpus, leibniz_to_dialgebra
from divaria.operads import IdentitySet
from divaria.pseudo import check_var_pseudo, eval_term_on_tuples, product
from divaria.varieties import builtin_identity_set
from support import (basis_tuple_values, closed_form_rows, first_generator_witness,
                     generator_tuple_values, gl, parse_expression, recursive_ideal)

VARIETIES = ("associative", "commutative", "alternative", "lie", "jordan")
# two proper subwords of different shapes on the same leaves x1, x2, x3:
# a table keyed by leaves alone would hand one's value to the other
SHAPES_APART = parse_expression("((x1*x2)*x3)*x4 - (x1*(x2*x3))*x4")
# the recursive references evaluate one tuple at a time, so arity-4 sweeps
# over all generator tuples run on the envelopes with at most this many
SMALL_GENERATORS = 5
# and on the raw envelopes with more than 8 generators (sl2 and
# uppertri2-diag, 12 each) the sweep takes the lie identities only
LARGE_GENERATORS = 8


def identity_sets():
    return [builtin_identity_set(name) for name in VARIETIES]


def distinct_identities() -> list:
    """The identities of the builtin varieties, each once (commutative and
    lie share one, for instance)."""
    return list(dict.fromkeys(t for sigma in identity_sets() for t in sigma))


@functools.lru_cache(maxsize=None)
def quotients() -> tuple:
    """(label, quotient envelope, identity set) for every corpus member and
    builtin variety whose quotient builds."""
    out = []
    for name, a in corpus():
        env = build_envelope(a)
        for sigma in identity_sets():
            try:
                vq = build_var_quotient(env, sigma)
            except InputError:
                continue
            out.append((f"{name}/{sigma.name}", vq.quotient, sigma))
    return tuple(out)


def same_values(got, want) -> bool:
    return (len(got) == len(want)
            and all(i == j and u.eq(v) for (i, u), (j, v) in zip(got, want)))


def same_witness(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got[0] is want[0] and got[1] == want[1] and got[2].eq(want[2])


def elements(alg) -> list:
    return [el for _name, el in alg.generators()]


# ---------------------------------------------------------------------------
# equal values on every tuple, in lex order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,a", corpus())
def test_recursive_entry_matches_eval_term_on_raw_envelopes(name, a):
    env = build_envelope(a)
    gens = elements(env)
    seen_nonzero = False
    large = len(gens) > LARGE_GENERATORS
    for t in builtin_identity_set("lie") if large else distinct_identities():
        if t.arity > 3 and len(gens) > SMALL_GENERATORS:
            continue
        want = generator_tuple_values(env, t, gens)
        assert same_values(list(eval_term_on_tuples(env, t, gens)), want), (name, t)
        seen_nonzero |= any(not v.is_zero() for _idx, v in want)
    assert seen_nonzero  # raw envelopes fail the identities somewhere


@pytest.mark.parametrize("name,a", corpus())
def test_closed_entry_matches_closed_form_eval_on_raw_envelopes(name, a):
    env = build_envelope(a)
    for t in distinct_identities():
        want = basis_tuple_values(env, t)
        assert same_values(list(closed_form_on_tuples(env, t)), want), (name, t)


def test_both_entries_match_on_the_quotients():
    checked = 0
    for label, q, sigma in quotients():
        gens = elements(q)
        for t in sigma:
            if t.arity <= 3 or len(gens) <= SMALL_GENERATORS:
                want = generator_tuple_values(q, t, gens)
                assert same_values(list(eval_term_on_tuples(q, t, gens)), want), (label, t)
            want = basis_tuple_values(q, t)
            assert same_values(list(closed_form_on_tuples(q, t)), want), (label, t)
            checked += 1
    assert checked > 30


@pytest.mark.parametrize("bracket", [False, True])
def test_recursive_entry_matches_eval_term_on_currents(bracket):
    cur = CurrentPA(2, bracket=bracket)
    gens = elements(cur)
    for name in ("associative", "lie"):
        for t in builtin_identity_set(name):
            want = generator_tuple_values(cur, t, gens)
            assert same_values(list(eval_term_on_tuples(cur, t, gens)), want), (name, t)


def shapes_apart_cases():
    """Envelopes on which SHAPES_APART does not vanish: raw leibniz3 (one
    generator tuple of 4,096) and the Lie quotient of sl2 (28 of 256)."""
    sl2 = build_envelope(dict(corpus())["sl2"])
    return [build_envelope(dict(corpus())["leibniz3"]),
            build_var_quotient(sl2, builtin_identity_set("lie")).quotient]


@pytest.mark.parametrize("case", [0, 1, None], ids=["leibniz3", "sl2-lie", "sl2"])
def test_subwords_of_two_shapes_on_the_same_leaves_stay_apart(case):
    t = SHAPES_APART
    if case is None:  # raw sl2 has 12 generators: the closed side only
        env = build_envelope(dict(corpus())["sl2"])
    else:
        env = shapes_apart_cases()[case]
        gens = elements(env)
        want = generator_tuple_values(env, t, gens)
        assert any(not v.is_zero() for _idx, v in want)
        assert same_values(list(eval_term_on_tuples(env, t, gens)), want)
    want = basis_tuple_values(env, t)
    assert any(not v.is_zero() for _idx, v in want)
    assert same_values(list(closed_form_on_tuples(env, t)), want)


# ---------------------------------------------------------------------------
# the same witness and the same ideal as one tuple at a time
# ---------------------------------------------------------------------------

def test_check_var_pseudo_gives_the_first_lex_witness():
    cases = [(name, build_envelope(a), sigma) for name, a in corpus() for sigma in identity_sets()]
    cases += [(label, q, sigma) for label, q, sigma in quotients() if label.endswith("/lie")]
    cases += [(f"current{int(b)}/{name}", CurrentPA(2, bracket=b), builtin_identity_set(name))
              for b in (False, True) for name in ("associative", "lie")]
    cases += [(f"shapes-apart{k}", env, IdentitySet("shapes-apart", (SHAPES_APART,)))
              for k, env in enumerate(shapes_apart_cases())]
    failed = 0
    for label, alg, sigma in cases:
        got, want = check_var_pseudo(alg, sigma), first_generator_witness(alg, sigma)
        assert same_witness(got, want), label
        failed += want is not None
    assert 0 < failed < len(cases)


def test_build_var_quotient_spans_the_reference_ideal():
    built = 0
    for name, a in corpus():
        env = build_envelope(a)
        for sigma in identity_sets():
            try:
                vq = build_var_quotient(env, sigma)
            except InputError:
                continue
            assert vq.ideal == closed_form_rows(env, sigma), (name, sigma.name)
            built += 1
    assert built == 20


def test_recursive_span_equals_the_ideal():
    # the closed forms span the ideal; a check of the quotient with the
    # recursive evaluator misses an ideal that is too large, and a span from
    # that evaluator sees it
    cases = [(name, build_envelope(a), sigma) for name, a in corpus() for sigma in identity_sets()]
    cases += [(f"gl{n}", build_envelope(leibniz_to_dialgebra(gl(n))), builtin_identity_set("lie"))
              for n in (2, 3, 4, 5)]
    built = 0
    for name, env, sigma in cases:
        try:
            vq = build_var_quotient(env, sigma)
        except InputError:
            continue
        assert vq.ideal == recursive_ideal(env, sigma), (name, sigma.name)
        built += 1
    assert built == 20 + 4


def test_build_var_quotient_names_the_first_failing_basis_tuple(monkeypatch):
    # with the dialgebra check off, the closed forms meet a nonzero degree-zero part
    monkeypatch.setattr(envelope, "first_witness", lambda a, identities: None)
    refused = 0
    for name, a in corpus():
        env = build_envelope(a)
        for sigma in identity_sets():
            try:
                closed_form_rows(env, sigma)
            except InputError as err:
                with pytest.raises(InputError) as got:
                    build_var_quotient(env, sigma)
                assert str(got.value) == str(err), (name, sigma.name)
                refused += 1
    assert refused == 15  # the 35 - 20 pairs whose quotient does not build


# ---------------------------------------------------------------------------
# each entry keeps to its own evaluator
# ---------------------------------------------------------------------------

def _forbid(*_args, **_kwargs):
    raise AssertionError("an entry called the other evaluator")


def test_closed_entry_never_reaches_the_recursive_evaluator(monkeypatch):
    cases = [(build_envelope(a), t) for _name, a in corpus() for t in distinct_identities()]
    cases += [(env, SHAPES_APART) for env in shapes_apart_cases()]
    with monkeypatch.context() as mp:
        for mod in [m for k, m in sys.modules.items() if k.startswith("divaria")]:
            for fn in ("eval_term", "_eval_plain", "pseudo_product", "eval_term_on_tuples"):
                if hasattr(mod, fn):
                    mp.setattr(mod, fn, _forbid)
        mp.setattr(EnvelopePA, "base_product", _forbid)
        mp.setattr(pseudo, "_product_table", _forbid)
        mp.setattr(pseudo, "_slot_table", _forbid)
        got = [list(closed_form_on_tuples(env, t)) for env, t in cases]
    for (env, t), values in zip(cases, got):
        assert same_values(values, basis_tuple_values(env, t))


def test_recursive_entry_never_reaches_the_closed_forms(monkeypatch):
    closed = [fn for fn in vars(envelope) if "closed" in fn or fn == "_word_values"]
    assert {"closed_form_eval", "closed_form_on_tuples", "_closed_sum", "_closed_join",
            "_closed_twist", "_word_values"} <= set(closed)
    cases = [(q, t) for label, q, sigma in quotients() for t in sigma if label.endswith("/lie")]
    cases += [(env, SHAPES_APART) for env in shapes_apart_cases()]
    raw, lie = build_envelope(dict(corpus())["leibniz2"]), builtin_identity_set("lie")
    with monkeypatch.context() as mp:
        for fn in closed:
            mp.setattr(envelope, fn, _forbid)
        got = [list(eval_term_on_tuples(alg, t, elements(alg))) for alg, t in cases]
        witness = check_var_pseudo(raw, lie)
    assert witness is not None and same_witness(witness, check_var_pseudo(raw, lie))
    for (alg, t), values in zip(cases, got):  # the equivalence tests compare with the references
        assert same_values(values, list(eval_term_on_tuples(alg, t, elements(alg))))


# ---------------------------------------------------------------------------
# the tuple guard comes first
# ---------------------------------------------------------------------------

def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return counted


def test_check_var_pseudo_refuses_before_any_product(monkeypatch):
    q = build_var_quotient(build_envelope(leibniz_to_dialgebra(gl(3))),
                           builtin_identity_set("lie")).quotient
    assert len(q.generators()) == 11
    calls: list = []
    monkeypatch.setattr(errors, "TUPLE_BOUND", 100)
    monkeypatch.setattr(pseudo, "pseudo_product", _counting(calls, pseudo.pseudo_product))
    with pytest.raises(ResourceError) as err:
        check_var_pseudo(q, builtin_identity_set("lie"))
    assert str(err.value) == "11^3 generator tuples: 1331 tuples exceed the enumeration bound 100"
    assert calls == []


def test_build_var_quotient_refuses_before_any_closed_form_product(monkeypatch):
    env = build_envelope(leibniz_to_dialgebra(gl(3)))
    calls: list = []
    monkeypatch.setattr(errors, "TUPLE_BOUND", 50)
    # the dialgebra check runs its own guard first: pass it, to reach the entry's
    monkeypatch.setattr(envelope, "first_witness", lambda a, identities: None)
    for fn in ("_word_values", "_closed_join", "_closed_twist", "_closed_sum"):
        monkeypatch.setattr(envelope, fn, _counting(calls, getattr(envelope, fn)))
    monkeypatch.setattr(env.A, "lprod", _counting(calls, env.A.lprod))
    monkeypatch.setattr(env.A, "rprod", _counting(calls, env.A.rprod))
    with pytest.raises(ResourceError) as err:
        build_var_quotient(env, builtin_identity_set("lie"))
    assert str(err.value) == "9^3 basis tuples: 729 tuples exceed the enumeration bound 50"
    assert calls == []


# ---------------------------------------------------------------------------
# extend_hom maps each generator once
# ---------------------------------------------------------------------------

def test_extend_hom_maps_each_generator_once(monkeypatch):
    g = gl(3)
    q = build_var_quotient(build_envelope(leibniz_to_dialgebra(g)),
                           builtin_identity_set("lie")).quotient
    rep = build_rho(g, "trivial")
    gens = q.generators()
    inner_terms = sum(len(product(q, x, y).terms)
                      for (_n, x), (_m, y) in itertools.product(gens, gens))
    built, applied = [], []
    monkeypatch.setattr(EnvelopePA, "generators", _counting(built, EnvelopePA.generators))
    monkeypatch.setattr(ExtendedHom, "apply", _counting(applied, ExtendedHom.apply))
    hom = extend_hom(q, rep.rho, rep.cur_lie)
    assert all(hom.checks.values()) and len(hom.checks) == 5
    assert len(built) == 1
    # each generator's image once, the image of its T-multiple for the
    # T-linearity check, and one image per term of an inner product
    assert len(applied) == 2 * len(gens) + inner_terms
