"""The one check that e_i -> images[i] carries both dialgebra products to
the coefficient products (pseudo.hom_failure), and its three callers, each
driven into its failure branch."""

import pytest

from divaria import cli, envelope
from divaria.conformal import build_rho, verify_representation
from divaria.envelope import build_envelope, build_var_quotient, extend_hom
from divaria.errors import InputError
from divaria.fd import FDDialgebra, abelian, leibniz2, leibniz_to_dialgebra, sl2
from divaria.pseudo import hom_failure
from divaria.varieties import builtin_identity_set

LIE = builtin_identity_set("lie")


def one_cell_tables(d: int, cells: dict) -> list:
    """A d x d table that is zero but at the given cells (i, j): k, where the
    product is the k-th basis vector (counted from 0)."""
    return [[tuple(int(cells.get((i, j)) == k) for k in range(d)) for j in range(d)]
            for i in range(d)]


def zero_dialgebra(d: int, left: dict, right: dict) -> FDDialgebra:
    return FDDialgebra(one_cell_tables(d, left), one_cell_tables(d, right))


def envelope_basis(env) -> list:
    return [env.basis_a(i) for i in range(env.A.dim)]


def test_hom_failure_names_the_failing_product():
    # B: e1 -| e1 = e2 and |- = 0, a 0-dialgebra (every triple product is 0)
    b = zero_dialgebra(2, {(0, 0): 1}, {})
    env = build_envelope(b)
    assert hom_failure(abelian(2), envelope_basis(env), env) == ("-|", 0, 0)
    swapped = build_envelope(zero_dialgebra(2, {}, {(0, 0): 1}))
    assert hom_failure(abelian(2), envelope_basis(swapped), swapped) == ("|-", 0, 0)
    assert hom_failure(b, envelope_basis(env), env) is None
    assert hom_failure(swapped.A, envelope_basis(swapped), swapped) is None


@pytest.mark.parametrize("left,right,want", [
    ({(1, 0): 2}, {(0, 1): 2}, ("|-", 0, 1)),   # pairs in lex order
    ({(0, 1): 2}, {(1, 0): 2}, ("-|", 0, 1)),
    ({(1, 1): 2}, {(1, 1): 2}, ("|-", 1, 1)),   # |- before -| at one pair
    ({(1, 1): 2}, {}, ("-|", 1, 1)),
])
def test_hom_failure_is_the_first_failure(left, right, want):
    # products land on e3, which annihilates everything: a 0-dialgebra
    env = build_envelope(zero_dialgebra(3, left, right))
    assert hom_failure(abelian(3), envelope_basis(env), env) == want
    assert hom_failure(env.A, envelope_basis(env), env) is None


def test_extend_hom_refuses_a_doubled_image():
    q = build_var_quotient(build_envelope(leibniz_to_dialgebra(leibniz2())), LIE).quotient
    phi = [q.scale(q.basis_a(0), 2), q.basis_a(1)]
    with pytest.raises(InputError) as err:
        extend_hom(q, phi, q)
    assert str(err.value) == "phi is not a dialgebra homomorphism (|- at 0,0)"


def test_verify_representation_reports_a_perturbed_rho():
    rep = build_rho(sl2(), "trivial")
    rep.rho[0] = rep.cur.scale(rep.rho[0], 2)
    report = verify_representation(rep)
    assert report.checks == {"rho1-product-vanishes": True, "operator-brackets": True,
                             "dialgebra-homomorphism": False, "faithful": True}
    assert report.failures == ["dialgebra-homomorphism: |- at (0,1)"]


def test_envelope_command_reports_a_failed_embedding(capsys, monkeypatch):
    seen = []

    def failing(a, images, alg):
        seen.append((a, images, alg))
        return ("-|", 0, 0)

    monkeypatch.setattr(cli, "hom_failure", failing)
    code = cli.main(["envelope", "--dialgebra", "leibniz2.json", "--variety", "lie"])
    out = capsys.readouterr().out
    assert code == 1
    assert "embedding into the coefficient dialgebra is not operation-preserving" in out
    (a, images, alg), = seen
    assert images == [alg.basis_a(i) for i in range(a.dim)] and alg.A is a


def test_a_quotient_checks_the_zero_dialgebra_axioms_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return is_zero(a)

    is_zero = envelope.is_zero_dialgebra
    monkeypatch.setattr(envelope, "is_zero_dialgebra", counted)
    build_var_quotient(build_envelope(leibniz_to_dialgebra(leibniz2())), LIE)
    assert len(calls) == 1
