import numpy as np
import pytest

import rla
from rla import Derivation, Subspace
from rla.derivations import leibniz_defect, restricted_defect

from conftest import (all_vectors, brute_derivations,
                      brute_restricted_derivations, is_derivation_brute,
                      is_restricted_brute)


def space_matrices(space, n):
    return {tuple(int(x) for x in v) for v in
            (row for row in _vectors_of(space))}


def _vectors_of(space):
    import itertools
    for coeffs in itertools.product(range(space.p), repeat=space.dim):
        v = np.zeros(space.ambient_dim, dtype=np.int64)
        for c, row in zip(coeffs, space.basis):
            v = (v + c * row) % space.p
        yield v


def test_der_matches_brute_force(heis2u, heis2t):
    for L, expect_der, expect_der_p in ((heis2u, 6, 4), (heis2t, 6, 3)):
        brute = {tuple(m.reshape(-1)) for m in brute_derivations(L)}
        assert len(brute) == 2 ** expect_der
        assert rla.der(L).dim == expect_der
        assert space_matrices(rla.der(L), 3) == brute
        brute_p = {tuple(m.reshape(-1)) for m in brute_restricted_derivations(L)}
        assert len(brute_p) == 2 ** expect_der_p
        assert rla.der_p(L).dim == expect_der_p
        assert space_matrices(rla.der_p(L), 3) == brute_p
    # every GF(3) dim-2 table and every non-abelian GF(2) dim-3 table
    gf3 = [e.algebra for e in rla.enumerate_nilpotent(3, 2)]
    gf2 = [e.algebra for e in rla.enumerate_nilpotent(2, 3) if e.algebra.sc.any()]
    assert (len(gf3), len(gf2)) == (81, 8)
    for L in gf3 + gf2:
        brute = {tuple(m.reshape(-1)) for m in brute_derivations(L)}
        assert space_matrices(rla.der(L), L.dim) == brute
        brute_p = {tuple(m.reshape(-1)) for m in brute_restricted_derivations(L)}
        assert space_matrices(rla.der_p(L), L.dim) == brute_p


def test_inner_span(heis2u):
    inn = rla.inner(heis2u)
    assert inn.dim == 2
    for i in range(3):
        ad_i = heis2u.ad(np.eye(3, dtype=np.int64)[i])
        assert inn.contains_vector(ad_i.reshape(-1))
    assert rla.h1_adjoint_dim(heis2u) == 2
    assert rla.h1_adjoint_dim(rla.heisenberg(2, "toral_center").algebra) == 1


def test_defects_agree_with_brute(heis2t, rng):
    for _ in range(40):
        m = rng.integers(0, 2, size=(3, 3))
        assert (not leibniz_defect(heis2t, m).any()) == is_derivation_brute(heis2t, m)
    for m in brute_derivations(heis2t)[:16]:
        eye = np.eye(3, dtype=np.int64)
        basis_ok = all(not restricted_defect(heis2t, m, eye[i]).any() for i in range(3))
        assert basis_ok == is_restricted_brute(heis2t, m)


def test_derivation_class(heis2u):
    # sending z = [x,y] to x while killing x and y violates Leibniz
    with pytest.raises(rla.NotADerivationError):
        Derivation(heis2u, np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    ad_x = heis2u.ad(np.array([1, 0, 0]))
    d = Derivation(heis2u, ad_x)
    assert d.is_inner and d.is_restricted
    w = d.inner_witness
    assert np.array_equal(heis2u.ad(w), ad_x)
    proj = rla.explicit_h1_char2_outer(heis2u)
    assert not proj.is_inner
    assert not proj.is_square_zero and not proj.is_nilpotent


def test_outer_by_centralizer_criterion_true_branch():
    L = rla.RestrictedLieAlgebra(2, np.zeros((2, 2, 2), dtype=np.int64),
                                 np.zeros((2, 2), dtype=np.int64))
    ideal = Subspace.from_rows(np.array([[0, 1]], dtype=np.int64), 2, 2)
    d = rla.construct_case_derivation(L, ideal, np.array([1, 0]), np.array([0, 1]))
    assert rla.outer_by_centralizer_criterion(L, ideal, d)
    assert not d.is_inner and d.is_square_zero


def test_outer_by_centralizer_criterion_false_branch(heis2u):
    # D = ad(x) has image inside [L, Cent(ideal)]: criterion must refuse
    ideal = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]], dtype=np.int64), 2, 3)
    d = Derivation(heis2u, heis2u.ad(np.array([1, 0, 0])))
    assert not rla.outer_by_centralizer_criterion(heis2u, ideal, d)


def test_construct_case_derivation_guards(heis2u):
    ideal = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]], dtype=np.int64), 2, 3)
    with pytest.raises(rla.PreconditionError):
        rla.construct_case_derivation(heis2u, ideal, np.array([1, 0, 0]),
                                      np.array([0, 0, 1]))  # x inside the ideal
    with pytest.raises(rla.PreconditionError):
        rla.construct_case_derivation(heis2u, ideal, np.array([0, 1, 0]),
                                      np.array([0, 1, 0]))  # z outside Zen(ideal)


def test_find_square_zero_outer_absent(heis2u, heis2t):
    assert rla.find_square_zero_outer(rla.torus(2, 3).algebra) is None
    assert rla.find_square_zero_outer(heis2u) is None
    assert rla.find_square_zero_outer(heis2t) is None
    assert rla.find_square_zero_outer(rla.one_dim_nil(5).algebra) is None


def test_find_square_zero_outer_witness(heis3):
    d = rla.find_square_zero_outer(heis3)
    assert d is not None
    assert d.is_restricted and d.is_square_zero and not d.is_inner
    abelian = rla.RestrictedLieAlgebra(2, np.zeros((2, 2, 2), dtype=np.int64),
                                       np.zeros((2, 2), dtype=np.int64))
    d2 = rla.find_square_zero_outer(abelian)
    assert d2 is not None and d2.is_square_zero and not d2.is_inner


def test_find_square_zero_outer_requires_nilpotent():
    with pytest.raises(rla.PreconditionError):
        rla.find_square_zero_outer(rla.two_dim_nonabelian(2).algebra)


def test_find_nilpotent_outer(heis2u, heis3):
    assert rla.find_nilpotent_outer(heis2u) is None
    assert rla.find_nilpotent_outer(rla.one_dim_nil(3).algebra) is None
    d = rla.find_nilpotent_outer(heis3)
    assert d is not None
    assert d.is_nilpotent and d.is_restricted and not d.is_inner


def test_nilpotent_witness_certified_without_assert(heis3, monkeypatch):
    monkeypatch.setattr(Derivation, "is_nilpotent", property(lambda self: False))
    with pytest.raises(rla.CertificationError):
        rla.find_nilpotent_outer(heis3)


def test_inner_in_der_p_certified_without_assert(heis2u, monkeypatch):
    # a planted inner space outside der_p must fail certification
    full = rla.Subspace.full(9, 2)
    monkeypatch.setattr(rla.derivations, "inner", lambda L: full)
    with pytest.raises(rla.CertificationError):
        rla.h1_adjoint_dim(heis2u)


def test_budget_is_distinct_from_absence(heis2u):
    with pytest.raises(rla.BudgetExceededError) as exc:
        rla.find_square_zero_outer(heis2u, budget=3)
    assert exc.value.needed == 16 and exc.value.budget == 3


def test_explicit_witness_shape(heis2u, heis2t):
    for L in (heis2u, heis2t):
        d = rla.explicit_h1_char2_outer(L)
        assert d.matrix.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert np.array_equal((d.matrix @ d.matrix) % 2, d.matrix)
    with pytest.raises(rla.PreconditionError):
        rla.explicit_h1_char2_outer(rla.heisenberg(3).algebra)
    with pytest.raises(rla.PreconditionError):
        rla.explicit_h1_char2_outer(rla.torus(3, 2).algebra)


def test_restricted_defect_separates(heis2t):
    # some ordinary derivation of the toral-center algebra is not restricted
    in_der = space_matrices(rla.der(heis2t), 3)
    in_der_p = space_matrices(rla.der_p(heis2t), 3)
    flat = next(iter(in_der - in_der_p))
    m = np.array(flat, dtype=np.int64).reshape(3, 3)
    eye = np.eye(3, dtype=np.int64)
    assert any(restricted_defect(heis2t, m, eye[i]).any() for i in range(3))
    assert not leibniz_defect(heis2t, m).any()
