"""Module validation, restricted H^1, freeness, and cocycle transfer."""

import numpy as np
import pytest

import rla
from rla import (BudgetExceededError, Cochain, ModuleValidationError,
                 PreconditionError, RestrictedModule, Subspace)
from conftest import (all_vectors, brute_coboundaries, brute_cocycles,
                      subspace_vectors)


def jordan_action(p, sizes):
    """one_dim_nil(p) acting by a nilpotent Jordan matrix with given blocks."""
    n = rla.one_dim_nil(p).algebra
    m = sum(sizes)
    j = np.zeros((m, m), dtype=np.int64)
    off = 0
    for s in sizes:
        for k in range(s - 1):
            j[off + k, off + k + 1] = 1
        off += s
    return n, RestrictedModule(n, j[None, :, :])


def test_adjoint_module_validates(heis2u, heis2t, heis3):
    for L in (heis2u, heis2t, heis3, rla.two_dim_nonabelian(3).algebra,
              rla.final_remark_algebra(2).algebra):
        m = rla.adjoint_module(L)
        assert m.mdim == L.dim
        for i in range(L.dim):
            e = np.eye(L.dim, dtype=np.int64)[i]
            assert np.array_equal(m.action(e), L.ad(e))


def test_module_rejects_non_representation(heis2u):
    rho = heis2u.ad_basis.copy()
    rho[0, 0, 0] = 1  # breaks [x,y] compatibility
    with pytest.raises(ModuleValidationError, match="representation"):
        RestrictedModule(heis2u, rho)


def test_module_rejects_unrestricted_action():
    # a single nilpotent generator with t^[2] = 0 cannot act by a Jordan
    # block of size 3: the square of the action matrix is nonzero
    with pytest.raises(ModuleValidationError, match="restricted"):
        jordan_action(2, (3,))


def test_module_rejects_bad_shape(heis2u):
    with pytest.raises(ValueError):
        RestrictedModule(heis2u, np.zeros((2, 3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        RestrictedModule(heis2u, np.zeros((3, 3, 2), dtype=np.int64))


def test_module_algebra_mismatch(heis2u, heis2t):
    with pytest.raises(ValueError):
        rla.z1(heis2u, rla.adjoint_module(heis2t))


def test_adjoint_cocycles_are_restricted_derivations(heis2u, heis2t, heis3):
    for L in (heis2u, heis2t, heis3, rla.torus(2, 3).algebra,
              rla.two_dim_nonabelian(3).algebra,
              rla.final_remark_algebra(2).algebra,
              rla.one_dim_nil(5).algebra):
        m = rla.adjoint_module(L)
        assert rla.z1(L, m) == rla.der_p(L)
        assert rla.b1(L, m) == rla.inner(L)
        assert rla.h1_dim(L, m) == rla.h1_adjoint_dim(L)


def test_trivial_module_cocycles_brute(heis2u, heis2t):
    # functionals killing every bracket and every p-power value
    for L, expect in ((heis2u, 2), (heis2t, 2), (rla.torus(2, 3).algebra, 0)):
        zs = rla.z1(L, rla.trivial_module(L))
        want = set()
        for f in all_vectors(L.dim, L.p):
            ok = all((f @ L.sc[i, j]) % L.p == 0
                     for i in range(L.dim) for j in range(i + 1, L.dim))
            ok = ok and all((f @ L.pmap[i]) % L.p == 0 for i in range(L.dim))
            if ok:
                want.add(tuple(int(x) for x in f))
        assert subspace_vectors(zs) == want
        assert zs.dim == expect
        assert rla.b1(L, rla.trivial_module(L)).dim == 0


def _oracle_modules(heis2u, heis2t, heis3):
    """(algebra, module) pairs: trivial of dims 1 and 2, adjoint, and the
    modules induced on the quotients of the Heisenberg algebras."""
    algebras = (heis2u, heis2t, heis3, rla.torus(2, 3).algebra,
                rla.two_dim_nonabelian(3).algebra,
                rla.final_remark_algebra(2).algebra, rla.one_dim_nil(5).algebra)
    for L in algebras:
        yield L, rla.trivial_module(L, 1)
        yield L, rla.trivial_module(L, 2)
        yield L, rla.adjoint_module(L)
    for L in (heis2u, heis3):
        a = rla.maximal_abelian_p_ideal(L)
        qa = rla.quotient(L, a)
        for w in (a, rla.centralizer(L, a)):
            yield qa.algebra, rla.induced_module(L, qa, w)
        qz = rla.quotient(L, rla.center(L))
        yield qz.algebra, rla.induced_module(L, qz, Subspace.full(L.dim, L.p))


def test_cocycles_and_coboundaries_match_brute_force(heis2u, heis2t, heis3):
    for L, m in _oracle_modules(heis2u, heis2t, heis3):
        zs, bs = rla.z1(L, m), rla.b1(L, m)
        assert subspace_vectors(zs) == brute_cocycles(L, m.rho)
        assert subspace_vectors(bs) == brute_coboundaries(L, m.rho)


def test_invariants_of_adjoint_equal_center(heis2u, heis2t, heis3):
    for L in (heis2u, heis2t, heis3, rla.two_dim_nonabelian(3).algebra,
              rla.final_remark_algebra(2).algebra):
        assert rla.invariants(L, rla.adjoint_module(L)) == rla.center(L)


def test_socle_over_unipotent_quotient(heis2u):
    q = rla.quotient(heis2u, rla.center(heis2u))
    m = rla.induced_module(heis2u, q, Subspace.full(3, 2))
    assert rla.is_p_unipotent(q.algebra)
    soc = rla.socle_unipotent(q.algebra, m)
    assert soc == Subspace.from_rows(np.array([[0, 0, 1]]), 2, 3)


def test_socle_requires_unipotent():
    t = rla.torus(1, 3).algebra
    with pytest.raises(PreconditionError):
        rla.socle_unipotent(t, rla.adjoint_module(t))


def test_freeness_by_jordan_blocks():
    # free over u(n) exactly when every block has size p
    for p, sizes, expect in (
            (2, (2, 2), (True, 2)),
            (2, (2,), (True, 1)),
            (2, (2, 1), (False, 2)),
            (2, (1,), (False, 1)),
            (3, (3,), (True, 1)),
            (3, (3, 1), (False, 2)),
            (3, (2, 2), (False, 2))):
        n, m = jordan_action(p, sizes)
        assert rla.is_free_over_unipotent(n, m) == expect


def test_freeness_requires_unipotent():
    t = rla.torus(2, 2).algebra
    with pytest.raises(PreconditionError):
        rla.is_free_over_unipotent(t, rla.adjoint_module(t))


def test_adjoint_not_free_for_toral_center_heisenberg(heis2t):
    # the unipotent quotient has dimension 2, so a free module would have
    # dimension a multiple of 2^2 = 4 > 3
    q = rla.quotient(heis2t, rla.center(heis2t))
    m = rla.induced_module(heis2t, q, Subspace.full(3, 2))
    free, rank = rla.is_free_over_unipotent(q.algebra, m)
    assert (free, rank) == (False, 2)
    assert heis2t.p ** q.algebra.dim > heis2t.dim


def test_induced_module_hand_values(heis2u):
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 2, 3)
    q = rla.quotient(heis2u, a)
    m = rla.induced_module(heis2u, q, a)
    assert q.algebra.dim == 1
    # basis of a is (x, z); the transversal generator y sends x to z
    assert np.array_equal(m.rho[0], np.array([[0, 0], [1, 0]]))


def test_induced_module_guards(heis2u):
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 2, 3)
    zen = rla.center(heis2u)
    with pytest.raises(PreconditionError, match="trivially"):
        rla.induced_module(heis2u, rla.quotient(heis2u, a), Subspace.full(3, 2))
    with pytest.raises(PreconditionError, match="stable"):
        rla.induced_module(heis2u, rla.quotient(heis2u, zen),
                           Subspace.from_rows(np.array([[0, 1, 0]]), 2, 3))


def test_gamma_witness_for_odd_heisenberg(heis3):
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 3, 3)
    c = rla.gamma_nontrivial(heis3, a, a)
    assert c is not None
    # a restricted cocycle of the quotient with values in a, not a coboundary
    vec = c.matrix.reshape(-1)
    assert rla.z1(c.quotient.algebra, c.module).contains_vector(vec)
    assert not rla.b1(c.quotient.algebra, c.module).contains_vector(vec)
    d = rla.lift_cocycle(heis3, a, c)
    assert d.is_restricted and d.is_square_zero and not d.is_inner
    assert not (d.matrix @ a.basis.T % 3).any()


def test_gamma_trivial_in_characteristic_two(heis2u, heis2t):
    # the p-power cocycle condition forces every candidate to be a coboundary
    for L in (heis2u, heis2t):
        a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 2, 3)
        assert rla.gamma_nontrivial(L, a, a) is None


def test_gamma_guards(heis2u):
    zen = rla.center(heis2u)
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 2, 3)
    with pytest.raises(PreconditionError, match="inside the ideal"):
        rla.gamma_nontrivial(heis2u, zen, a)
    with pytest.raises(PreconditionError, match="centralize"):
        rla.gamma_nontrivial(heis2u, Subspace.full(3, 2), a)
    with pytest.raises(PreconditionError, match="p-ideal"):
        rla.gamma_nontrivial(
            heis2u, Subspace.from_rows(np.array([[1, 0, 0]]), 2, 3), zen)


def test_lift_cocycle_guards(heis3):
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 3, 3)
    c = rla.gamma_nontrivial(heis3, a, a)
    bad = Cochain(matrix=np.zeros((3, 1), dtype=np.int64), values=a,
                  quotient=c.quotient, module=c.module)
    with pytest.raises(PreconditionError, match="shape"):
        rla.lift_cocycle(heis3, a, bad)
    with pytest.raises(PreconditionError, match="outside"):
        rla.lift_cocycle(heis3, a, c, j=rla.center(heis3))
    # the cochain lives on L/a: another p-ideal, even one of the same
    # dimension, has another projection
    b = Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]]), 3, 3)
    assert rla.is_p_ideal(heis3, b)
    for other in (b, rla.center(heis3)):
        with pytest.raises(PreconditionError, match="another ideal"):
            rla.lift_cocycle(heis3, other, c)


def test_p_complement_heisenberg(heis2u):
    for rows in ([[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]]):
        a = Subspace.from_rows(np.array(rows), 2, 3)
        h = rla.find_p_complement(heis2u, a)
        assert h is not None
        assert a.sum(h).dim == 3
        assert a.intersection(h) == rla.center(heis2u)
        assert rla.is_p_subalgebra(heis2u, h)
        # the full list of valid complements, by direct enumeration
        valid = [s for s in rla.enumerate_subspaces(3, 2, (2,))
                 if a.sum(s).dim == 3
                 and a.intersection(s) == rla.center(heis2u)
                 and rla.is_p_subalgebra(heis2u, s)]
        assert valid and any(h == s for s in valid)


def test_p_complement_nonnilpotent():
    L = rla.two_dim_nonabelian(2).algebra
    a = Subspace.from_rows(np.array([[0, 1]]), 2, 2)
    h = rla.find_p_complement(L, a)
    assert h is not None and a.intersection(h).dim == 0
    assert rla.is_p_subalgebra(L, h)


def test_p_complement_guards(heis2u):
    with pytest.raises(PreconditionError):
        rla.find_p_complement(heis2u, Subspace.full(3, 2))  # not abelian
    with pytest.raises(PreconditionError):
        # abelian p-ideal that misses the center
        L = rla.torus(2, 2).algebra
        rla.find_p_complement(L, Subspace.from_rows(np.array([[1, 0]]), 2, 2))


def test_p_complement_budget(heis2u):
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]]), 2, 3)
    with pytest.raises(BudgetExceededError):
        rla.find_p_complement(heis2u, a, budget=1)
