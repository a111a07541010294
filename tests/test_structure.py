import itertools

import numpy as np
import pytest

import rla
from rla import Subspace
from rla.linalg import enumerate_subspaces

from conftest import all_vectors, brk, subspace_vectors


def brute_center(L):
    eye = np.eye(L.dim, dtype=np.int64)
    return {tuple(int(x) for x in v) for v in all_vectors(L.dim, L.p)
            if all(not brk(L, eye[i], v).any() for i in range(L.dim))}


def test_center_matches_vector_scan(heis2u, heis2t, heis3):
    for L in (heis2u, heis2t, heis3,
              rla.two_dim_nonabelian(3).algebra,
              rla.final_remark_algebra(2).algebra):
        assert subspace_vectors(rla.center(L)) == brute_center(L)


def test_centralizer_and_normalizer(heis2u):
    x_line = Subspace.from_rows(np.array([[1, 0, 0]], dtype=np.int64), 2, 3)
    cent = rla.centralizer(heis2u, x_line)
    eye = np.eye(3, dtype=np.int64)
    brute_cent = {tuple(int(c) for c in v) for v in all_vectors(3, 2)
                  if not brk(heis2u, v, eye[0]).any()}
    assert subspace_vectors(cent) == brute_cent
    norm = rla.normalizer(heis2u, x_line)
    brute_norm = {tuple(int(c) for c in v) for v in all_vectors(3, 2)
                  if x_line.contains_vector(brk(heis2u, v, eye[0]))}
    assert subspace_vectors(norm) == brute_norm


def test_derived_and_series(heis2u):
    assert rla.derived(heis2u).basis.tolist() == [[0, 0, 1]]
    dims = [s.dim for s in rla.lower_central_series(heis2u)]
    assert dims == [3, 1, 0]
    assert rla.nilpotency_class(heis2u) == 2
    assert rla.nilpotency_class(rla.torus(2, 3).algebra) == 1
    with pytest.raises(rla.PreconditionError):
        rla.nilpotency_class(rla.two_dim_nonabelian(5).algebra)


def test_nilpotency_flags():
    assert rla.is_nilpotent(rla.heisenberg(3).algebra)
    assert not rla.is_nilpotent(rla.two_dim_nonabelian(2).algebra)
    assert not rla.is_nilpotent(rla.final_remark_algebra(3).algebra)


def test_maximal_torus_values(heis2u, heis2t):
    assert rla.maximal_torus(heis2u).dim == 0
    t = rla.maximal_torus(heis2t)
    assert t.dim == 1 and t.contains_vector(np.array([0, 0, 1]))
    assert rla.maximal_torus(rla.torus(3, 5).algebra).dim == 3
    assert rla.is_p_unipotent(heis2u)
    assert not rla.is_p_unipotent(heis2t)


def test_maximal_torus_of_mixed_abelian():
    # e0^[2] = e1, e1^[2] = e1: the semisimple part of e0 is e1
    pmap = np.array([[0, 1], [0, 1]], dtype=np.int64)
    L = rla.RestrictedLieAlgebra(2, np.zeros((2, 2, 2), dtype=np.int64), pmap)
    t = rla.maximal_torus(L)
    assert t.dim == 1 and t.contains_vector(np.array([0, 1]))


def test_p_closure_growth(heis2t):
    seed = Subspace.from_rows(np.array([[0, 1, 1]], dtype=np.int64), 2, 3)
    closed = rla.p_closure(heis2t, seed)
    # (y + z)^[2] = z joins the span
    assert closed.dim == 2
    assert closed.contains_vector(np.array([0, 0, 1]))
    again = rla.p_closure(heis2t, closed)
    assert again == closed


def test_subalgebra_and_ideal_predicates(heis2u):
    xz = Subspace.from_rows(np.array([[1, 0, 0], [0, 0, 1]], dtype=np.int64), 2, 3)
    xy = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64), 2, 3)
    assert rla.is_subalgebra(heis2u, xz)
    assert rla.is_p_ideal(heis2u, xz)
    assert not rla.is_subalgebra(heis2u, xy)  # [x, y] = z lands outside
    assert not rla.is_ideal(heis2u, xy)
    assert rla.is_abelian_subspace(heis2u, xz)


def test_maximal_abelian_p_ideal_heisenberg(heis2u, heis2t):
    for L in (heis2u, heis2t):
        a = rla.maximal_abelian_p_ideal(L)
        assert a.basis.tolist() == [[1, 0, 0], [0, 0, 1]]


def test_maximal_abelian_p_ideal_against_subspace_scan(heis2u, heis3):
    for L in (heis2u, heis3):
        flagged = [s for s in enumerate_subspaces(L.dim, L.p)
                   if s.dim < L.dim
                   and rla.is_p_ideal(L, s) and rla.is_abelian_subspace(L, s)]
        maximal = [s for s in flagged
                   if not any(t.contains(s) and t.dim > s.dim for t in flagged)]
        greedy = rla.maximal_abelian_p_ideal(L)
        assert greedy in maximal
        zen = rla.center(L)
        for s in maximal:
            assert rla.centralizer(L, s) == s
            assert s.contains(zen) and zen.dim < s.dim


def test_codim1_max_p_ideals(heis2u, heis2t, heis3):
    for L in (heis2u, heis2t, heis3):
        ideals = rla.codim1_max_p_ideals(L)
        count = 3 if L.p == 2 else 4
        assert len(ideals) == count
        torus = rla.maximal_torus(L)
        for i in ideals:
            assert i.dim == 2
            assert rla.is_p_ideal(L, i)
            assert i.contains(torus)
    # the hyperplanes over derived + torus + p-map images are pairwise
    # distinct, one per projective point of GF(p)^m, m their codimension
    enumerated = [e.algebra for p, n, step in ((2, 3, 23), (2, 4, 4999),
                                               (3, 2, 7), (3, 3, 997))
                  for e in itertools.islice(rla.enumerate_nilpotent(p, n), 0, None, step)]
    checked = 0
    for L in [heis2u, heis2t, heis3] + enumerated:
        torus = rla.maximal_torus(L)
        if torus.dim == L.dim:
            continue
        rows = np.vstack([rla.derived(L).basis, torus.basis, L.pmap])
        m = L.dim - Subspace.from_rows(rows, L.p, L.dim).dim
        ideals = rla.codim1_max_p_ideals(L)
        assert len(ideals) == len(set(ideals)) == (L.p ** m - 1) // (L.p - 1)
        assert all(h.dim == L.dim - 1 for h in ideals)
        checked += 1
    assert checked >= 10
    with pytest.raises(rla.PreconditionError):
        rla.codim1_max_p_ideals(rla.torus(2, 2).algebra)
    with pytest.raises(rla.PreconditionError):
        rla.codim1_max_p_ideals(rla.two_dim_nonabelian(2).algebra)


def test_bracket_space(heis2u):
    full = Subspace.full(3, 2)
    assert rla.bracket_space(heis2u, full, full) == rla.derived(heis2u)
    zen = rla.center(heis2u)
    assert rla.bracket_space(heis2u, full, zen).dim == 0
