import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rla
from rla.linalg import (Subspace, coeff_blocks, complements,
                        enumerate_subspaces, kernel, mat_pow, rref, solve)

from conftest import all_vectors, subspace_vectors


def test_kernel_matches_vector_scan():
    m = np.array([[1, 1, 0]], dtype=np.int64)
    k = kernel(m, 2)
    brute = {tuple(int(x) for x in v) for v in all_vectors(3, 2)
             if (m @ v % 2 == 0).all()}
    assert k.dim == 2
    assert subspace_vectors(k) == brute


def test_kernel_gf3():
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)  # rank 1 mod 3
    k = kernel(m, 3)
    assert k.dim == 1
    for v in subspace_vectors(k):
        assert ((m @ np.array(v)) % 3 == 0).all()


def test_solve_consistent_and_inconsistent():
    m = np.array([[1, 0], [1, 0]], dtype=np.int64)
    assert solve(m, np.array([1, 1]), 2) is not None
    assert solve(m, np.array([1, 0]), 2) is None
    # free variables come back as zero
    x = solve(np.array([[1, 1]], dtype=np.int64), np.array([1]), 2)
    assert x.tolist() == [1, 0]


def test_solve_random_consistent_systems():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(20):
            m = rng.integers(0, p, size=(3, 4))
            x = rng.integers(0, p, size=4)
            b = (m @ x) % p
            got = solve(m, b, p)
            assert got is not None
            assert ((m @ got) % p == b).all()


def test_mat_pow_matches_integer_powers():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for e in (0, 1, 2, 3, 5):
            m = rng.integers(0, p, size=(3, 3))
            expect = np.linalg.matrix_power(m, e) % p if e else np.eye(3, dtype=np.int64)
            assert np.array_equal(mat_pow(m, e, p), expect % p)


def test_subspace_canonical_and_membership():
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    s = Subspace.from_rows(rows, 2, 3)
    assert s.dim == 2
    vecs = subspace_vectors(s)
    for v in all_vectors(3, 2):
        assert s.contains_vector(v) == (tuple(int(x) for x in v) in vecs)
    # same span, different generators -> same canonical basis
    t = Subspace.from_rows(rows[::-1], 2, 3)
    assert s == t and hash(s) == hash(t)


def test_annihilator_and_coords():
    s = Subspace.from_rows(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64), 2, 3)
    ann = s.annihilator()
    assert ann.shape == (1, 3)
    assert ((ann @ s.basis.T) % 2 == 0).all()
    v = (s.basis[0] + s.basis[1]) % 2
    c = s.coords_of(v)
    assert ((c @ s.basis) % 2 == v).all()
    with pytest.raises(rla.PreconditionError):
        s.coords_of(np.array([0, 0, 1]))


def test_sum_intersection_known_values():
    a = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64), 2, 3)
    b = Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64), 2, 3)
    assert a.sum(b).dim == 3
    inter = a.intersection(b)
    assert inter.dim == 1
    assert inter.contains_vector(np.array([0, 1, 0]))


def test_complements_of_plane_in_gf2_cube():
    plane = Subspace.from_rows(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64), 2, 3)
    comps = list(complements(plane))
    assert len(comps) == 4
    for c in comps:
        assert c.dim == 1
        assert plane.sum(c).dim == 3
        assert plane.intersection(c).dim == 0
    assert len({c for c in comps}) == 4
    # brute count: lines of GF(2)^3 not inside the plane
    lines = [v for v in all_vectors(3, 2) if any(v) and not plane.contains_vector(v)]
    assert len(lines) == 4


def test_complements_of_zero_and_full_space():
    for p, n in ((2, 3), (3, 2)):
        assert list(complements(Subspace.zero(n, p))) == [Subspace.full(n, p)]
        assert list(complements(Subspace.full(n, p))) == [Subspace.zero(n, p)]


@pytest.mark.parametrize("n,k,p", [(3, 1, 2), (3, 2, 2), (4, 2, 2),
                                   (3, 1, 3), (3, 2, 3), (2, 1, 5)])
def test_complements_count_and_distinct(n, k, p):
    """A k-dimensional subspace of GF(p)^n has p^(k(n-k)) complements."""
    subs = list(enumerate_subspaces(n, p, [k]))
    for s in (subs[0], subs[len(subs) // 2], subs[-1]):
        comps = list(complements(s))
        assert len(comps) == len(set(comps)) == p ** (k * (n - k))
        for c in comps:
            assert c.dim == n - k and s.sum(c).dim == n
            assert s.intersection(c).dim == 0


def test_complements_budget():
    plane = Subspace.from_rows(np.eye(4, dtype=np.int64)[:2], 5, 4)
    with pytest.raises(rla.BudgetExceededError):
        list(complements(plane, budget=3))


def test_enumerate_subspaces_counts():
    assert sum(1 for _ in enumerate_subspaces(3, 2)) == 16
    assert sum(1 for _ in enumerate_subspaces(3, 3)) == 28
    assert sum(1 for _ in enumerate_subspaces(4, 2, [2])) == 35
    planes = list(enumerate_subspaces(3, 2, [2]))
    assert len(planes) == len(set(planes)) == 7
    for s in planes:
        assert s.dim == 2


def test_enumerate_subspaces_deterministic():
    a = [s.basis.tobytes() for s in enumerate_subspaces(4, 2)]
    b = [s.basis.tobytes() for s in enumerate_subspaces(4, 2)]
    assert a == b


def test_coeff_blocks_cover_all_tuples():
    rows = np.vstack(list(coeff_blocks(3, 3, block=7)))
    assert rows.shape == (27, 3)
    expect = np.array(list(itertools.product(range(3), repeat=3)))
    assert np.array_equal(rows, expect)
    empty = list(coeff_blocks(0, 2))
    assert len(empty) == 1 and empty[0].shape == (1, 0)


@st.composite
def gf_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return p, np.array(data, dtype=np.int64).reshape(rows, cols)


@given(gf_matrix())
@settings(max_examples=120, deadline=None)
def test_rref_idempotent_and_rank_nullity(pm):
    p, m = pm
    r, rank = rref(m, p)
    r2, rank2 = rref(r, p)
    assert rank == rank2
    assert np.array_equal(r, r2)
    assert kernel(m, p).dim == m.shape[1] - rank


@given(gf_matrix(), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_subspace_dim_formula(pm, seed):
    p, m = pm
    n = m.shape[1]
    rng = np.random.default_rng(seed)
    a = Subspace.from_rows(m, p, n)
    b = Subspace.from_rows(rng.integers(0, p, size=(2, n)), p, n)
    assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim
    assert a.annihilator().shape[0] == n - a.dim
