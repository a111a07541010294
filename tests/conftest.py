"""Shared fixtures and independent brute-force oracles.

The oracles recompute definitions from the structure tensor directly (inline
einsum contractions and integer matrix powers) so library results are checked
against something that shares no code path with them.
"""

import itertools

import numpy as np
import pytest

import rla


def all_vectors(n, p):
    """Every coordinate vector of GF(p)^n, lexicographic."""
    return [np.array(v, dtype=np.int64)
            for v in itertools.product(range(p), repeat=n)]


def all_matrices(n, p):
    for flat in itertools.product(range(p), repeat=n * n):
        yield np.array(flat, dtype=np.int64).reshape(n, n)


def brk(L, a, b):
    """[a, b] straight off the structure tensor."""
    return np.einsum("i,j,ijk->k", a % L.p, b % L.p, L.sc) % L.p


def ad_of(L, v):
    """Matrix of x -> [v, x] in the same column convention as Derivation."""
    return np.einsum("i,ijk->kj", v % L.p, L.sc) % L.p


def is_derivation_brute(L, m):
    n, p = L.dim, L.p
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            lhs = (m @ L.sc[i, j]) % p
            rhs = (brk(L, m[:, i], eye[j]) + brk(L, eye[i], m[:, j])) % p
            if not np.array_equal(lhs, rhs):
                return False
    return True


def is_restricted_brute(L, m):
    """D(x_i^[p]) = ad(x_i)^(p-1) applied to D(x_i), checked on the basis."""
    n, p = L.dim, L.p
    for i in range(n):
        lhs = (m @ L.pmap[i]) % p
        adp = np.linalg.matrix_power(ad_of(L, np.eye(n, dtype=np.int64)[i]),
                                     p - 1) % p
        rhs = (adp @ m[:, i]) % p
        if not np.array_equal(lhs, rhs):
            return False
    return True


def jacobson_brute(L, pmap):
    """ad(pmap[i]) = (ad x_i)^p for every basis index i, by integer matrix
    powers: the p-map table pmap is admissible on L's bracket."""
    eye = np.eye(L.dim, dtype=np.int64)
    return all(np.array_equal(
        ad_of(L, pmap[i]),
        np.linalg.matrix_power(ad_of(L, eye[i]), L.p) % L.p)
        for i in range(L.dim))


def brute_admissible_pmaps(L):
    """Every admissible p-map table on L's bracket, rows in lexicographic
    order (row 0 varying slowest)."""
    return [m for m in all_matrices(L.dim, L.p) if jacobson_brute(L, m)]


def is_nilpotent_brute(L):
    """Iterated brackets with the whole basis vanish within dim steps."""
    eye = np.eye(L.dim, dtype=np.int64)
    span = {tuple(v) for v in eye}
    for _ in range(L.dim):
        span = {tuple(brk(L, a, np.array(b))) for a in eye for b in span}
        span.discard((0,) * L.dim)
    return not span


def brute_derivations(L):
    return [m for m in all_matrices(L.dim, L.p) if is_derivation_brute(L, m)]


def brute_restricted_derivations(L):
    return [m for m in brute_derivations(L) if is_restricted_brute(L, m)]


def _all_cochains(L, m):
    """Every m x d matrix over GF(p), d = dim L, stacked."""
    flat = list(itertools.product(range(L.p), repeat=m * L.dim))
    return np.array(flat, dtype=np.int64).reshape(len(flat), m, L.dim)


def brute_cocycles(L, rho):
    """Every restricted 1-cocycle C: L -> M of the module with action matrices
    rho, by enumeration: C[x_i,x_j] = x_i.C(x_j) - x_j.C(x_i) for all pairs
    and C(x_i^[p]) = x_i^(p-1).C(x_i) by integer matrix powers. A set of
    row-major tuples."""
    p, d = L.p, L.dim
    cs = _all_cochains(L, rho.shape[1])
    ok = np.ones(len(cs), dtype=bool)
    for i in range(d):
        for j in range(d):
            lhs = cs @ L.sc[i, j]
            rhs = cs[:, :, j] @ rho[i].T - cs[:, :, i] @ rho[j].T
            ok &= ((lhs - rhs) % p == 0).all(axis=1)
        power = np.linalg.matrix_power(rho[i], p - 1)
        ok &= ((cs @ L.pmap[i] - cs[:, :, i] @ power.T) % p == 0).all(axis=1)
    return {tuple(int(x) for x in c.reshape(-1)) for c in cs[ok]}


def brute_coboundaries(L, rho):
    """Every coboundary x -> x.v, v running over the module: column t of its
    matrix is rho[t] @ v. A set of row-major tuples."""
    out = set()
    for v in all_vectors(rho.shape[1], L.p):
        c = np.array([rho[t] @ v for t in range(L.dim)],
                     dtype=np.int64).reshape(L.dim, rho.shape[1]).T % L.p
        out.add(tuple(int(x) for x in c.reshape(-1)))
    return out


def subspace_vectors(s):
    """All vectors of a Subspace, via coefficient enumeration of its basis."""
    out = []
    for coeffs in itertools.product(range(s.p), repeat=s.dim):
        v = np.zeros(s.ambient_dim, dtype=np.int64)
        for c, row in zip(coeffs, s.basis):
            v = (v + c * row) % s.p
        out.append(tuple(int(x) for x in v))
    return set(out)


_SUBSPACES = {}


def all_subspaces(n, p):
    """Every subspace of GF(p)^n as a frozenset of coordinate tuples, grown
    from the zero space by adjoining one vector at a time (memoized)."""
    if (n, p) in _SUBSPACES:
        return _SUBSPACES[(n, p)]
    vecs = list(itertools.product(range(p), repeat=n))
    found = {frozenset([(0,) * n])}
    frontier = list(found)
    while frontier:
        grown = []
        for s in frontier:
            for v in vecs:
                if v in s:
                    continue
                t = frozenset(tuple((a + c * b) % p for a, b in zip(u, v))
                              for u in s for c in range(p))
                if t not in found:
                    found.add(t)
                    grown.append(t)
        frontier = grown
    _SUBSPACES[(n, p)] = tuple(sorted(found, key=len))
    return _SUBSPACES[(n, p)]


def brute_p_ideals(L):
    """(ideals, center, torus) of a nilpotent L of class <= 2, by brute force
    over subspaces as sets of vectors: every proper p-ideal as a pair (set,
    abelian flag), the center, and the maximal torus as the periodic points
    of the p-power map on the center.

    p-powers use the closed form for class <= 2: linear in the table rows,
    plus sum_{i<j} c_i c_j [x_i, x_j] when p = 2 (for p >= 3 every
    correction term is a bracket of length p, which vanishes)."""
    n, p = L.dim, L.p
    eye = np.eye(n, dtype=np.int64)
    if any(brk(L, eye[i], brk(L, eye[j], eye[k])).any()
           for i, j, k in itertools.product(range(n), repeat=3)):
        raise ValueError("closed-form p-powers need nilpotency class <= 2")

    def key(v):
        return tuple(int(x) for x in v)

    vecs = all_vectors(n, p)
    ad = {(i, key(v)): key(brk(L, eye[i], v)) for i in range(n) for v in vecs}
    pp = {}
    for v in vecs:
        out = sum(int(v[i]) * L.pmap[i] for i in range(n))
        if p == 2:
            out = out + sum(int(v[i] * v[j]) * brk(L, eye[i], eye[j])
                            for i in range(n) for j in range(i + 1, n))
        pp[key(v)] = key(np.asarray(out) % p)
    zero = (0,) * n
    center = frozenset(key(v) for v in vecs
                       if all(ad[(i, key(v))] == zero for i in range(n)))

    def periodic(v):
        w = pp[v]
        for _ in range(len(center)):
            if w == v:
                return True
            w = pp[w]
        return False

    torus = frozenset(v for v in center if periodic(v))
    commutes = {}

    def commute(a, b):
        if (a, b) not in commutes:
            commutes[(a, b)] = not brk(L, np.array(a), np.array(b)).any()
        return commutes[(a, b)]

    ideals = []
    for s in all_subspaces(n, p):
        if len(s) == p ** n:
            continue
        if all(ad[(i, v)] in s for v in s for i in range(n)) and all(
                pp[v] in s for v in s):
            ideals.append((s, all(commute(a, b) for a in s for b in s)))
    return ideals, center, torus


def gl_algebra(p, n=2):
    """gl_n over GF(p) on the matrix units e_rc (row-major), with the matrix
    p-th power as p-map: an associative algebra supplies an independent oracle
    for the p-power formula."""
    cells = list(itertools.product(range(n), repeat=2))
    mats = [np.zeros((n, n), dtype=np.int64) for _ in cells]
    for k, (r, c) in enumerate(cells):
        mats[k][r, c] = 1
    sc = np.zeros((n * n,) * 3, dtype=np.int64)
    pmap = np.zeros((n * n, n * n), dtype=np.int64)
    for i in range(n * n):
        for j in range(n * n):
            sc[i, j] = ((mats[i] @ mats[j] - mats[j] @ mats[i]) % p).reshape(-1)
        pmap[i] = (np.linalg.matrix_power(mats[i], p) % p).reshape(-1)
    return rla.RestrictedLieAlgebra(p, sc, pmap,
                                    labels=[f"e{r}{c}" for r, c in cells])


@pytest.fixture
def heis2u():
    return rla.heisenberg(2, "unipotent").algebra


@pytest.fixture
def heis2t():
    return rla.heisenberg(2, "toral_center").algebra


@pytest.fixture
def heis3():
    return rla.heisenberg(3, "unipotent").algebra


@pytest.fixture
def rng():
    return np.random.default_rng(0)
