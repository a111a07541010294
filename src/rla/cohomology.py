"""Restricted modules and degree-one restricted cohomology.

Cochains N -> M are m x d matrices (column t = value on the t-th basis vector
of N), vectorized row-major into GF(p)^(m*d). On the adjoint module the
cocycle space coincides with der_p and the coboundary space with inner, which
tests assert exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import Quotient, RestrictedLieAlgebra, quotient, twist_pmap
from .derivations import Derivation
from .errors import (BudgetExceededError, CertificationError,
                     ModuleValidationError, PreconditionError)
from .linalg import DEFAULT_BUDGET, Subspace, asmod, complements, kernel, mat_pow
from .structure import (center, centralizer, is_abelian_subspace, is_p_ideal,
                        is_p_subalgebra, is_p_unipotent)

Alg = RestrictedLieAlgebra


class RestrictedModule:
    """A restricted representation given by action matrices for each basis
    element of the acting algebra."""

    def __init__(self, algebra: Alg, rho, validate: bool = True):
        self.algebra = algebra
        self.rho = asmod(rho, algebra.p)
        if self.rho.ndim != 3 or self.rho.shape[0] != algebra.dim \
                or self.rho.shape[1] != self.rho.shape[2]:
            raise ValueError("rho must be a (dim, m, m) stack")
        if validate:
            self._validate()

    @property
    def mdim(self) -> int:
        return self.rho.shape[1]

    def action(self, v) -> np.ndarray:
        v = asmod(v, self.algebra.p)
        if self.algebra.dim == 0:
            return np.zeros((self.mdim, self.mdim), dtype=np.int64)
        return np.einsum("i,imk->mk", v, self.rho) % self.algebra.p

    def _validate(self) -> None:
        L, p = self.algebra, self.algebra.p
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                comm = (self.rho[i] @ self.rho[j] - self.rho[j] @ self.rho[i]) % p
                if not np.array_equal(comm, self.action(L.sc[i, j])):
                    raise ModuleValidationError(
                        f"action is not a representation at basis pair ({i}, {j})")
        for i in range(L.dim):
            if not np.array_equal(mat_pow(self.rho[i], p, p), self.action(L.pmap[i])):
                raise ModuleValidationError(
                    f"action is not restricted at basis index {i}")


def trivial_module(L: Alg, mdim: int = 1) -> RestrictedModule:
    return RestrictedModule(L, np.zeros((L.dim, mdim, mdim), dtype=np.int64))


def adjoint_module(L: Alg) -> RestrictedModule:
    return RestrictedModule(L, L.ad_basis)


# -- cocycles and coboundaries ----------------------------------------------


def z1(L: Alg, M: RestrictedModule) -> Subspace:
    """Restricted cocycles: C[x_i,x_j] = x_i.C(x_j) - x_j.C(x_i) plus
    C(x_i^[p]) = x_i^(p-1).C(x_i), as vectorized m x d matrices."""
    if M.algebra is not L and not M.algebra.table_equal(L):
        raise ValueError("module does not belong to the acting algebra")
    d, m, p = L.dim, M.mdim, L.p
    if d == 0 or m == 0:
        return Subspace.zero(m * d, p)
    eye_m = np.eye(m, dtype=np.int64)
    eye_d = np.eye(d, dtype=np.int64)
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            block = np.kron(eye_m, L.sc[i, j][None, :])
            block = (block - np.kron(M.rho[i], eye_d[j][None, :])) % p
            block = (block + np.kron(M.rho[j], eye_d[i][None, :])) % p
            rows.append(block)
    for i in range(d):
        block = np.kron(eye_m, L.pmap[i][None, :])
        block = (block - np.kron(mat_pow(M.rho[i], p - 1, p), eye_d[i][None, :])) % p
        rows.append(block)
    return kernel(np.vstack(rows), p)


def b1(L: Alg, M: RestrictedModule) -> Subspace:
    """Coboundaries x -> x.m, one generator per module basis vector."""
    d, m, p = L.dim, M.mdim, L.p
    rows = np.zeros((m, m * d), dtype=np.int64)
    for k in range(m):
        rows[k] = M.rho[:, :, k].T.reshape(-1)
    return Subspace.from_rows(rows, p, m * d)


def h1_dim(L: Alg, M: RestrictedModule) -> int:
    zs, bs = z1(L, M), b1(L, M)
    if not zs.contains(bs):
        raise CertificationError("coboundaries must be restricted cocycles")
    return zs.dim - bs.dim


def invariants(L: Alg, M: RestrictedModule) -> Subspace:
    """Joint kernel of the action: {m : x.m = 0 for all x}."""
    d, m = L.dim, M.mdim
    if d == 0 or m == 0:
        return Subspace.full(m, L.p)
    return kernel(M.rho.reshape(d * m, m), L.p)


def socle_unipotent(N: Alg, M: RestrictedModule) -> Subspace:
    """Socle of M over a p-unipotent algebra: equals the invariants."""
    if not is_p_unipotent(N):
        raise PreconditionError("socle computation requires a p-unipotent algebra")
    return invariants(N, M)


def is_free_over_unipotent(N: Alg, M: RestrictedModule) -> Tuple[bool, int]:
    """Freeness of M over the restricted enveloping algebra of a p-unipotent N.

    The enveloping algebra is local with radical generated by the basis of N,
    so rad*M is the span of all action images, the minimal generator count is
    dim(M/rad*M), and M is free exactly when dim M = rank * p^dim(N). When
    free, the invariants have dimension equal to the rank (socle count),
    which is certified."""
    if not is_p_unipotent(N):
        raise PreconditionError("freeness criterion requires a p-unipotent algebra")
    m, p = M.mdim, N.p
    if N.dim:
        rad = Subspace.from_rows(
            np.vstack([M.rho[t].T for t in range(N.dim)]), p, m)
    else:
        rad = Subspace.zero(m, p)
    rank = m - rad.dim
    free = m == rank * p ** N.dim
    if free and invariants(N, M).dim != rank:
        raise CertificationError("socle count of a free module differs from its rank")
    return free, rank


# -- transfer of cocycles through a quotient ---------------------------------


@dataclass
class Cochain:
    """A degree-one cochain on a quotient algebra with values in a subspace of
    the original algebra, stored in that subspace's basis coordinates."""

    matrix: np.ndarray          # (values.dim, quotient dim)
    values: Subspace            # coordinate reference in the big algebra
    quotient: Quotient
    module: RestrictedModule
    is_cocycle: bool
    is_coboundary: bool


def induced_module(L: Alg, q: Quotient, w: Subspace) -> RestrictedModule:
    """Action of L/I on an L-stable subspace annihilated by I, in the
    deterministic transversal of the quotient."""
    p = L.p
    for b in q.ideal.basis:
        for a in w.basis:
            if L.bracket_vec(b, a).any():
                raise PreconditionError("ideal must act trivially on the subspace")
    k = w.dim
    rho = np.zeros((q.algebra.dim, k, k), dtype=np.int64)
    for t in range(q.algebra.dim):
        lift = q.section[:, t]
        for a in range(k):
            img = L.bracket_vec(lift, w.basis[a])
            if not w.contains_vector(img):
                raise PreconditionError("subspace is not stable under the action")
            rho[t, :, a] = w.coords_of(img)
    return RestrictedModule(q.algebra, rho)


def gamma_nontrivial(L: Alg, ideal: Subspace, j: Subspace) -> Optional[Cochain]:
    """A restricted cocycle of L/ideal with values in j whose image inside the
    centralizer module is not a coboundary; None when the transfer map is
    trivial. Requires j inside both the ideal and its centralizer."""
    if not is_p_ideal(L, ideal) or not is_p_ideal(L, j):
        raise PreconditionError("gamma requires p-ideals")
    if not ideal.contains(j):
        raise PreconditionError("j must lie inside the ideal")
    cent = centralizer(L, ideal)
    if not cent.contains(j):
        raise PreconditionError("j must centralize the ideal")
    q = quotient(L, ideal)
    if j.dim == 0 or q.algebra.dim == 0:
        return None
    mj = induced_module(L, q, j)
    mc = induced_module(L, q, cent)
    embed = np.stack([cent.coords_of(row) for row in j.basis])  # (dim j, dim cent)
    bc = b1(q.algebra, mc)
    zj = z1(q.algebra, mj)
    bj = b1(q.algebra, mj)
    for row in zj.basis:
        w = row.reshape(mj.mdim, q.algebra.dim)
        wc = (embed.T @ w) % L.p
        if not bc.contains_vector(wc.reshape(-1)):
            return Cochain(matrix=w, values=j, quotient=q, module=mj,
                           is_cocycle=True, is_coboundary=bj.contains_vector(row))
    return None


def lift_cocycle(L: Alg, ideal: Subspace, cochain: Cochain,
                 j: Optional[Subspace] = None) -> Derivation:
    """Pull a quotient cocycle back to a square-zero restricted derivation of L
    via the quotient projection. Certifies every property and aborts on any
    failure rather than returning an uncertified witness."""
    j = j if j is not None else cochain.values
    q = quotient(L, ideal)
    if cochain.matrix.shape != (cochain.values.dim, q.algebra.dim):
        raise PreconditionError("cochain shape does not match the quotient")
    vals = (cochain.values.basis.T @ cochain.matrix) % L.p  # columns in ambient coords
    for t in range(vals.shape[1]):
        if not j.contains_vector(vals[:, t]):
            raise PreconditionError("cochain valued outside the target ideal")
    matrix = (vals @ q.projection) % L.p
    d = Derivation(L, matrix)  # Leibniz certified here
    if not d.is_restricted:
        raise CertificationError("lifted cochain is not a restricted derivation")
    if not d.is_square_zero:
        raise CertificationError("lifted cochain does not square to zero")
    if ideal.dim and ((matrix @ ideal.basis.T) % L.p).any():
        raise CertificationError("lifted cochain does not vanish on the ideal")
    image = Subspace.from_rows(matrix.T, L.p, L.dim)
    if not j.contains(image):
        raise CertificationError("lifted cochain has values outside the target ideal")
    return d


# -- complements --------------------------------------------------------------


def find_p_complement(L: Alg, a: Subspace,
                      budget: int = DEFAULT_BUDGET) -> Optional[Subspace]:
    """A p-subalgebra h with L = a + h and a ^ h = center(L), or None after a
    complete enumeration. The twisted algebra (p-map zeroed on a basis of a) is
    searched first, per the construction that proves existence; the direct
    enumeration over complements of a/center in L/center decides absence."""
    if not is_abelian_subspace(L, a) or not is_p_ideal(L, a):
        raise PreconditionError("find_p_complement requires an abelian p-ideal")
    zen = center(L)
    if not a.contains(zen):
        raise PreconditionError("find_p_complement requires the center inside a")
    try:
        twisted = twist_pmap(L, a)
        cands = sorted(complements(a, budget), key=lambda s: s.basis.tobytes())
        for c in cands:
            if is_p_subalgebra(twisted, c):
                h = zen.sum(c)
                if _is_valid_complement(L, a, h, zen):
                    return h
    except BudgetExceededError:
        pass  # the direct enumeration below is the complete decision procedure
    qz = quotient(L, zen)
    abar = Subspace.from_rows((a.basis @ qz.projection.T) % L.p,
                              L.p, qz.algebra.dim)
    cands = sorted(complements(abar, budget), key=lambda s: s.basis.tobytes())
    for w in cands:
        rows = np.vstack([zen.basis, (w.basis @ qz.section.T) % L.p])
        h = Subspace.from_rows(rows, L.p, L.dim)
        if _is_valid_complement(L, a, h, zen):
            return h
    return None


def _is_valid_complement(L: Alg, a: Subspace, h: Subspace, zen: Subspace) -> bool:
    return (a.sum(h).dim == L.dim and a.intersection(h) == zen
            and is_p_subalgebra(L, h))
