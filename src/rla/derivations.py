"""Restricted derivations: solution spaces, inner parts, and witness searches.

A restricted derivation is a restricted 1-cocycle of the adjoint module and
an inner one is a coboundary (Hochschild, 1954). So the one row builder for
restricted cocycles and the one coboundary construction live here: der,
der_p and inner apply them to the adjoint module, cohomology.z1 and b1 to any
module. Derivation matrices act on coordinate columns (column j = image of
x_j) and are vectorized row-major, in GF(p)^(n*n).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

import numpy as np

from .algebra import RestrictedLieAlgebra, _cached
from .errors import (BudgetExceededError, CertificationError,
                     NotADerivationError, PreconditionError)
from .linalg import (DEFAULT_BUDGET, Subspace, asmod, coeff_blocks, kernel,
                     mat_pow, solve)
from .structure import (center, centralizer, codim1_max_p_ideals,
                        bracket_space, is_abelian, is_nilpotent, is_p_ideal,
                        maximal_abelian_p_ideal, maximal_torus)

Alg = RestrictedLieAlgebra


def leibniz_defect(L: Alg, m: np.ndarray) -> np.ndarray:
    """D[x_i,x_j] - [D x_i, x_j] - [x_i, D x_j] for all pairs; shape (n, n, n)."""
    d = asmod(m, L.p)
    t1 = np.einsum("rm,ijm->ijr", d, L.sc)
    t2 = np.einsum("mi,mjr->ijr", d, L.sc)
    t3 = np.einsum("mj,imr->ijr", d, L.sc)
    return (t1 - t2 - t3) % L.p


def restricted_defect(L: Alg, m: np.ndarray, v) -> np.ndarray:
    """D(v^[p]) - (ad v)^(p-1)(D v) for an arbitrary element v."""
    d = asmod(m, L.p)
    v = asmod(v, L.p)
    lhs = (d @ L.ppow_vec(v)) % L.p
    rhs = (mat_pow(L.ad(v), L.p - 1, L.p) @ (d @ v)) % L.p
    return (lhs - rhs) % L.p


class Derivation:
    """A matrix certified to satisfy the Leibniz rule at construction."""

    def __init__(self, algebra: Alg, matrix):
        self.algebra = algebra
        self.matrix = asmod(matrix, algebra.p)
        if self.matrix.shape != (algebra.dim, algebra.dim):
            raise ValueError("derivation matrix has wrong shape")
        bad = np.argwhere(leibniz_defect(algebra, self.matrix).any(axis=2))
        if bad.size:
            i, j = bad[0]
            raise NotADerivationError(int(i), int(j))

    def __call__(self, v) -> np.ndarray:
        return (self.matrix @ asmod(v, self.algebra.p)) % self.algebra.p

    @property
    def is_restricted(self) -> bool:
        def compute():
            L = self.algebra
            lhs = (self.matrix @ L.pmap.T) % L.p
            rhs = np.einsum("imk,ki->mi", L.bracket.ad_power(L.p - 1), self.matrix) % L.p
            return np.array_equal(lhs, rhs)
        return _cached(self, "restricted", compute)

    @property
    def inner_witness(self) -> Optional[np.ndarray]:
        """Some a with ad(a) = D, free coordinates zero; None if D is outer."""
        L = self.algebra
        return _cached(self, "inner", lambda: solve(
            L.ad_basis.reshape(L.dim, L.dim ** 2).T, self.matrix.reshape(-1), L.p))

    @property
    def is_inner(self) -> bool:
        return self.inner_witness is not None

    @property
    def is_square_zero(self) -> bool:
        return not ((self.matrix @ self.matrix) % self.algebra.p).any()

    @property
    def is_nilpotent(self) -> bool:
        n = self.algebra.dim
        return n == 0 or not mat_pow(self.matrix, n, self.algebra.p).any()

    def __repr__(self) -> str:
        return f"Derivation(p={self.algebra.p}, dim={self.algebra.dim})"


# -- solution spaces --------------------------------------------------------


def _cocycle_rows(p: int, rho: np.ndarray, sc: Optional[np.ndarray] = None,
                  pmap: Optional[np.ndarray] = None,
                  rho_pow: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows of the restricted 1-cocycle system of C: L -> M (an m x d matrix,
    row-major), where rho[i] is the action of x_i on M: given L's sc, the pair
    rows C[x_i,x_j] = x_i.C(x_j) - x_j.C(x_i) for i < j; then, given L's pmap
    and rho_pow[i] = rho[i]^(p-1), the rows C(x_i^[p]) = x_i^(p-1).C(x_i).
    One (m, m, d) block per equation: output coordinate, then C[b, t]."""
    d, m = rho.shape[0], rho.shape[1]
    pairs = list(combinations(range(d), 2)) if sc is not None else []
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    k = np.arange(d if pmap is not None else 0)
    rows = np.zeros((i.size + k.size, m, m, d), dtype=np.int64)
    pair, restricted = rows[:i.size], rows[i.size:]
    eye = np.eye(m, dtype=np.int64)[:, :, None]
    if sc is not None:
        pair[...] = eye * sc[i, j][:, None, None, :]
        pair[np.arange(i.size), :, :, j] -= rho[i]
        pair[np.arange(i.size), :, :, i] += rho[j]
    if pmap is not None:
        restricted[...] = eye * pmap[:, None, None, :]
        restricted[k, :, :, k] -= rho_pow
    return (rows % p).reshape(rows.shape[0] * m, m * d)


def _coboundaries(p: int, rho: np.ndarray) -> Subspace:
    """Coboundaries x -> x.v of the module with action matrices rho: the
    generator for the module basis vector e_k is the m x d matrix whose
    column t is x_t.e_k."""
    d, m = rho.shape[0], rho.shape[1]
    return Subspace.from_rows(rho.transpose(2, 1, 0).reshape(m, m * d), p, m * d)


def _pair_rows(L: Alg) -> np.ndarray:
    return _cached(L.bracket, "pair_rows",
                   lambda: _cocycle_rows(L.p, L.ad_basis, sc=L.sc))


def der(L: Alg) -> Subspace:
    """All derivations: the 1-cocycles of the adjoint module, as vectorized
    matrices in GF(p)^(n*n)."""
    return _cached(L.bracket, "der", lambda: kernel(_pair_rows(L), L.p))


def der_p(L: Alg) -> Subspace:
    """Restricted derivations: the restricted 1-cocycles of the adjoint
    module, Leibniz plus D(x_i^[p]) = (ad x_i)^(p-1)(D x_i).

    Imposing restrictedness on a basis suffices; the defect map is additive
    and p-homogeneous (property-tested on arbitrary elements)."""
    return _cached(L, "der_p", lambda: kernel(np.vstack([
        _pair_rows(L),
        _cocycle_rows(L.p, L.ad_basis, pmap=L.pmap,
                      rho_pow=L.bracket.ad_power(L.p - 1))]), L.p))


def inner(L: Alg) -> Subspace:
    """Span of the ad(x_i), vectorized: the coboundaries of the adjoint
    module, whose generators are the -ad(x_k)."""
    return _cached(L.bracket, "inner", lambda: _coboundaries(L.p, L.ad_basis))


def h1_adjoint_dim(L: Alg) -> int:
    dp, inn = der_p(L), inner(L)
    if not dp.contains(inn):
        raise CertificationError("inner derivations must be restricted")
    return dp.dim - inn.dim


# -- constructive witnesses --------------------------------------------------


def outer_by_centralizer_criterion(L: Alg, ideal: Subspace, d: Derivation) -> bool:
    """Non-innerness certificate: if the ideal lies in the kernel of D and the
    image of D centralizes the ideal, D is outer once its image is not inside
    [L, centralizer(ideal)]."""
    if not is_p_ideal(L, ideal):
        raise PreconditionError("criterion requires a p-ideal")
    if ideal.dim and ((d.matrix @ ideal.basis.T) % L.p).any():
        raise PreconditionError("criterion requires the ideal inside ker(D)")
    image = Subspace.from_rows(d.matrix.T, L.p, L.dim)
    cent = centralizer(L, ideal)
    if not cent.contains(image):
        raise PreconditionError("criterion requires im(D) centralizing the ideal")
    return not bracket_space(L, Subspace.full(L.dim, L.p), cent).contains(image)


def construct_case_derivation(L: Alg, ideal: Subspace, x, z) -> Derivation:
    """The derivation vanishing on a codimension-one p-ideal and sending a
    fixed complement vector x to a central element z of the ideal."""
    n, p = L.dim, L.p
    x = asmod(x, p)
    z = asmod(z, p)
    if not is_p_ideal(L, ideal):
        raise PreconditionError("construct_case_derivation requires a p-ideal")
    if ideal.dim != n - 1:
        raise PreconditionError("ideal must have codimension one")
    if ideal.contains_vector(x):
        raise PreconditionError("x must lie outside the ideal")
    zen_i = ideal.intersection(centralizer(L, ideal))
    if not zen_i.contains_vector(z):
        raise PreconditionError("z must lie in the center of the ideal")
    functional = ideal.annihilator()[0]
    scale = int(functional @ x % p)
    functional = (pow(scale, p - 2, p) * functional) % p
    matrix = np.outer(z, functional) % p
    d = Derivation(L, matrix)  # raises if the Leibniz rule fails
    if not d.is_restricted:
        raise CertificationError("case derivation is not restricted: hypothesis violation")
    if not d.is_square_zero:  # z lies in the ideal, so D(z) = 0
        raise CertificationError("case derivation is not square-zero")
    return d


def _certify_square_zero_outer(L: Alg, d: Derivation) -> Derivation:
    if not d.is_restricted:
        raise CertificationError("witness is not a restricted derivation")
    if not d.is_square_zero:
        raise CertificationError("witness does not square to zero")
    if d.is_inner:
        raise CertificationError("witness is inner")
    return d


def _case_witness(L: Alg, ideal: Subspace) -> Optional[Derivation]:
    zen = center(L)
    if not ideal.contains(zen):
        x = next((row for row in zen.basis if not ideal.contains_vector(row)), None)
        zen_i = ideal.intersection(centralizer(L, ideal))
        if x is None or zen_i.dim == 0:
            return None
        d = construct_case_derivation(L, ideal, x, zen_i.basis[0])
        return _certify_square_zero_outer(L, d)
    cent = centralizer(L, ideal)
    if cent == zen and zen.dim:
        x = next(np.eye(L.dim, dtype=np.int64)[j] for j in range(L.dim)
                 if not ideal.contains_vector(np.eye(L.dim, dtype=np.int64)[j]))
        d = construct_case_derivation(L, ideal, x, zen.basis[0])
        if not outer_by_centralizer_criterion(L, ideal, d):
            raise CertificationError("centralizer criterion failed: hypothesis violation")
        return _certify_square_zero_outer(L, d)
    return None


# -- exhaustive searches ------------------------------------------------------


def _iter_candidates(L: Alg, budget: int) -> Iterator[np.ndarray]:
    """All elements of der_p as (block, n, n) stacks, lexicographic in the
    coefficients over the canonical basis."""
    space = der_p(L)
    count = L.p ** space.dim
    if count > budget:
        raise BudgetExceededError(count, budget)
    for block in coeff_blocks(space.dim, L.p):
        yield ((block @ space.basis) % L.p).reshape(-1, L.dim, L.dim)


def _outer_mask(L: Alg, mats: np.ndarray) -> np.ndarray:
    ann = inner(L).annihilator()
    if ann.shape[0] == 0:
        return np.zeros(mats.shape[0], dtype=bool)
    flat = mats.reshape(mats.shape[0], -1)
    return ((flat @ ann.T) % L.p).any(axis=1)


def _first_outer(L: Alg, budget: int, squarings: int) -> Optional[Derivation]:
    """First outer member D of der_p, in scan order, with D^(2^squarings) = 0;
    None after a complete scan."""
    for mats in _iter_candidates(L, budget):
        powers = mats
        for _ in range(squarings):
            powers = np.matmul(powers, powers) % L.p
        hits = ~powers.any(axis=(1, 2)) & _outer_mask(L, mats)
        idx = np.nonzero(hits)[0]
        if idx.size:
            return Derivation(L, mats[int(idx[0])])
    return None


def find_square_zero_outer(L: Alg, budget: int = DEFAULT_BUDGET) -> Optional[Derivation]:
    """A square-zero outer restricted derivation, or None after a complete
    search. Constructive routes run first (codimension-one ideal cases, then
    the lifted-cocycle route through a maximal abelian p-ideal); the exhaustive
    scan of der_p decides absence. Budget overruns raise, distinct from None."""
    from .cohomology import gamma_nontrivial, lift_cocycle

    if not is_nilpotent(L):
        raise PreconditionError("find_square_zero_outer requires a nilpotent algebra")
    n = L.dim
    if n and maximal_torus(L).dim < n:
        for ideal in codim1_max_p_ideals(L):
            d = _case_witness(L, ideal)
            if d is not None:
                return d
        a = maximal_abelian_p_ideal(L)
        if a.dim < n:
            w = gamma_nontrivial(L, a, a)
            if w is not None:
                d = lift_cocycle(L, a, w)
                return _certify_square_zero_outer(L, d)
    if h1_adjoint_dim(L) == 0:
        return None  # every restricted derivation is inner
    d = _first_outer(L, budget, 1)
    return _certify_square_zero_outer(L, d) if d is not None else None


def find_nilpotent_outer(L: Alg, budget: int = DEFAULT_BUDGET) -> Optional[Derivation]:
    """First nilpotent outer restricted derivation in scan order, or None
    after a complete scan of der_p."""
    n = L.dim
    if h1_adjoint_dim(L) == 0:
        return None
    # D^n = 0 for a nilpotent D, and 2^squarings >= n
    d = _first_outer(L, budget, max(1, int(np.ceil(np.log2(n)))) if n > 1 else 0)
    if d is not None and not (d.is_restricted and d.is_nilpotent and not d.is_inner):
        raise CertificationError("nilpotent witness failed certification")
    return d


def explicit_h1_char2_outer(L: Alg) -> Derivation:
    """For the 3-dimensional char-2 nilpotent non-abelian algebra (any
    central-valued p-map): the derivation vanishing on the center and inducing
    the identity on the quotient. Idempotent, restricted, outer."""
    if L.p != 2 or L.dim != 3:
        raise PreconditionError("explicit witness requires p = 2 and dimension 3")
    if not is_nilpotent(L) or is_abelian(L):
        raise PreconditionError("explicit witness requires a nilpotent non-abelian algebra")
    zen = center(L)
    if zen.dim != 1:
        raise CertificationError("explicit witness needs a one-dimensional center")
    n = L.dim
    eye = np.eye(n, dtype=np.int64)
    proj = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        res = zen.reduce_vector(eye[j])  # component along the transversal
        proj[:, j] = res
    d = Derivation(L, proj)
    if not d.is_restricted:
        raise CertificationError("explicit witness is not restricted")
    if d.is_inner:
        raise CertificationError("explicit witness is inner")
    if not np.array_equal((d.matrix @ d.matrix) % 2, d.matrix):
        raise CertificationError("explicit witness is not idempotent")
    return d
