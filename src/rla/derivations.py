"""Restricted derivations: solution spaces, inner parts, and witness searches.

Derivation matrices act on coordinate columns (column j = image of x_j) and
are vectorized row-major, so the solution spaces of the Leibniz and
restrictedness systems live in GF(p)^(n*n).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .algebra import RestrictedLieAlgebra, _cached
from .errors import (BudgetExceededError, CertificationError,
                     NotADerivationError, PreconditionError)
from .linalg import (DEFAULT_BUDGET, Subspace, asmod, coeff_blocks, kernel,
                     mat_pow, solve)
from .structure import (center, centralizer, codim1_max_p_ideals, derived,
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


def _leibniz_rows(L: Alg) -> np.ndarray:
    def compute():
        n, p = L.dim, L.p
        eye = np.eye(n, dtype=np.int64)
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                block = np.kron(eye, L.sc[i, j][None, :])
                block = (block + np.kron(L.ad_basis[j], eye[i][None, :])) % p
                block = (block - np.kron(L.ad_basis[i], eye[j][None, :])) % p
                rows.append(block)
        if not rows:
            return np.zeros((0, n * n), dtype=np.int64)
        return np.vstack(rows)
    return _cached(L.bracket, "leibniz_rows", compute)


def _restricted_rows(L: Alg) -> np.ndarray:
    """D(x_i^[p]) = (ad x_i)^(p-1)(D x_i) for each i; requires dim >= 1."""
    n, p = L.dim, L.p
    eye = np.eye(n, dtype=np.int64)
    pw = L.bracket.ad_power(p - 1)
    return np.vstack([np.kron(eye, L.pmap[i][None, :]) - np.kron(pw[i], eye[i][None, :])
                      for i in range(n)]) % p


def der(L: Alg) -> Subspace:
    """All derivations, as vectorized matrices in GF(p)^(n*n)."""
    return _cached(L.bracket, "der", lambda: kernel(_leibniz_rows(L), L.p))


def der_p(L: Alg) -> Subspace:
    """Restricted derivations: Leibniz plus D(x_i^[p]) = (ad x_i)^(p-1)(D x_i).

    Imposing restrictedness on a basis suffices; the defect map is additive
    and p-homogeneous (property-tested on arbitrary elements)."""
    def compute():
        if L.dim == 0:
            return Subspace.zero(0, L.p)
        return kernel(np.vstack([_leibniz_rows(L), _restricted_rows(L)]), L.p)
    return _cached(L, "der_p", compute)


def inner(L: Alg) -> Subspace:
    """Span of the ad(x_i), vectorized."""
    n = L.dim
    return _cached(L.bracket, "inner", lambda: Subspace.from_rows(
        L.ad_basis.reshape(n, n * n), L.p, n * n))


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
    n = L.dim
    for block in coeff_blocks(space.dim, L.p):
        if space.dim:
            mats = (block @ space.basis) % L.p
        else:
            mats = np.zeros((block.shape[0], n * n), dtype=np.int64)
        yield mats.reshape(-1, n, n)


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
