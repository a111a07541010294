"""Structural invariants: center, series, tori, p-closures, distinguished ideals."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .algebra import RestrictedLieAlgebra, _cached
from .errors import CertificationError, PreconditionError
from .linalg import Subspace, kernel, mat_pow

Alg = RestrictedLieAlgebra


def center(L: Alg) -> Subspace:
    """Joint kernel of all ad(x_i): v is central iff [x_i, v] = 0 for all i."""
    n = L.dim
    return _cached(L.bracket, "center", lambda: kernel(L.ad_basis.reshape(n * n, n), L.p))


def centralizer(L: Alg, s: Subspace) -> Subspace:
    _check_space(L, s)
    if s.dim == 0:
        return Subspace.full(L.dim, L.p)
    rows = np.vstack([L.ad(b) for b in s.basis])
    return kernel(rows, L.p)


def normalizer(L: Alg, s: Subspace) -> Subspace:
    """{x : [x, s] in s for all s in the subspace}."""
    _check_space(L, s)
    if s.dim == 0 or s.dim == L.dim:
        return Subspace.full(L.dim, L.p)
    ann = s.annihilator()
    rows = np.vstack([(ann @ L.ad(b)) % L.p for b in s.basis])
    return kernel(rows, L.p)


def derived(L: Alg) -> Subspace:
    n = L.dim
    return _cached(L.bracket, "derived",
                   lambda: Subspace.from_rows(L.sc.reshape(n * n, n), L.p, n))


def bracket_space(L: Alg, s: Subspace, t: Subspace) -> Subspace:
    """Span of [a, b] over basis pairs a in s, b in t."""
    _check_space(L, s)
    _check_space(L, t)
    if s.dim == 0 or t.dim == 0:
        return Subspace.zero(L.dim, L.p)
    rows = [L.bracket_vec(a, b) for a in s.basis for b in t.basis]
    return Subspace.from_rows(np.array(rows), L.p, L.dim)


def lower_central_series(L: Alg) -> Tuple[Subspace, ...]:
    def compute():
        series = [Subspace.full(L.dim, L.p)]
        while True:
            nxt = bracket_space(L, Subspace.full(L.dim, L.p), series[-1])
            if nxt.dim == series[-1].dim:
                break
            series.append(nxt)
            if nxt.dim == 0:
                break
        return tuple(series)
    return _cached(L.bracket, "lcs", compute)


def is_nilpotent(L: Alg) -> bool:
    series = lower_central_series(L)
    return series[-1].dim == 0


def nilpotency_class(L: Alg) -> int:
    if not is_nilpotent(L):
        raise PreconditionError("algebra is not nilpotent")
    return len(lower_central_series(L)) - 1


def is_abelian(L: Alg) -> bool:
    return L.bracket.abelian


def is_abelian_subspace(L: Alg, s: Subspace) -> bool:
    _check_space(L, s)
    return all(not L.bracket_vec(a, b).any()
               for i, a in enumerate(s.basis) for b in s.basis[i + 1:])


def is_subalgebra(L: Alg, s: Subspace) -> bool:
    _check_space(L, s)
    return all(s.contains_vector(L.bracket_vec(a, b))
               for i, a in enumerate(s.basis) for b in s.basis[i + 1:])


def is_p_subalgebra(L: Alg, s: Subspace) -> bool:
    """Closed under the bracket and under the p-operation of a spanning set.

    Closure on a basis suffices: the sum expansion of (u+v)^[p] adds only
    iterated brackets of u and v, which a bracket-closed subspace contains.
    """
    return is_subalgebra(L, s) and all(
        s.contains_vector(L.ppow_vec(b)) for b in s.basis)


def is_ideal(L: Alg, s: Subspace) -> bool:
    _check_space(L, s)
    return all(s.contains_vector((L.ad_basis[i] @ b) % L.p)
               for i in range(L.dim) for b in s.basis)


def is_p_ideal(L: Alg, s: Subspace) -> bool:
    return is_ideal(L, s) and all(s.contains_vector(L.ppow_vec(b)) for b in s.basis)


def p_closure(L: Alg, s: Subspace) -> Subspace:
    """Least subspace containing s that is closed under bracket and p-powers."""
    _check_space(L, s)
    cur = s
    while cur.dim:
        extra = [L.bracket_vec(a, b) for a in cur.basis for b in cur.basis]
        extra += [L.ppow_vec(b) for b in cur.basis]
        nxt = Subspace.from_rows(np.vstack([cur.basis, np.array(extra)]), L.p, L.dim)
        if nxt.dim == cur.dim:
            break
        cur = nxt
    return cur


def maximal_torus(L: Alg) -> Subspace:
    """Largest subspace of semisimple elements. Requires a nilpotent algebra,
    where all semisimple elements are central: the p-map restricted to the
    center is linear over GF(p), and the stable image of that matrix is exactly
    the set of semisimple central elements (over a finite field the restriction
    of the p-map to its stable image has finite multiplicative order)."""
    def compute():
        if not is_nilpotent(L):
            raise PreconditionError("maximal_torus requires a nilpotent algebra")
        z = center(L)
        k = z.dim
        if k == 0:
            return Subspace.zero(L.dim, L.p)
        pm = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            pm[:, j] = z.coords_of(L.ppow_vec(z.basis[j]))
        stable = mat_pow(pm, k, L.p)
        rows = (stable.T @ z.basis) % L.p
        return Subspace.from_rows(rows, L.p, L.dim)
    return _cached(L, "torus", compute)


def is_p_unipotent(L: Alg) -> bool:
    """Every element has vanishing iterated p-powers; requires nilpotent input."""
    return maximal_torus(L).dim == 0


def maximal_abelian_p_ideal(L: Alg) -> Subspace:
    """Greedy ascent from the center: repeatedly adjoin the first basis vector
    of {x : [x, L] in A, [x, A] = 0} outside A and re-close under p-powers,
    until A is self-centralizing. Requires a nilpotent algebra."""
    def compute():
        if not is_nilpotent(L):
            raise PreconditionError("maximal_abelian_p_ideal requires a nilpotent algebra")
        n, p = L.dim, L.p
        a = center(L)
        while True:
            cent = centralizer(L, a)
            if cent.dim == a.dim:
                return a
            ann = a.annihilator()
            rows = [(ann @ L.ad_basis[i]) % p for i in range(n)]
            rows += [L.ad(b) for b in a.basis]
            w = kernel(np.vstack(rows), p)
            x = next((row for row in w.basis if not a.contains_vector(row)), None)
            if x is None:
                # a nonzero ideal of a nilpotent algebra meets the center of
                # the quotient, so a valid extension always exists here
                raise CertificationError(
                    "greedy extension exhausted before self-centralizing")
            ext = Subspace.from_rows(np.vstack([a.basis, x[None, :]]), p, n)
            a = p_closure(L, ext)
            if not (is_abelian_subspace(L, a) and is_p_ideal(L, a)):
                raise CertificationError("greedy extension is not an abelian p-ideal")
    return _cached(L, "max_abelian_p_ideal", compute)


def codim1_max_p_ideals(L: Alg) -> List[Subspace]:
    """All hyperplanes containing derived(L) + maximal_torus(L) + span of the
    p-map images. Each is a maximal p-ideal containing the torus: it contains
    the derived subalgebra (so it is an ideal) and the p-power of any element
    (table images plus bracket corrections). Requires nilpotent non-toral input."""
    if not is_nilpotent(L):
        raise PreconditionError("codim1_max_p_ideals requires a nilpotent algebra")
    n, p = L.dim, L.p
    torus = maximal_torus(L)
    if torus.dim == n:
        raise PreconditionError("codim1_max_p_ideals requires a non-toral algebra")
    rows = np.vstack([derived(L).basis, torus.basis, L.pmap])
    phi = Subspace.from_rows(rows, p, n)
    if phi.dim == n:
        raise CertificationError(
            "no proper ideal candidate: contradicts codimension-one maximality")
    # independent annihilator rows: distinct projective points give distinct
    # functionals up to scale, so distinct kernels
    ann = phi.annihilator()
    return [kernel(((combo @ ann) % p)[None, :], p)
            for combo in _projective_rows(ann.shape[0], p)]


def _projective_rows(m: int, p: int):
    """Nonzero coefficient rows of GF(p)^m, one per projective point, in
    lexicographic order (first nonzero coefficient normalized to 1)."""
    from .linalg import coeff_blocks

    for block in coeff_blocks(m, p):
        for row in block:
            nz = np.nonzero(row)[0]
            if nz.size and row[nz[0]] == 1:
                yield row


def _check_space(L: Alg, s: Subspace) -> None:
    if s.p != L.p or s.ambient_dim != L.dim:
        raise ValueError("subspace lives in the wrong space")
