"""Restricted Lie algebras over GF(p) from structure constants and a p-map table.

An algebra of dimension n is stored as a tensor sc of shape (n, n, n) with
sc[i, j] = coordinates of [x_i, x_j], plus a table pmap of shape (n, n) with
pmap[i] = coordinates of x_i^[p]. Algebras on one table share one LieBracket,
which checks antisymmetry and the Jacobi identity once; construction validates
ad(x_i^[p]) = (ad x_i)^p. An algebra can be built on a LieBracket already in
hand instead of an sc tensor, skipping the reduction and interning of the
table. The p-operation on arbitrary elements is the unique extension of the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import (AntisymmetryError, DocumentError, JacobiError,
                     PMapCompatibilityError, PreconditionError)
from .linalg import Subspace, asmod, check_prime, inv_scalar, mat_pow

_DOC_KEYS = {"p", "dim", "labels", "brackets", "pmap"}
_BRACKET_KEYS = {"i", "j", "v"}
_INTERNED_BRACKETS = 64  # each claim population, quotients included, uses at most 11


def _cached(owner, key, fn):
    """fn(), stored on the object that determines it (a LieBracket, an algebra
    or a derivation). A call that raises stores nothing."""
    cache = vars(owner).setdefault("_cache", {})
    if key not in cache:
        cache[key] = fn()
    return cache[key]


class LieBracket:
    """A structure-constant table over GF(p) and what it alone determines.

    Shared by every algebra on the table, so sc and ad_basis are read-only."""

    def __init__(self, p: int, sc: np.ndarray):
        self.p = p
        self.sc = sc
        sc.setflags(write=False)
        self.abelian = not sc.any()
        # ad matrices of basis elements: ad_basis[i] @ v = [x_i, v]
        self.ad_basis = np.ascontiguousarray(sc.transpose(0, 2, 1))
        self.ad_basis.setflags(write=False)

    def validate(self) -> None:
        """Antisymmetry and the Jacobi identity, checked once per bracket."""
        _cached(self, "axioms", self._check_axioms)

    def _check_axioms(self) -> bool:
        n, p, sc = self.sc.shape[0], self.p, self.sc
        anti = (sc + sc.transpose(1, 0, 2)) % p
        bad = np.argwhere(anti.any(axis=2))
        if bad.size:
            i, j = bad[0]
            raise AntisymmetryError(int(i), int(j))
        diag = np.arange(n)
        bad = np.argwhere(sc[diag, diag].any(axis=1))
        if bad.size:  # [x_i, x_i] = 0 is independent of antisymmetry in char 2
            i = int(bad[0][0])
            raise AntisymmetryError(i, i)
        # jac[i,j,k] = [[x_i,x_j],x_k] summed cyclically
        single = np.einsum("ijm,mkl->ijkl", sc, sc) % p
        jac = (single + single.transpose(1, 2, 0, 3) + single.transpose(2, 0, 1, 3)) % p
        bad = np.argwhere(jac.any(axis=3))
        if bad.size:
            i, j, k = (int(v) for v in bad[0])
            raise JacobiError(i, j, k)
        return True

    def check_pmap(self, images: np.ndarray,
                   index: Optional[np.ndarray] = None) -> None:
        """Jacobson's criterion row by row: ad(images[r]) = (ad x_k)^p with
        k = index[r] (default r). Raises PMapCompatibilityError(k) at the
        first row that fails."""
        if index is None:
            index = np.arange(images.shape[0])
        lhs = np.einsum("ri,ikj->rkj", images, self.ad_basis) % self.p
        bad = np.argwhere((lhs != self.ad_power(self.p)[index]).any(axis=(1, 2)))
        if bad.size:
            raise PMapCompatibilityError(int(index[bad[0][0]]))

    def ad_power(self, e: int) -> np.ndarray:
        """(ad x_i)^e stacked over the basis index i."""
        def compute():
            out = np.array([mat_pow(a, e, self.p) for a in self.ad_basis],
                           dtype=np.int64).reshape(self.ad_basis.shape)
            out.setflags(write=False)
            return out
        return _cached(self, ("ad_power", e), compute)


@lru_cache(maxsize=_INTERNED_BRACKETS)
def _bracket(p: int, shape: Tuple[int, ...], table: bytes) -> LieBracket:
    return LieBracket(p, np.frombuffer(table, dtype=np.int64).reshape(shape))


class RestrictedLieAlgebra:
    """sc is a structure-constant tensor, or the LieBracket of one (whose p
    must be this algebra's)."""

    def __init__(self, p: int, sc, pmap, labels: Optional[Sequence[str]] = None,
                 validate: bool = True):
        self.p = check_prime(p)
        if isinstance(sc, LieBracket):
            if sc.p != self.p:
                raise ValueError(f"bracket over GF({sc.p}) given for p = {self.p}")
            bracket, sc = sc, sc.sc
        else:
            bracket, sc = None, asmod(sc, self.p)
        self.pmap = asmod(pmap, self.p)
        n = self.pmap.shape[0] if self.pmap.ndim else 0
        if sc.shape != (n, n, n) or self.pmap.shape != (n, n):
            raise ValueError(f"table shapes {sc.shape}/{self.pmap.shape} "
                             f"do not match dimension {n}")
        self.labels: Optional[Tuple[str, ...]] = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length does not match dimension")
        self.bracket = (_bracket(self.p, sc.shape, sc.tobytes())
                        if bracket is None else bracket)
        self.sc = self.bracket.sc
        self.ad_basis = self.bracket.ad_basis
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self.pmap.shape[0]

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        self.bracket.validate()
        self.bracket.check_pmap(self.pmap)

    # -- basic operations ------------------------------------------------

    def zero_vec(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def basis_vec(self, i: int) -> np.ndarray:
        v = self.zero_vec()
        v[i] = 1
        return v

    def bracket_vec(self, u, v) -> np.ndarray:
        u = asmod(u, self.p)
        v = asmod(v, self.p)
        return np.einsum("i,j,ijk->k", u, v, self.sc) % self.p

    def table_equal(self, other: "RestrictedLieAlgebra") -> bool:
        return (self.p == other.p and np.array_equal(self.sc, other.sc)
                and np.array_equal(self.pmap, other.pmap))

    def ad(self, v) -> np.ndarray:
        """Matrix of w -> [v, w]."""
        v = asmod(v, self.p)
        return np.einsum("i,ikj->kj", v, self.ad_basis) % self.p

    def ppow_vec(self, v) -> np.ndarray:
        """p-operation on an arbitrary element: fold basis components in
        ascending index order through the sum expansion."""
        v = asmod(v, self.p)
        idxs = np.nonzero(v)[0]
        if idxs.size == 0:
            return self.zero_vec()
        # lambda^p = lambda over the prime field, so (c x_i)^[p] = c x_i^[p]
        acc = (v[idxs[0]] * self.basis_vec(idxs[0])) % self.p
        acc_pp = (v[idxs[0]] * self.pmap[idxs[0]]) % self.p
        for i in idxs[1:]:
            comp = (v[i] * self.basis_vec(i)) % self.p
            comp_pp = (v[i] * self.pmap[i]) % self.p
            acc_pp = (acc_pp + comp_pp + self._psum_correction(acc, comp)) % self.p
            acc = (acc + comp) % self.p
        return acc_pp

    def _psum_correction(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sum of the cross terms s_k(u, v) in (u+v)^[p]: k*s_k is the
        coefficient of t^(k-1) in ad(t*u + v)^(p-1) applied to u. Row d of w
        holds the t^d coefficient of that polynomial vector (degrees below
        p - 1 suffice); each step is w <- ad(v) w + t ad(u) w."""
        p = self.p
        ad_u, ad_v = self.ad(u).T, self.ad(v).T
        w = np.zeros((p - 1, self.dim), dtype=np.int64)
        w[0] = u
        for _ in range(p - 1):
            step = w @ ad_v
            step[1:] += w[:-1] @ ad_u
            w = step % p
        return sum(inv_scalar(k, p) * w[k - 1] for k in range(1, p)) % p

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"x{i}"

    def __repr__(self) -> str:
        return f"RestrictedLieAlgebra(p={self.p}, dim={self.dim})"


def _structure_constants(p: int, dim: int,
                         brackets: Dict[Tuple[int, int], Iterable[int]]
                         ) -> np.ndarray:
    """The sc tensor of the brackets [x_i, x_j] = v given for i < j."""
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), v in brackets.items():
        vec = asmod(list(v), p)
        # a short v would broadcast into sc[i, j] rather than fail
        if not 0 <= i < j < dim or vec.shape != (dim,):
            raise ValueError(f"bracket ({i}, {j}) needs 0 <= i < j < dim and a "
                             f"vector of length dim = {dim}, got {vec.tolist()}")
        sc[i, j] = vec
        sc[j, i] = (-vec) % p
    return sc


def from_brackets(p: int, dim: int, brackets: Dict[Tuple[int, int], Iterable[int]],
                  pmap, labels: Optional[Sequence[str]] = None
                  ) -> RestrictedLieAlgebra:
    """Convenience constructor: brackets given only for i < j."""
    return RestrictedLieAlgebra(p, _structure_constants(p, dim, brackets), pmap,
                                labels=labels)


# -- quotients, products, twists ------------------------------------------


@dataclass
class Quotient:
    algebra: RestrictedLieAlgebra
    projection: np.ndarray   # (d, n): coordinates mod the ideal
    section: np.ndarray      # (n, d): transversal embedding
    ideal: Subspace


def quotient(L: RestrictedLieAlgebra, ideal: Subspace) -> Quotient:
    """Quotient by a p-ideal, with the deterministic transversal given by the
    unit vectors at the ideal basis' non-pivot columns (ascending)."""
    from .structure import is_p_ideal

    if ideal.p != L.p or ideal.ambient_dim != L.dim:
        raise ValueError("ideal lives in the wrong space")
    if not is_p_ideal(L, ideal):
        raise PreconditionError("quotient requires a p-ideal")
    n, p = L.dim, L.p
    transversal = tuple(ideal.non_pivot_indices())
    d = len(transversal)
    proj = np.zeros((d, n), dtype=np.int64)
    for j in range(n):
        res = ideal.reduce_vector(np.eye(n, dtype=np.int64)[j])
        proj[:, j] = res[list(transversal)]
    section = np.zeros((n, d), dtype=np.int64)
    for t, idx in enumerate(transversal):
        section[idx, t] = 1
    sc = np.zeros((d, d, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            sc[a, b] = (proj @ L.bracket_vec(section[:, a], section[:, b])) % p
    pmap = np.zeros((d, d), dtype=np.int64)
    for a in range(d):
        pmap[a] = (proj @ L.ppow_vec(section[:, a])) % p
    labels = tuple(L.label(i) for i in transversal) if L.labels else None
    alg = RestrictedLieAlgebra(p, sc, pmap, labels=labels)
    return Quotient(alg, proj, section, ideal)


def direct_product(a: RestrictedLieAlgebra, b: RestrictedLieAlgebra) -> RestrictedLieAlgebra:
    if a.p != b.p:
        raise ValueError("factors have different characteristics")
    na, nb = a.dim, b.dim
    n = na + nb
    sc = np.zeros((n, n, n), dtype=np.int64)
    sc[:na, :na, :na] = a.sc
    sc[na:, na:, na:] = b.sc
    pmap = np.zeros((n, n), dtype=np.int64)
    pmap[:na, :na] = a.pmap
    pmap[na:, na:] = b.pmap
    labels = None
    if a.labels and b.labels:
        left = list(a.labels)
        right = [lab if lab not in left else f"{lab}'" for lab in b.labels]
        labels = left + right
    return RestrictedLieAlgebra(a.p, sc, pmap, labels=labels)


def twist_pmap(L: RestrictedLieAlgebra, A: Subspace) -> RestrictedLieAlgebra:
    """Replace the p-map by the one vanishing on a basis of the abelian p-ideal
    A and agreeing with the old p-map on the standard transversal; same bracket.

    The result has the same structure constants and labels. Two p-maps over
    one bracket differ by a linear map into the center (their ad images
    agree), which callers rely on. That difference is zero on the transversal
    and -a^[p] on each basis row a of A. A's basis is in RREF, so each row a
    is x_c plus transversal terms, c its pivot: only x_c^[p] changes, and it
    drops by a^[p].
    """
    from .structure import is_abelian_subspace, is_p_ideal

    if A.p != L.p or A.ambient_dim != L.dim:
        raise ValueError("subspace lives in the wrong space")
    if not is_abelian_subspace(L, A):
        raise PreconditionError("twist requires an abelian ideal")
    if not is_p_ideal(L, A):
        raise PreconditionError("twist requires a p-ideal")
    pmap = L.pmap.copy()
    for row, c in zip(A.basis, A.pivots):
        pmap[c] = (pmap[c] - L.ppow_vec(row)) % L.p
    return RestrictedLieAlgebra(L.p, L.sc, pmap, labels=L.labels)


# -- JSON document interface -----------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer; true and false decode to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def from_doc(doc: dict) -> RestrictedLieAlgebra:
    """Build an algebra from the JSON document format. Unknown keys and
    malformed shapes are document errors; axiom violations surface as
    validation errors from the constructor."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise DocumentError(f"unknown keys: {sorted(unknown)}")
    for key in ("p", "dim", "pmap"):
        if key not in doc:
            raise DocumentError(f"missing key: {key}")
    p, dim = doc["p"], doc["dim"]
    if not _is_int(p) or not _is_int(dim) or dim < 0:
        raise DocumentError("p and dim must be non-negative integers")
    pmap = doc["pmap"]
    if not isinstance(pmap, list) or len(pmap) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in pmap):
        raise DocumentError("pmap must be a dim x dim integer table")
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != dim
                               or any(not isinstance(s, str) for s in labels)):
        raise DocumentError("labels must be a list of dim strings")
    try:
        check_prime(p)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    brackets = {}
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise DocumentError("brackets must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != _BRACKET_KEYS:
            raise DocumentError("bracket entries must have exactly the keys i, j, v")
        i, j, v = entry["i"], entry["j"], entry["v"]
        if not _is_int(i) or not _is_int(j) or not 0 <= i < j < dim:
            raise DocumentError(f"bracket indices must satisfy 0 <= i < j < dim, got ({i}, {j})")
        if (i, j) in brackets:
            raise DocumentError(f"duplicate bracket entry ({i}, {j})")
        if not isinstance(v, list) or len(v) != dim or any(
                not _is_int(x) for x in v):
            raise DocumentError("bracket value must be an integer vector of length dim")
        brackets[i, j] = v
    if any(not _is_int(x) for row in pmap for x in row):
        raise DocumentError("pmap entries must be integers")
    return RestrictedLieAlgebra(p, _structure_constants(p, dim, brackets),
                                asmod(pmap, p).reshape(dim, dim),
                                labels=labels)


def to_doc(L: RestrictedLieAlgebra) -> dict:
    doc = {"p": L.p, "dim": L.dim, "pmap": L.pmap.tolist()}
    if L.labels:
        doc["labels"] = list(L.labels)
    brackets = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            if L.sc[i, j].any():
                brackets.append({"i": i, "j": j, "v": L.sc[i, j].tolist()})
    doc["brackets"] = brackets
    return doc
