"""Exact linear algebra over prime fields GF(p).

Vectors are 1-d numpy int64 arrays of residues, matrices are 2-d arrays acting
on the left (w = M @ v mod p). Subspaces are kept in canonical reduced
row-echelon form so that equality of subspaces is equality of basis tables.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, PreconditionError

DEFAULT_BUDGET = 2 ** 24
MAX_PRIME = 251


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, (int, np.integer)) or not 2 <= p <= MAX_PRIME or not is_prime(int(p)):
        raise ValueError(f"p must be a prime with 2 <= p <= {MAX_PRIME}, got {p!r}")
    return int(p)


def asmod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def inv_scalar(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return pow(a, p - 2, p)


def mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m**e mod p by binary exponentiation; reduces after every product."""
    n = m.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = m % p
    while e > 0:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


def _rref(m: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form with deterministic pivoting.

    Pivots are chosen at the leftmost unfinished column, using the first row
    with a nonzero entry there. Returns (R, pivot_columns).
    """
    a = asmod(m, p).copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * inv_scalar(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref(m: np.ndarray, p: int) -> Tuple[np.ndarray, int]:
    r, pivots = _rref(m, p)
    return r, len(pivots)


def solve(m: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution of m @ x = b mod p with free variables set to 0, or None."""
    a = asmod(m, p)
    rhs = asmod(b, p).reshape(-1, 1)
    if a.shape[0] != rhs.shape[0]:
        raise ValueError("shape mismatch")
    aug, pivots = _rref(np.hstack([a, rhs]), p)
    if a.shape[1] in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = np.zeros(a.shape[1], dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = aug[row, -1]
    return x


def kernel(m: np.ndarray, p: int) -> "Subspace":
    """Null space {v : m @ v = 0} as a canonical Subspace."""
    a = asmod(m, p)
    rows, cols = a.shape
    r, pivots = _rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for row, c in enumerate(pivots):
            basis[k, c] = (-r[row, f]) % p
    return Subspace.from_rows(basis, p, cols)


class Subspace:
    """A subspace of GF(p)^n held as a canonical RREF basis (rows)."""

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, basis: np.ndarray, p: int, ambient_dim: int, pivots: Sequence[int]):
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def from_rows(cls, rows, p: int, ambient_dim: Optional[int] = None) -> "Subspace":
        p = check_prime(p)
        a = asmod(rows, p)
        if a.size == 0:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty row list")
            a = a.reshape(0, ambient_dim)
        if a.ndim != 2:
            raise ValueError("expected rows as a 2-d array")
        if ambient_dim is not None and a.shape[1] != ambient_dim:
            raise ValueError("row length does not match ambient_dim")
        r, pivots = _rref(a, p)
        return cls(r[: len(pivots)].copy(), p, a.shape[1], pivots)

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(np.zeros((0, ambient_dim), dtype=np.int64), check_prime(p), ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=np.int64), check_prime(p),
                   ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.p == other.p
                and self.ambient_dim == other.ambient_dim
                and np.array_equal(self.basis, other.basis))

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}, ambient={self.ambient_dim})"

    def reduce_vector(self, v) -> np.ndarray:
        """Residue of v after elimination by the basis rows; zero iff v is a member."""
        w = asmod(v, self.p).copy()
        if w.shape != (self.ambient_dim,):
            raise ValueError("vector has wrong length")
        for row, c in enumerate(self.pivots):
            if w[c]:
                w = (w - w[c] * self.basis[row]) % self.p
        return w

    def contains_vector(self, v) -> bool:
        return not self.reduce_vector(v).any()

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def coords_of(self, v) -> np.ndarray:
        """Coefficients c with c @ basis = v; PreconditionError if v is outside."""
        w = asmod(v, self.p)
        c = w[list(self.pivots)]
        if not np.array_equal((c @ self.basis) % self.p, w):
            raise PreconditionError("vector lies outside the subspace")
        return c

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(np.vstack([self.basis, other.basis]), self.p, self.ambient_dim)

    def intersection(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = np.hstack([self.basis.T, (-other.basis.T) % self.p])
        ker = kernel(stacked, self.p)
        vecs = (ker.basis[:, : self.dim] @ self.basis) % self.p
        return Subspace.from_rows(vecs, self.p, self.ambient_dim)

    def annihilator(self) -> np.ndarray:
        """Rows w with w . s = 0 for all s in the subspace; kernel of it is self."""
        return kernel(self.basis, self.p).basis

    def non_pivot_indices(self) -> List[int]:
        return [c for c in range(self.ambient_dim) if c not in self.pivots]

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")


def complements(s: Subspace, budget: int = DEFAULT_BUDGET) -> Iterator[Subspace]:
    """All subspaces U with U + s = ambient and U ^ s = 0, in deterministic order.

    Complements are graphs of linear maps from the standard transversal (unit
    vectors at non-pivot columns) into s; the maps are enumerated in row-major
    lexicographic coefficient order.
    """
    p, n, k = s.p, s.ambient_dim, s.dim
    d = n - k
    count = p ** (k * d)
    if count > budget:
        raise BudgetExceededError(count, budget)
    transversal = np.eye(n, dtype=np.int64)[s.non_pivot_indices()]
    for block in coeff_blocks(d * k, p):
        for phi in block:
            rows = (transversal + phi.reshape(d, k) @ s.basis) % p
            yield Subspace.from_rows(rows, p, n)


def coeff_blocks(num_vars: int, p: int, block: int = 4096) -> Iterator[np.ndarray]:
    """Enumerate GF(p)^num_vars in lexicographic order as stacked digit blocks."""
    total = p ** num_vars
    powers = p ** np.arange(num_vars - 1, -1, -1, dtype=np.int64)
    start = 0
    while start < total:
        stop = min(start + block, total)
        idx = np.arange(start, stop, dtype=np.int64)
        yield (idx[:, None] // powers) % p
        start = stop


def enumerate_subspaces(ambient_dim: int, p: int,
                        dims: Optional[Sequence[int]] = None) -> Iterator[Subspace]:
    """All subspaces of GF(p)^n, in deterministic order (dimension ascending,
    then pivot columns, then free entries lexicographically). Desk scale only."""
    p = check_prime(p)
    n = ambient_dim
    wanted = range(n + 1) if dims is None else sorted(set(dims))
    for k in wanted:
        for pivots in combinations(range(n), k):
            # free entries: right of the row's pivot, outside pivot columns
            free = np.arange(n) > np.array(pivots)[:, None]
            free[:, pivots] = False
            for block in coeff_blocks(int(free.sum()), p):
                # each basis is in RREF by construction
                bases = np.zeros((len(block), k, n), dtype=np.int64)
                bases[:, range(k), pivots] = 1
                bases[:, free] = block
                for basis in bases:
                    yield Subspace(basis, p, n, pivots)
