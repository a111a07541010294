"""Named example algebras and an exhaustive enumerator of small nilpotent
restricted structures.

Bracket templates for the enumerator come from the classical classification of
nilpotent Lie algebras of dimension at most 4: abelian, the Heisenberg algebra
(plus an abelian line at dim 4), and the filiform algebra n4. Only the p-map
tables are enumerated; a basis image x_i^[p] is admissible exactly when
ad(x_i^[p]) = (ad x_i)^p has a solution, and the solution set is a coset of
the center.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (LieBracket, RestrictedLieAlgebra, _structure_constants,
                      direct_product, from_brackets)
from .derivations import h1_adjoint_dim
from .errors import CertificationError, PreconditionError
from .linalg import asmod, check_prime, coeff_blocks, rref, solve
from .structure import (center, derived, is_abelian, is_nilpotent,
                        lower_central_series, maximal_torus)

Alg = RestrictedLieAlgebra


@dataclass
class CatalogEntry:
    name: str
    algebra: Alg
    expected: Dict[str, object] = field(default_factory=dict)


def torus(n: int, p: int) -> CatalogEntry:
    """Abelian with the identity p-map: every element is semisimple."""
    check_prime(p)
    if n < 0:
        raise PreconditionError("torus dimension must be nonnegative")
    sc = np.zeros((n, n, n), dtype=np.int64)
    pmap = np.eye(n, dtype=np.int64)
    alg = Alg(p, sc, pmap, labels=[f"t{i}" for i in range(n)])
    return CatalogEntry(
        name=f"torus{n}-gf{p}", algebra=alg,
        expected={"dim": n, "torus_dim": n, "h1_adjoint_dim": 0,
                  "nilpotent": True})


def one_dim_nil(p: int) -> CatalogEntry:
    """One-dimensional span(e) with e^[p] = 0."""
    check_prime(p)
    alg = Alg(p, np.zeros((1, 1, 1), dtype=np.int64),
              np.zeros((1, 1), dtype=np.int64), labels=["e"])
    return CatalogEntry(
        name=f"onedimnil-gf{p}", algebra=alg,
        expected={"dim": 1, "torus_dim": 0, "h1_adjoint_dim": 1,
                  "nilpotent": True})


def heisenberg(p: int, variant: Union[str, Sequence, np.ndarray] = "unipotent"
               ) -> CatalogEntry:
    """Three-dimensional Heisenberg algebra [x, y] = z with a central p-map.

    variant is "unipotent" (zero p-map), "toral_center" (z^[p] = z), or an
    explicit 3x3 p-map table. Non-central images fail construction validation
    since (ad v)^p = 0 here forces ad(v^[p]) = 0.
    """
    check_prime(p)
    if isinstance(variant, str):
        if variant == "unipotent":
            pmap = np.zeros((3, 3), dtype=np.int64)
        elif variant == "toral_center":
            pmap = np.zeros((3, 3), dtype=np.int64)
            pmap[2, 2] = 1
        else:
            raise PreconditionError(f"unknown heisenberg variant {variant!r}")
        tag = variant
    else:
        pmap = asmod(variant, p)
        if pmap.shape != (3, 3):
            raise PreconditionError("explicit p-map table must be 3x3")
        tag = "custom"
    alg = from_brackets(p, 3, {(0, 1): [0, 0, 1]}, pmap=pmap,
                        labels=["x", "y", "z"])
    return CatalogEntry(
        name=f"heisenberg-gf{p}-{tag}", algebra=alg,
        expected={"dim": 3, "nilpotent": True, "center_dim": 1,
                  "derived_dim": 1})


def two_dim_nonabelian(p: int) -> CatalogEntry:
    """[e, f] = f with e^[p] = e, f^[p] = 0; solvable, not nilpotent."""
    check_prime(p)
    pmap = np.zeros((2, 2), dtype=np.int64)
    pmap[0, 0] = 1
    alg = from_brackets(p, 2, {(0, 1): [0, 1]}, pmap=pmap, labels=["e", "f"])
    return CatalogEntry(
        name=f"twodim-nonabelian-gf{p}", algebra=alg,
        expected={"dim": 2, "nilpotent": False})


def final_remark_algebra(p: int) -> CatalogEntry:
    """Direct product of the two-dimensional non-abelian algebra with a
    one-dimensional torus: not nilpotent, nonzero center, and every restricted
    derivation is inner."""
    alg = direct_product(two_dim_nonabelian(p).algebra, torus(1, p).algebra)
    return CatalogEntry(
        name=f"nonnilpotent-counterexample-gf{p}", algebra=alg,
        expected={"dim": 3, "nilpotent": False, "h1_adjoint_dim": 0,
                  "center_dim": 1})


def named_entries(p: int) -> List[CatalogEntry]:
    return [
        torus(1, p), torus(2, p), one_dim_nil(p),
        heisenberg(p, "unipotent"), heisenberg(p, "toral_center"),
        two_dim_nonabelian(p), final_remark_algebra(p),
    ]


def fingerprint(L: Alg) -> Dict[str, object]:
    """Cheap isomorphism invariants used for cross-checks and dedup sanity."""
    nilp = is_nilpotent(L)
    return {
        "dim": L.dim,
        "abelian": is_abelian(L),
        "nilpotent": nilp,
        "center_dim": center(L).dim,
        "derived_dim": derived(L).dim,
        "lcs_dims": tuple(s.dim for s in lower_central_series(L)),
        "torus_dim": maximal_torus(L).dim if nilp else None,
        "h1_adjoint_dim": h1_adjoint_dim(L),
    }


# -- enumeration ---------------------------------------------------------------


def _templates(dim: int) -> List[Tuple[str, Dict[Tuple[int, int], List[int]]]]:
    unit = lambda k: [1 if t == k else 0 for t in range(dim)]
    if dim in (1, 2):
        return [("abelian", {})]
    if dim == 3:
        return [("abelian", {}), ("heis", {(0, 1): unit(2)})]
    return [("abelian", {}),
            ("heisline", {(0, 1): unit(2)}),
            ("filiform4", {(0, 1): unit(2), (0, 2): unit(3)})]


def _pmap_candidates(sc: np.ndarray, p: int) -> Optional[List[List[np.ndarray]]]:
    """Per generator, the admissible p-map images sorted lexicographically;
    None when some generator has no admissible image (not restrictable).
    (ad x_i)^p and the center are read from the template's interned bracket,
    where the certification of the rows finds them again."""
    n = sc.shape[0]
    template = Alg(p, sc, np.zeros((n, n), dtype=np.int64), validate=False)
    coeff = template.ad_basis.reshape(n, n * n).T  # columns: vec(ad x_t)
    zen = center(template)
    offsets = np.vstack(list(coeff_blocks(zen.dim, p))) @ zen.basis
    cosets: List[List[np.ndarray]] = []
    for target in template.bracket.ad_power(p):
        part = solve(coeff, target.reshape(-1), p)
        if part is None:
            return None
        cosets.append(sorted((part + offsets) % p, key=lambda v: v.tobytes()))
    return cosets


def default_dim_bound(p: int) -> int:
    return 4 if p == 2 else 3


def check_population(p: int, dim: int) -> None:
    """The one rule for enumerated populations: p in {2, 3} and
    1 <= dim <= default_dim_bound(p). Beyond it a population outgrows a list
    (3^16 p-map tables at p = 3, dim = 4) and dedup's basis-change group
    outgrows 2^16 elements."""
    if p not in (2, 3) or not 1 <= dim <= default_dim_bound(p):
        raise PreconditionError(
            f"enumeration supports p in {{2, 3}} and 1 <= dim <= dim bound "
            f"(4 for p = 2, 3 for p = 3), got p={p}, dim={dim}")


def enumerate_nilpotent(p: int, dim: int, dedup: bool = False
                        ) -> Iterator[CatalogEntry]:
    """All restricted structures on the nilpotent bracket templates of the
    given dimension, in a fixed order (template table bytes, then p-map
    bytes). With dedup=True, one representative per orbit of the full basis
    change group is emitted. Both obey check_population."""
    check_population(p, dim)
    yield from _dedup(p, dim) if dedup else _enumerate_raw(p, dim)


def _enumerate_raw(p: int, dim: int) -> Iterator[CatalogEntry]:
    templates = sorted(
        ((slug, _structure_constants(p, dim, pairs)) for slug, pairs in _templates(dim)),
        key=lambda t: t[1].tobytes())
    for slug, sc in templates:
        cosets = _pmap_candidates(sc, p)
        if cosets is None:
            continue
        bracket, rows = _certified_rows(slug, p, sc, cosets)
        count = len(cosets[0])
        # one row index per generator, generator 0 varying slowest
        picks = iter_product(*(range(i * count, (i + 1) * count)
                               for i in range(dim)))
        for k, pick in enumerate(picks):
            yield CatalogEntry(
                name=f"gf{p}-d{dim}-{slug}-{k:06d}",
                algebra=Alg(p, bracket, rows.take(pick, axis=0), validate=False))


def _certified_rows(slug: str, p: int, sc: np.ndarray,
                    cosets: List[List[np.ndarray]]
                    ) -> Tuple[LieBracket, np.ndarray]:
    """The template's interned bracket, and every generator's candidate
    images stacked generator by generator, certified once for the template:
    the bracket axioms, nilpotency, and Jacobson's criterion on each
    candidate row. A p-map table is admissible exactly when each of its rows
    is, so any table picked from these rows on this bracket is valid."""
    rows = np.array(cosets, dtype=np.int64)  # (n, count, n)
    n, count = rows.shape[:2]
    template = Alg(p, sc, rows[:, 0], validate=False)
    template.bracket.validate()
    rows = rows.reshape(n * count, n)
    template.bracket.check_pmap(rows, np.repeat(np.arange(n), count))
    if not is_nilpotent(template):
        raise CertificationError(f"template {slug} is not nilpotent")
    return template.bracket, rows


def _invertible_matrices(n: int, p: int) -> List[np.ndarray]:
    return [g for block in coeff_blocks(n * n, p)
            for g in block.reshape(-1, n, n) if rref(g, p)[1] == n]


def _transform(L: Alg, g: np.ndarray, ginv: np.ndarray
               ) -> Tuple[bytes, bytes]:
    """Table of the isomorphic copy where the new basis vectors are the
    columns of g, keyed by bytes for orbit marking."""
    p = L.p
    brax = np.einsum("ai,bj,abk->ijk", g, g, L.sc) % p
    sc = np.einsum("ijk,mk->ijm", brax, ginv) % p
    pmap = np.stack([(ginv @ L.ppow_vec(g[:, i])) % p for i in range(L.dim)])
    return sc.tobytes(), pmap.tobytes()


def _dedup(p: int, dim: int) -> Iterator[CatalogEntry]:
    group = _invertible_matrices(dim, p)
    inverses = []
    for g in group:
        aug, npiv = rref(np.hstack([g, np.eye(dim, dtype=np.int64)]), p)
        if npiv != dim:
            raise CertificationError("group element is not invertible")
        inverses.append(aug[:, dim:])
    seen = set()
    for entry in _enumerate_raw(p, dim):
        key = (entry.algebra.sc.tobytes(), entry.algebra.pmap.tobytes())
        if key in seen:
            continue
        for g, ginv in zip(group, inverses):
            seen.add(_transform(entry.algebra, g, ginv))
        yield entry
