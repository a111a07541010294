"""Checks of rla's claim reports, made apart from rla.

Nothing here imports rla. Expected values come from closed forms or from brute
force over the structure tensor of one instance:

* every instance's tables are rebuilt from its ``algebra_id``: the enumerator
  numbers the p-map tables of each bracket template in lexicographic order, so
  the index spells the table in base-p digits;
* population sizes and exception counts are sums of p^(n^2) and |GL_n(F_p)|;
* witnesses are re-certified by contracting the structure tensor, by integer
  matrix powers and by enumerating all p^n inner derivations;
* p-powers use the closed form for nilpotency class <= 2;
* abelian invariants use the rank of the p-map matrix, found by counting the
  vectors of its kernel.

Populations are the enumerated ones of GF(2) dims <= 4 and GF(3) dims <= 3.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

EXISTENCE_CLAIMS = ("Thm-3.3", "Cor-3.4")
STRUCTURE_CLAIMS = ("Prop-2.5-dimformula", "Lem-2.6")
NONABELIAN_CLAIMS = ("Prop-2.4",)
# claim -> report invariants that have a closed form on abelian instances
ABELIAN_INVARIANTS = {"Thm-3.3": ("h1_adjoint_dim", "torus_dim"), "Lem-2.6": ("torus_dim",)}

_ID = re.compile(r"gf(\d+)-d(\d+)-([a-z0-9]+)-(\d{6})")


# -- closed forms ---------------------------------------------------------------


def _check_scope(p: int, bound: int) -> None:
    if not (p == 2 and 1 <= bound <= 4 or p == 3 and 1 <= bound <= 3):
        raise ValueError(f"no closed form for GF({p}) dims <= {bound}")


def templates(p: int, n: int) -> List[Tuple[str, int]]:
    """(slug, number of p-map tables) per bracket template of dimension n, in
    the enumerator's order. In dim 3 a Heisenberg p-map sends each generator to
    a multiple of z; in dim 4 (p = 2) Heisenberg + line sends each generator
    into the 2-dimensional center. The filiform table has no p-map in char 2."""
    out = [("abelian", p ** (n * n))]
    if n == 3:
        out.append(("heis", p ** 3))
    if n == 4 and p == 2:
        out.append(("heisline", (p * p) ** 4))
    return out


def population_ids(p: int, bound: int, nonabelian: bool = False) -> List[str]:
    _check_scope(p, bound)
    return [f"gf{p}-d{n}-{slug}-{k:06d}"
            for n in range(1, bound + 1)
            for slug, count in templates(p, n)
            if not (nonabelian and slug == "abelian")
            for k in range(count)]


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def population_total(p: int, bound: int) -> int:
    _check_scope(p, bound)
    total = sum(p ** (n * n) for n in range(1, bound + 1))
    if bound >= 3:
        total += p ** 3
    if p == 2 and bound >= 4:
        total += 2 ** 8
    return total


def exception_total(p: int, bound: int) -> int:
    """Tori, plus the line with zero p-map, plus the char-2 Heisenberg tables."""
    _check_scope(p, bound)
    out = sum(gl_order(n, p) for n in range(1, bound + 1)) + 1
    if p == 2 and bound >= 3:
        out += 2 ** 3
    return out


def expected_summary(claim: str, p: int, bound: int) -> Dict[str, int]:
    total = population_total(p, bound)
    exceptions = 0
    if claim in EXISTENCE_CLAIMS:
        exceptions = exception_total(p, bound)
    elif claim in NONABELIAN_CLAIMS:
        total -= sum(p ** (n * n) for n in range(1, bound + 1))
    elif claim not in STRUCTURE_CLAIMS:
        raise ValueError(f"no closed form for claim {claim!r}")
    return {"pass": total - exceptions, "fail": 0, "exception": exceptions,
            "budget": 0, "total": total}


# -- tables rebuilt from ids ------------------------------------------------------


def _digits(k: int, base: int, width: int) -> List[int]:
    out = []
    for _ in range(width):
        k, d = divmod(k, base)
        out.append(d)
    return out[::-1]


def table(algebra_id: str) -> Tuple[int, str, np.ndarray, np.ndarray]:
    """(p, slug, sc, pmap) of an enumerated instance; sc[i, j] holds the
    coordinates of [x_i, x_j] and pmap[i] those of x_i^[p]."""
    m = _ID.fullmatch(algebra_id)
    if m is None:
        raise ValueError(f"not an enumerated algebra id: {algebra_id!r}")
    p, n, slug, k = int(m[1]), int(m[2]), m[3], int(m[4])
    sizes = dict(templates(p, n))
    if slug not in sizes or k >= sizes[slug]:
        raise ValueError(f"no such instance: {algebra_id!r}")
    sc = np.zeros((n, n, n), dtype=np.int64)
    pmap = np.zeros((n, n), dtype=np.int64)
    if slug == "abelian":
        pmap[:] = np.array(_digits(k, p, n * n)).reshape(n, n)
    else:
        sc[0, 1, 2], sc[1, 0, 2] = 1, p - 1
        if slug == "heis":
            pmap[:, 2] = _digits(k, p, 3)
        else:
            for i, d in enumerate(_digits(k, 4, 4)):
                pmap[i, 2], pmap[i, 3] = divmod(d, 2)
    return p, slug, sc, pmap


def expected_tag(p: int, slug: str, pmap: np.ndarray) -> Optional[str]:
    n = pmap.shape[0]
    if slug == "abelian":
        if rank(pmap, p) == n:
            return "torus"
        return "dim-1" if n == 1 else None
    return "h1-char-2" if p == 2 and slug == "heis" else None


# -- brute force over the tables -----------------------------------------------------


@lru_cache(maxsize=None)
def all_vectors(n: int, p: int) -> np.ndarray:
    """Every vector of GF(p)^n, lexicographic, as rows."""
    return np.array(list(product(range(p), repeat=n)), dtype=np.int64).reshape(-1, n)


def _log(count: int, p: int) -> int:
    k = 0
    while p ** k < count:
        k += 1
    if p ** k != count:
        raise ValueError(f"{count} is not a power of {p}")
    return k


def rank(m: np.ndarray, p: int) -> int:
    """Rank of a square matrix: n minus the dimension of {v : v m = 0}."""
    n = m.shape[0]
    kernel = ~((all_vectors(n, p) @ m) % p).any(axis=1)
    return n - _log(int(kernel.sum()), p)


def int_power(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    for _ in range(e):
        out = (out @ m) % p
    return out


def abelian_invariants(pmap: np.ndarray, p: int) -> Dict[str, int]:
    """On an abelian algebra a restricted derivation is any map killing the
    image of the p-map, none is inner, and the maximal torus is the stable
    image of the p-map."""
    n = pmap.shape[0]
    return {"h1_adjoint_dim": n * (n - rank(pmap, p)),
            "torus_dim": rank(int_power(pmap, n, p), p)}


def bracket(sc: np.ndarray, u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    return np.einsum("...i,...j,ijk->...k", u, v, sc) % p


def center(sc: np.ndarray, p: int) -> np.ndarray:
    """Every central vector, as rows."""
    vecs = all_vectors(sc.shape[0], p)
    return vecs[~(np.einsum("si,ijk->sjk", vecs, sc) % p).any(axis=(1, 2))]


def ad_matrices(sc: np.ndarray) -> np.ndarray:
    """ad[i] @ v = [x_i, v]; column j of ad[i] is [x_i, x_j]."""
    return sc.transpose(0, 2, 1)


def ppow_class2(sc: np.ndarray, pmap: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(sum c_i x_i)^[p] = sum c_i x_i^[p], plus sum_{i<j} c_i c_j [x_i, x_j]
    when p = 2; valid for nilpotency class <= 2 only. v may be a stack."""
    if (np.einsum("ijm,mkl->ijkl", sc, sc) % p).any():
        raise ValueError("closed-form p-power needs nilpotency class <= 2")
    out = v @ pmap
    if p == 2:
        upper = np.triu(np.ones(sc.shape[:2], dtype=np.int64), 1)[:, :, None] * sc
        out = out + np.einsum("...i,...j,ijk->...k", v, v, upper)
    return out % p


# -- certifiers ---------------------------------------------------------------------


def derivation_faults(sc: np.ndarray, pmap: np.ndarray, d: np.ndarray, p: int,
                      square_zero: bool) -> List[str]:
    """Why d (column j = image of x_j) is not an outer restricted derivation
    with d^2 = 0 (or, with square_zero False, d nilpotent); empty if it is."""
    n = pmap.shape[0]
    d = np.asarray(d, dtype=np.int64) % p
    if d.shape != (n, n):
        return ["shape"]
    faults = []
    eye = np.eye(n, dtype=np.int64)
    lhs = np.einsum("km,ijm->ijk", d, sc)                        # D[x_i, x_j]
    rhs = (bracket(sc, d.T[:, None, :], eye[None, :, :], p)      # [D x_i, x_j]
           + bracket(sc, eye[:, None, :], d.T[None, :, :], p))   # [x_i, D x_j]
    if ((lhs - rhs) % p).any():
        faults.append("leibniz")
    ad = ad_matrices(sc)
    for i in range(n):
        if ((d @ pmap[i] - int_power(ad[i], p - 1, p) @ d[:, i]) % p).any():
            faults.append("restricted")
            break
    if square_zero and ((d @ d) % p).any():
        faults.append("square-zero")
    if not square_zero and int_power(d, n, p).any():
        faults.append("nilpotent")
    inner = (all_vectors(n, p) @ ad.reshape(n, n * n)) % p
    if (inner == d.reshape(-1)).all(axis=1).any():
        faults.append("inner")
    return faults


def span(rows: np.ndarray, p: int) -> set:
    vecs = (all_vectors(rows.shape[0], p) @ rows) % p
    return set(map(tuple, vecs.tolist()))


def complement_faults(sc: np.ndarray, pmap: np.ndarray, rows, p: int,
                      expected_dim: int) -> List[str]:
    """Why the row span h is not a p-subalgebra of the given dimension that
    contains the center; empty if it is."""
    n = pmap.shape[0]
    h = np.asarray(rows, dtype=np.int64).reshape(-1, n) % p
    members = span(h, p)
    faults = []
    if h.shape[0] != expected_dim or len(members) != p ** expected_dim:
        faults.append("dimension")
    if not set(map(tuple, center(sc, p).tolist())) <= members:
        faults.append("center")
    brackets = bracket(sc, h[:, None, :], h[None, :, :], p).reshape(-1, n)
    if not set(map(tuple, brackets.tolist())) <= members:
        faults.append("bracket")
    elements = np.array(sorted(members), dtype=np.int64).reshape(-1, n)
    if not set(map(tuple, ppow_class2(sc, pmap, elements, p).tolist())) <= members:
        faults.append("p-closed")
    return faults


# -- report checks --------------------------------------------------------------------


def instance_faults(claim: str, inst: Dict[str, object]) -> List[str]:
    """Every check of one report instance against the rebuilt tables."""
    p, slug, sc, pmap = table(inst["algebra_id"])
    n = pmap.shape[0]
    inv = inst["invariants"]
    witness = inst["witness"]
    faults = []
    tag = expected_tag(p, slug, pmap)
    want = "pass"
    if claim in EXISTENCE_CLAIMS and tag is not None:
        want = f"exception:{tag}"
    if inst["verdict"] != want:
        faults.append(f"verdict {inst['verdict']} != {want}")
    if inv.get("dim") != n:
        faults.append("dim")
    if claim in EXISTENCE_CLAIMS + ("Prop-2.5-dimformula",) and inv.get("exceptional") != tag:
        faults.append("exceptional")
    if slug == "abelian" and claim in ABELIAN_INVARIANTS:
        closed = abelian_invariants(pmap, p)
        faults += [key for key in ABELIAN_INVARIANTS[claim] if inv.get(key) != closed[key]]
    if claim in EXISTENCE_CLAIMS:
        if tag is not None:
            if witness is not None:
                faults.append("witness on an exception")
        elif witness is None:
            faults.append("witness missing")
        else:
            faults += derivation_faults(sc, pmap, np.array(witness), p,
                                        square_zero=claim == "Thm-3.3")
        if claim == "Cor-3.4":
            outer = tag is None
            if inv.get("nilpotent_outer") is not outer or inv.get("square_zero_outer") is not outer:
                faults.append("existence flags")
    if (claim in ("Prop-2.5-dimformula", "Prop-2.4")
            and inv.get("center_dim") != _log(len(center(sc, p)), p)):
        faults.append("center_dim")
    if claim == "Prop-2.5-dimformula":
        if witness is not None:
            faults += complement_faults(sc, pmap, witness, p,
                                        n - inv["ideal_dim"] + inv["center_dim"])
        elif tag is not None:
            faults.append("witness missing")
    return faults


def summary_faults(claim: str, p: int, bound: int, summary: Dict[str, int]) -> List[str]:
    want = expected_summary(claim, p, bound)
    return [f"summary {k}: {summary.get(k)} != {v}" for k, v in want.items()
            if summary.get(k) != v]


def tally(instances: Sequence[Dict[str, object]]) -> Dict[str, int]:
    counts = {"pass": 0, "fail": 0, "exception": 0, "budget": 0,
              "total": len(instances)}
    for inst in instances:
        verdict = inst["verdict"]
        key = "exception" if verdict.startswith("exception:") else verdict
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_report(claim: str, p: int, bound: int, report: Dict[str, object]
                 ) -> Tuple[int, List[str], List[str]]:
    """(failed instances, report-level errors, first instance faults)."""
    errors = []
    instances = report["instances"]
    ids = [inst["algebra_id"] for inst in instances]
    if report["claim"] != claim:
        errors.append(f"claim {report['claim']!r}")
    if ids != population_ids(p, bound, nonabelian=claim in NONABELIAN_CLAIMS):
        errors.append("instance ids differ from the closed-form population")
    if report["population"].get("count") != len(instances):
        errors.append("population count differs from the instance count")
    if report["summary"] != tally(instances):
        errors.append("summary differs from the instance verdicts")
    errors += summary_faults(claim, p, bound, report["summary"])
    failed, samples = 0, []
    for inst in instances:
        try:
            faults = instance_faults(claim, inst)
        except (KeyError, TypeError, ValueError) as exc:
            faults = [f"malformed instance: {exc!r}"]
        if faults:
            failed += 1
            if len(samples) < 5:
                samples.append(f"{inst.get('algebra_id')}: {', '.join(faults)}")
    return failed, errors, samples
