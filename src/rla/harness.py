"""Claim-verification suites over enumerated populations, with deterministic
machine-readable reports.

Claim identifiers are opaque registry tokens; the behavior each one checks is
spelled out in CLAIM_DESCRIPTIONS and in the per-claim checker docstrings.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .algebra import RestrictedLieAlgebra, _cached, quotient
from .catalog import (CatalogEntry, check_population, default_dim_bound,
                      enumerate_nilpotent, final_remark_algebra, torus)
from .cohomology import find_p_complement, induced_module, is_free_over_unipotent
from .config import Config
from .derivations import (_iter_candidates, der_p, explicit_h1_char2_outer,
                          find_nilpotent_outer, find_square_zero_outer,
                          h1_adjoint_dim, inner)
from .errors import BudgetExceededError, CertificationError, PreconditionError
from .linalg import Subspace, check_prime, enumerate_subspaces, mat_pow
from .structure import (center, centralizer, is_abelian, is_nilpotent,
                        maximal_abelian_p_ideal, maximal_torus)

Alg = RestrictedLieAlgebra

CLAIM_DESCRIPTIONS: Dict[str, str] = {
    "Thm-3.3": "every enumerated nilpotent algebra outside the exception list "
               "has a certified square-zero outer restricted derivation, and "
               "the exceptional ones have none (complete search)",
    "Cor-3.4": "existence of a nilpotent outer restricted derivation, "
               "existence of a square-zero outer restricted derivation, and "
               "non-exceptionality coincide on every instance",
    "Thm-3.6": "every non-toral nilpotent algebra has outer restricted "
               "derivations; tori have none",
    "Prop-2.4": "every maximal abelian p-ideal of a non-abelian nilpotent "
                "algebra is self-centralizing and properly contains the center",
    "Prop-2.5-dimformula": "when no square-zero outer restricted derivation "
                           "exists, a maximal abelian p-ideal is free over the "
                           "quotient's restricted enveloping algebra with rank "
                           "r = dim center and dim L = d + r*p^d; a "
                           "p-complement through the center exists whenever "
                           "the freeness criterion holds",
    "Lem-2.6": "every maximal proper p-ideal containing the maximal torus has "
               "codimension one",
    "Prop-3.1": "tori admit no nonzero restricted derivations",
    "Prop-3.2": "on the three-dimensional char-2 algebras with central "
                "brackets, every nilpotent restricted derivation is inner and "
                "has the constrained matrix shape",
    "Remark-counterexample": "a non-nilpotent algebra with nonzero center has "
                             "no outer restricted derivations, so nilpotency "
                             "cannot be dropped",
}


def exception_tag(L: Alg) -> Optional[str]:
    """Classify a nilpotent algebra against the exclusion list of the main
    existence theorem: tori, the 1-dimensional algebra with zero p-map, and
    char-2 algebras that are 3-dimensional non-abelian nilpotent (the
    Heisenberg bracket, whatever the central p-map)."""
    if maximal_torus(L).dim == L.dim:
        return "torus"
    if L.dim == 1:
        return "dim-1"
    if L.p == 2 and L.dim == 3 and not is_abelian(L):
        return "h1-char-2"
    return None


# -- report types ------------------------------------------------------------


@dataclass(slots=True)
class InstanceResult:
    algebra_id: str
    verdict: str
    witness: Optional[List[List[int]]] = None
    invariants: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"algebra_id": self.algebra_id, "verdict": self.verdict,
                "witness": self.witness, "invariants": self.invariants}


@dataclass
class TheoremReport:
    claim: str
    population: Dict[str, object]
    instances: List[InstanceResult]
    summary: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return {"claim": self.claim, "population": self.population,
                "instances": [r.to_dict() for r in self.instances],
                "summary": self.summary}

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_dict(), sort_keys=True, indent=2)
        plus a newline, encoded one instance at a time: the dict tree of a
        whole report is larger than its text."""
        def enc(value, depth: int) -> str:  # JSON strings escape newlines
            text = json.dumps(value, sort_keys=True, indent=2)
            return text.replace("\n", "\n" + "  " * depth)

        buf = io.StringIO()
        buf.write('{\n  "claim": ' + enc(self.claim, 1) + ',\n  "instances": [')
        for k, r in enumerate(self.instances):
            buf.write(("," if k else "") + "\n    " + enc(r.to_dict(), 2))
        buf.write("\n  ]" if self.instances else "]")
        buf.write(',\n  "population": ' + enc(self.population, 1))
        buf.write(',\n  "summary": ' + enc(self.summary, 1) + "\n}\n")
        return buf.getvalue()

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TheoremReport":
        return cls(claim=d["claim"], population=d["population"],
                   instances=[InstanceResult(**r) for r in d["instances"]],
                   summary=d["summary"])

    @classmethod
    def from_json(cls, text: str) -> "TheoremReport":
        return cls.from_dict(json.loads(text))

    @property
    def clean(self) -> bool:
        return self.summary["fail"] == 0 and self.summary["budget"] == 0


def summarize(instances: Iterable[InstanceResult]) -> Dict[str, int]:
    counts = {"pass": 0, "fail": 0, "exception": 0, "budget": 0, "total": 0}
    for r in instances:
        counts["total"] += 1
        if r.verdict.startswith("exception:"):
            counts["exception"] += 1
        else:
            counts[r.verdict] += 1
    return counts


def export_csv(report: TheoremReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["claim", "algebra_id", "verdict", "witness", "invariants"])
    for r in report.instances:
        w.writerow([
            report.claim, r.algebra_id, r.verdict,
            json.dumps(r.witness) if r.witness is not None else "",
            json.dumps(r.invariants, sort_keys=True),
        ])
    return buf.getvalue()


# -- subspace scan plumbing ----------------------------------------------------


def _bracket_scan(L: Alg) -> Tuple[Tuple[int, np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray], ...]:
    """Proper subspaces of GF(p)^n grouped by dimension, with what L's bracket
    alone decides about them: (k, bases, anns, ideal, abelian) with bases
    (count, k, n), anns (count, n-k, n) and masks of the ideals and of the
    abelian subspaces. Computed once per bracket, so read-only."""
    def compute():
        n, p, sc = L.dim, L.p, L.sc
        groups = []
        for k in range(n):
            subs = list(enumerate_subspaces(n, p, [k]))
            bases = np.stack([s.basis for s in subs])
            anns = np.stack([s.annihilator() for s in subs])
            brk = np.einsum("ijm,skj->sikm", sc, bases) % p
            viol = np.einsum("sikm,sqm->sikq", brk, anns) % p
            ideal = ~viol.reshape(len(subs), -1).any(axis=1)
            pb = np.einsum("ski,slj,ijm->sklm", bases, bases, sc) % p
            abelian = ~pb.reshape(len(subs), -1).any(axis=1)
            for table in (bases, anns, ideal, abelian):
                table.setflags(write=False)
            groups.append((k, bases, anns, ideal, abelian))
        return tuple(groups)
    return _cached(L.bracket, "subspace_scan", compute)


def _scan_p_ideals(L: Alg, want_abelian: bool, require_torus: bool
                   ) -> List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Flag, over all proper subspaces, the p-ideals (optionally abelian,
    optionally containing the maximal torus). Returns per-dimension groups
    (k, bases, anns, mask).

    Being an ideal and being abelian are bracket facts, read from
    _bracket_scan. Per algebra only two tests run: containing the torus, and
    closure under the p-map, which an ideal passes once the p-powers of its
    basis rows lie in it (see is_p_subalgebra). Those p-powers are computed
    once per distinct row among the remaining subspaces: as the matching
    combination of table rows on an abelian bracket, by ppow_vec otherwise."""
    n, p = L.dim, L.p
    t = maximal_torus(L) if require_torus else None
    groups = _bracket_scan(L)
    masks = []
    for k, bases, anns, ideal, abelian in groups:
        mask = ideal & abelian if want_abelian else ideal.copy()
        if require_torus and t.dim:
            viol = np.einsum("sqm,tm->sqt", anns, t.basis) % p
            mask &= ~viol.reshape(mask.size, -1).any(axis=1)
        masks.append(mask)
    rows = [bases[mask].reshape(-1, n)
            for (_, bases, _, _, _), mask in zip(groups, masks)]
    rows = np.concatenate(rows) if rows else np.zeros((0, n), dtype=np.int64)
    if L.bracket.abelian:
        images = (rows @ L.pmap) % p
    else:
        distinct, where = np.unique(rows, axis=0, return_inverse=True)
        images = np.array([L.ppow_vec(r) for r in distinct],
                          dtype=np.int64).reshape(-1, n)[where.reshape(-1)]
    out, start = [], 0
    for (k, bases, anns, _, _), mask in zip(groups, masks):
        idx = np.nonzero(mask)[0]
        if k and idx.size:
            pps = images[start:start + idx.size * k].reshape(idx.size, k, n)
            start += idx.size * k
            viol = np.einsum("skm,sqm->skq", pps, anns[idx]) % p
            mask[idx] = ~viol.reshape(idx.size, -1).any(axis=1)
        out.append((k, bases, anns, mask))
    return out


def _self_centralizing(L: Alg) -> Tuple[np.ndarray, ...]:
    """Per group of _bracket_scan, which abelian ideals equal their own
    centralizer and properly contain the center: bracket facts, computed
    once per bracket."""
    def compute():
        n, p = L.dim, L.p
        zen = center(L)
        out = []
        for k, bases, _, ideal, abelian in _bracket_scan(L):
            good = np.zeros(ideal.size, dtype=bool)
            for s in np.nonzero(ideal & abelian)[0]:
                a = Subspace.from_rows(bases[s], p, n)
                good[s] = (centralizer(L, a) == a and a.contains(zen)
                           and zen.dim < a.dim)
            good.setflags(write=False)
            out.append(good)
        return tuple(out)
    return _cached(L.bracket, "self_centralizing", compute)


def _maximal_flags(groups, p: int) -> List[np.ndarray]:
    """Per group, which flagged subspaces are maximal among all flagged ones
    (not properly contained in a flagged subspace of higher dimension)."""
    flags = []
    for gi, (k, bases, anns, mask) in enumerate(groups):
        idx = np.nonzero(mask)[0]
        is_max = np.ones(idx.size, dtype=bool)
        if idx.size:
            small = bases[idx]
            for _, _, anns2, mask2 in groups[gi + 1:]:
                idx2 = np.nonzero(mask2)[0]
                if idx2.size == 0:
                    continue
                # small[b] inside big[a]  <=>  ann(big[a]) kills its basis rows
                prod = np.einsum("aqm,bkm->abqk", anns2[idx2], small) % p
                contained = ~prod.any(axis=(2, 3))
                is_max &= ~contained.any(axis=0)
        flags.append(is_max)
    return flags


# -- per-instance checkers -----------------------------------------------------


def _base_invariants(L: Alg) -> Dict[str, object]:
    return {"dim": L.dim, "torus_dim": int(maximal_torus(L).dim),
            "h1_adjoint_dim": int(h1_adjoint_dim(L))}


def _check_thm33(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Square-zero outer restricted derivation exists iff not exceptional."""
    tag = exception_tag(L)
    inv = _base_invariants(L)
    inv["exceptional"] = tag
    w = find_square_zero_outer(L, budget)
    witness = w.matrix.tolist() if w is not None else None
    if tag is None:
        verdict = "pass" if w is not None else "fail"
    else:
        verdict = f"exception:{tag}" if w is None else "fail"
    return InstanceResult(algebra_id, verdict, witness, inv)


def _check_cor34(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Nilpotent-outer existence, square-zero-outer existence, and
    non-exceptionality must agree. A square-zero witness is already nilpotent;
    the complete scan of der_p only has to run when no square-zero derivation
    exists, to certify that nothing nilpotent was missed."""
    tag = exception_tag(L)
    sq0_w = find_square_zero_outer(L, budget)
    nil_w = sq0_w if sq0_w is not None else find_nilpotent_outer(L, budget)
    inv = {"dim": L.dim, "exceptional": tag,
           "nilpotent_outer": nil_w is not None,
           "square_zero_outer": sq0_w is not None}
    consistent = (nil_w is not None) == (sq0_w is not None) == (tag is None)
    witness = nil_w.matrix.tolist() if nil_w is not None else None
    if not consistent:
        verdict = "fail"
    elif tag is not None:
        verdict = f"exception:{tag}"
    else:
        verdict = "pass"
    return InstanceResult(algebra_id, verdict, witness, inv)


def _check_thm36(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """h1 on the adjoint module is >= 1 exactly off the tori; on the char-2
    Heisenberg instances the explicit center-killing witness must certify."""
    inv = _base_invariants(L)
    toral = inv["torus_dim"] == L.dim
    h1 = inv["h1_adjoint_dim"]
    ok = h1 == 0 if toral else h1 >= 1
    witness = None
    if ok and L.p == 2 and L.dim == 3 and not is_abelian(L):
        d = explicit_h1_char2_outer(L)
        witness = d.matrix.tolist()
    return InstanceResult(algebra_id, "pass" if ok else "fail", witness, inv)


def _check_prop24(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Exhaustive subspace scan: every maximal abelian p-ideal equals its own
    centralizer and properly contains the center. The scan must meet the
    greedy maximal abelian p-ideal."""
    groups = _scan_p_ideals(L, want_abelian=True, require_torus=False)
    max_flags = _maximal_flags(groups, L.p)
    zen = center(L)
    greedy = maximal_abelian_p_ideal(L)
    greedy_seen = False
    ok = True
    count = 0
    dims = []
    for (k, bases, _, mask), is_max, good in zip(groups, max_flags,
                                                 _self_centralizing(L)):
        top = np.nonzero(mask)[0][is_max]
        if top.size:
            count += int(top.size)
            dims.append(k)
            ok = ok and bool(good[top].all())
            # subspaces are equal exactly when their RREF bases are
            greedy_seen = greedy_seen or (k == greedy.dim and any(
                np.array_equal(bases[s], greedy.basis) for s in top))
    if not greedy_seen:
        raise CertificationError("greedy maximal abelian p-ideal missing from the scan")
    inv = {"dim": L.dim, "maximal_abelian_p_ideal_count": count,
           "maximal_abelian_p_ideal_dims": dims,
           "center_dim": int(zen.dim)}
    return InstanceResult(algebra_id, "pass" if ok else "fail", None, inv)


def _check_prop25(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """On exceptional instances: the chosen maximal abelian p-ideal is free
    over the quotient's enveloping algebra with rank = dim center and
    dim L = d + r*p^d, and a p-complement through the center exists. On all
    other instances the complement must exist whenever freeness holds."""
    p = L.p
    tag = exception_tag(L)
    a = maximal_abelian_p_ideal(L)
    q = quotient(L, a)
    mod = induced_module(L, q, a)
    free, rank = is_free_over_unipotent(q.algebra, mod)
    d = q.algebra.dim
    r = center(L).dim
    inv = {"dim": L.dim, "exceptional": tag, "free": bool(free),
           "rank": int(rank), "quotient_dim": int(d), "center_dim": int(r),
           "ideal_dim": int(a.dim)}
    comp = find_p_complement(L, a, budget) if tag is not None or free else None
    if tag is not None:
        formula = L.dim == d + r * p ** d
        inv["formula_holds"] = formula
        ok = free and rank == r and formula and comp is not None
    else:
        ok = not free or comp is not None
    witness = comp.basis.tolist() if comp is not None else None
    return InstanceResult(algebra_id, "pass" if ok else "fail", witness, inv)


def _check_lem26(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Every maximal element among the proper p-ideals containing the maximal
    torus has codimension one."""
    groups = _scan_p_ideals(L, want_abelian=False, require_torus=True)
    max_flags = _maximal_flags(groups, L.p)
    ok = True
    max_count = 0
    for (k, _, _, _), is_max in zip(groups, max_flags):
        hits = int(is_max.sum())
        max_count += hits
        if hits and k != L.dim - 1:
            ok = False
    inv = {"dim": L.dim, "torus_dim": int(maximal_torus(L).dim),
           "maximal_p_ideal_count": max_count}
    return InstanceResult(algebra_id, "pass" if ok else "fail", None, inv)


def _check_prop31(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Restricted derivations of a torus are zero."""
    dim_dp = der_p(L).dim
    inv = {"dim": L.dim, "der_p_dim": int(dim_dp)}
    return InstanceResult(algebra_id, "pass" if dim_dp == 0 else "fail", None, inv)


def _check_prop32(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Complete scan of der_p on a 3-dimensional char-2 central-bracket
    algebra: every nilpotent member D is inner, kills the central basis
    vector, has D(x) = a*x + *z, D(y) = a*y + *z, and D^2 = a*D."""
    if L.p != 2 or L.dim != 3 or is_abelian(L) or not is_nilpotent(L):
        raise PreconditionError("checker requires char-2 dim-3 non-abelian nilpotent input")
    zen = center(L)
    if zen.dim != 1:
        raise CertificationError("center is not one-dimensional")
    z = zen.basis[0]
    inn = inner(L)
    span_xz = Subspace.from_rows(np.stack([np.eye(3, dtype=np.int64)[0], z]), 2, 3)
    span_yz = Subspace.from_rows(np.stack([np.eye(3, dtype=np.int64)[1], z]), 2, 3)
    ok = True
    nil_members = 0
    for mats in _iter_candidates(L, budget):
        for m in mats:
            if mat_pow(m, 4, 2).any():
                continue  # not nilpotent
            nil_members += 1
            alpha = int(m[0, 0])
            shaped = (not ((m @ z) % 2).any()
                      and span_xz.contains_vector(m[:, 0])
                      and span_yz.contains_vector(m[:, 1])
                      and alpha == int(m[1, 1])
                      and np.array_equal((m @ m) % 2, (alpha * m) % 2))
            if not shaped or not inn.contains_vector(m.reshape(-1)):
                ok = False
    inv = {"dim": L.dim, "der_p_dim": int(der_p(L).dim),
           "nilpotent_members": nil_members}
    return InstanceResult(algebra_id, "pass" if ok else "fail", None, inv)


def _check_remark(L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Non-nilpotent, nonzero center, and yet no outer restricted derivations."""
    h1 = h1_adjoint_dim(L)
    nilp = is_nilpotent(L)
    zdim = center(L).dim
    ok = h1 == 0 and not nilp and zdim >= 1
    inv = {"dim": L.dim, "h1_adjoint_dim": int(h1), "nilpotent": nilp,
           "center_dim": int(zdim)}
    return InstanceResult(algebra_id, "pass" if ok else "fail", None, inv)


_CHECKERS = {
    "Thm-3.3": _check_thm33,
    "Cor-3.4": _check_cor34,
    "Thm-3.6": _check_thm36,
    "Prop-2.4": _check_prop24,
    "Prop-2.5-dimformula": _check_prop25,
    "Lem-2.6": _check_lem26,
    "Prop-3.1": _check_prop31,
    "Prop-3.2": _check_prop32,
    "Remark-counterexample": _check_remark,
}


# -- populations and the runner -------------------------------------------------


def _enumerated_entries(p: int, dim_bound: int) -> Iterator[CatalogEntry]:
    for d in range(1, dim_bound + 1):
        yield from enumerate_nilpotent(p, d)


def _population(claim: str, p: Optional[int], dim_bound: Optional[int]
                ) -> Tuple[Iterator[CatalogEntry], Dict[str, object]]:
    if dim_bound is not None and claim in ("Prop-3.1", "Prop-3.2",
                                           "Remark-counterexample"):
        raise PreconditionError(f"{claim} has a fixed population and takes no "
                                f"dim bound, got dim bound={dim_bound}")
    if claim in ("Prop-3.1", "Remark-counterexample"):
        try:  # None means the default primes; anything else must be a prime
            primes = [2, 3, 5] if p is None else [check_prime(p)]
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        entries = ([torus(n, q) for q in primes for n in (1, 2, 3)]
                   if claim == "Prop-3.1"
                   else [final_remark_algebra(q) for q in primes])
        desc = {"source": "catalog", "names": [e.name for e in entries]}
        return iter(entries), desc
    if claim == "Prop-3.2":
        if p not in (None, 2):
            raise PreconditionError("this claim is specific to characteristic 2")
        entries = (e for e in enumerate_nilpotent(2, 3)
                   if not is_abelian(e.algebra))
        desc = {"source": "enumerate_nilpotent", "p": 2, "dims": [3],
                "filter": "non-abelian"}
        return entries, desc
    p = 2 if p is None else p
    bound = default_dim_bound(p) if dim_bound is None else dim_bound
    # checked before any generator is built: the enumerator checks its own
    # bounds only when first advanced, and a bound below 1 is a vacuous pass
    check_population(p, bound)
    desc = {"source": "enumerate_nilpotent", "p": p,
            "dims": list(range(1, bound + 1)), "filter": None}
    entries = _enumerated_entries(p, bound)
    if claim == "Prop-2.4":
        desc["filter"] = "non-abelian"
        entries = (e for e in entries if not is_abelian(e.algebra))
    return entries, desc


def _check(claim: str, L: Alg, algebra_id: str, budget: int) -> InstanceResult:
    """Run one checker; a search over its budget is a "budget" verdict."""
    try:
        return _CHECKERS[claim](L, algebra_id, budget)
    except BudgetExceededError as e:
        return InstanceResult(algebra_id, "budget",
                              invariants={"needed": e.needed, "budget": e.budget})


def _instance_job(args) -> InstanceResult:
    claim, algebra_id, p, sc, pmap, budget = args
    L = Alg(p, np.array(sc, dtype=np.int64), np.array(pmap, dtype=np.int64),
            validate=False)
    return _check(claim, L, algebra_id, budget)


def _run_instances(claim: str, entries: Iterator[CatalogEntry],
                   config: Config) -> List[InstanceResult]:
    budget = config.search_budget
    if config.workers == 1:
        return [_check(claim, e.algebra, e.name, budget) for e in entries]
    jobs = ((claim, e.name, e.algebra.p, e.algebra.sc.tolist(),
             e.algebra.pmap.tolist(), budget) for e in entries)
    with ProcessPoolExecutor(max_workers=config.workers) as ex:
        return list(ex.map(_instance_job, jobs, chunksize=64))


def verify_claim(claim: str, p: Optional[int] = None,
                 dim_bound: Optional[int] = None,
                 config: Optional[Config] = None) -> TheoremReport:
    if claim not in CLAIM_DESCRIPTIONS:
        raise PreconditionError(f"unknown claim {claim!r}; known: "
                                f"{sorted(CLAIM_DESCRIPTIONS)}")
    config = config or Config()
    entries, desc = _population(claim, p, dim_bound)
    results = _run_instances(claim, entries, config)
    desc["count"] = len(results)
    return TheoremReport(claim=claim, population=desc, instances=results,
                         summary=summarize(results))

