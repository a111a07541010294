"""Acceptance gate: one test per release criterion, one visible line each.

Each criterion runs the real public surface at full stated scale and prints
a PASS/FAIL line with its wall time even under pytest capture. Numeric
population counts are frozen from independent cross-checks (group orders,
coset counts) so silent shrinkage of a scan fails loudly.
"""

import itertools
import time

import numpy as np
import pytest

import rla
from rla import Derivation, Subspace, verify_claim

PRIMES = (2, 3, 5)


def _entries():
    return [e for p in PRIMES for e in rla.named_entries(p)]


def _line(capsys, num, label, ok, t0):
    secs = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} "
              f"({secs:.2f}s)")


def _criterion(capsys, num, label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        _line(capsys, num, label, False, t0)
        raise
    secs = time.perf_counter() - t0
    ok = secs < limit
    _line(capsys, num, label, ok, t0)
    assert ok, f"criterion {num} exceeded {limit}s time budget ({secs:.1f}s)"


def test_criterion_01_torus_vanishing(capsys):
    def body():
        for p in PRIMES:
            for n in (1, 2, 3):
                assert rla.der_p(rla.torus(n, p).algebra).dim == 0
    _criterion(capsys, 1, "restricted derivations of tori vanish", 1.0, body)


def test_criterion_02_char2_heisenberg_exception(capsys):
    def body():
        entries = [e for e in rla.enumerate_nilpotent(2, 3)
                   if not rla.is_abelian(e.algebra)]
        assert len(entries) == 8
        zen = rla.center(entries[0].algebra)
        named = [rla.heisenberg(2, "unipotent").algebra,
                 rla.heisenberg(2, "toral_center").algebra]
        for named_alg in named:
            assert any(e.algebra.table_equal(named_alg) for e in entries)
        for e in entries:
            L = e.algebra
            # every central p-map variant: all p-power values in the center
            assert all(zen.contains_vector(L.pmap[i]) for i in range(3))
            dp, inn = rla.der_p(L), rla.inner(L)
            assert 2 ** dp.dim <= 2 ** 9
            for coeffs in itertools.product(range(2), repeat=dp.dim):
                vec = (np.array(coeffs, dtype=np.int64) @ dp.basis) % 2 \
                    if dp.dim else np.zeros(9, dtype=np.int64)
                d = Derivation(L, vec.reshape(3, 3))
                assert d.is_restricted
                if d.is_nilpotent:
                    assert inn.contains_vector(vec)
            assert rla.find_square_zero_outer(L) is None
        assert verify_claim("Prop-3.2").clean
    _criterion(capsys, 2,
               "char-2 Heisenberg: nilpotent restricted derivations are inner",
               1.0, body)


def test_criterion_03_heisenberg_outer_derivations(capsys):
    def body():
        for variant in ("unipotent", "toral_center"):
            L = rla.heisenberg(2, variant).algebra
            assert rla.h1_adjoint_dim(L) >= 1
            d = rla.explicit_h1_char2_outer(L)
            assert d.is_restricted and not d.is_inner
            # identity modulo the center, zero on the center
            z = rla.center(L)
            assert not (d.matrix @ z.basis.T % 2).any()
            for v in np.eye(3, dtype=np.int64):
                assert z.contains_vector((d.matrix @ v - v) % 2)
    _criterion(capsys, 3, "char-2 Heisenberg keeps outer restricted derivations",
               1.0, body)


def test_criterion_04_freeness_arithmetic(capsys):
    def body():
        L = rla.heisenberg(2, "toral_center").algebra
        q = rla.quotient(L, rla.center(L))
        mod = rla.induced_module(L, q, Subspace.full(3, 2))
        free, rank = rla.is_free_over_unipotent(q.algebra, mod)
        assert free is False and rank == 2
        assert 2 ** q.algebra.dim == 4 > 3 == L.dim
    _criterion(capsys, 4, "adjoint module not free over the unipotent quotient",
               1.0, body)


def test_criterion_05_main_existence_theorem(capsys):
    def body():
        gf2 = verify_claim("Thm-3.3", 2, 4)
        assert gf2.summary == {"pass": 45986, "fail": 0, "exception": 20344,
                               "budget": 0, "total": 66330}
        gf3 = verify_claim("Thm-3.3", 3, 3)
        assert gf3.summary == {"pass": 8511, "fail": 0, "exception": 11283,
                               "budget": 0, "total": 19794}
        for rep in (gf2, gf3):
            for r in rep.instances:
                assert r.verdict == "pass" or r.verdict.startswith("exception:")
    _criterion(capsys, 5,
               "square-zero outer witnesses across the full enumeration",
               600.0, body)


def test_criterion_06_equivalences(capsys):
    def body():
        for p, bound, summary in (
                (2, 4, {"pass": 45986, "fail": 0, "exception": 20344,
                        "budget": 0, "total": 66330}),
                (3, 3, {"pass": 8511, "fail": 0, "exception": 11283,
                        "budget": 0, "total": 19794})):
            rep = verify_claim("Cor-3.4", p, bound)
            assert rep.summary == summary
    _criterion(capsys, 6,
               "nilpotent-outer, square-zero-outer, non-exceptional coincide",
               600.0, body)


def test_criterion_07_structural_propositions(capsys):
    def body():
        rep = verify_claim("Prop-2.4", 2, 4)
        assert rep.summary == {"pass": 264, "fail": 0, "exception": 0,
                               "budget": 0, "total": 264}
        for claim in ("Prop-2.5-dimformula", "Lem-2.6"):
            for p, bound, total in ((2, 4, 66330), (3, 3, 19794)):
                rep = verify_claim(claim, p, bound)
                assert rep.summary["pass"] == rep.summary["total"] == total
        # worked dimension formula instance: 3 = 1 + 1 * 2^1
        L = rla.heisenberg(2, "toral_center").algebra
        a = rla.maximal_abelian_p_ideal(L)
        q = rla.quotient(L, a)
        free, r = rla.is_free_over_unipotent(
            q.algebra, rla.induced_module(L, q, a))
        d = q.algebra.dim
        assert free and (d, r) == (1, 1)
        assert L.dim == d + r * 2 ** d == 3
    _criterion(capsys, 7, "ideal-structure scans over the full enumeration",
               300.0, body)


def test_criterion_08_nonnilpotent_counterexample(capsys):
    def body():
        for p in PRIMES:
            L = rla.final_remark_algebra(p).algebra
            assert rla.h1_adjoint_dim(L) == 0
            assert not rla.is_nilpotent(L)
            assert rla.center(L).dim >= 1
    _criterion(capsys, 8, "solvable non-nilpotent algebra has only inner ones",
               1.0, body)


def test_criterion_09_property_suites(capsys):
    def body():
        rng = np.random.default_rng(0)
        entries = _entries()

        checks = 0
        for e in entries:
            L = e.algebra
            for _ in range(48):
                v = rng.integers(0, L.p, size=L.dim)
                lhs = L.ad(L.ppow_vec(v))
                rhs = rla.mat_pow(L.ad(v), L.p, L.p)
                assert np.array_equal(lhs, rhs)
                checks += 1
        assert checks >= 1000

        for e in entries:
            L = e.algebra
            dp = rla.der_p(L)
            mats = [row.reshape(L.dim, L.dim) for row in dp.basis]
            eye = np.eye(L.dim, dtype=np.int64)
            for m in mats:
                for i in range(L.dim):
                    assert not rla.restricted_defect(L, m, eye[i]).any()
            for _ in range(100):
                v = rng.integers(0, L.p, size=L.dim)
                for m in mats:
                    assert not rla.restricted_defect(L, m, v).any()

        for e in entries:
            L = e.algebra
            mod = rla.adjoint_module(L)
            assert rla.z1(L, mod) == rla.der_p(L)
            assert rla.b1(L, mod) == rla.inner(L)

        for e in entries:
            L = e.algebra
            targets = [rla.center(L)]
            if rla.is_nilpotent(L):
                targets.append(rla.maximal_abelian_p_ideal(L))
            zen = rla.center(L)
            for a in targets:
                twisted = rla.twist_pmap(L, a)
                vs = list(np.eye(L.dim, dtype=np.int64))
                vs += [rng.integers(0, L.p, size=L.dim) for _ in range(100)]
                for v in vs:
                    diff = (L.ppow_vec(v) - twisted.ppow_vec(v)) % L.p
                    assert zen.contains_vector(diff)
    _criterion(capsys, 9, "randomized algebraic property suites", 60.0, body)
