"""Claim populations, per-instance verdicts, and report serialization."""

import ast
import hashlib
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rla
from rla import (Config, InstanceResult, PreconditionError, TheoremReport,
                 exception_tag, export_csv, summarize, verify_claim)

from conftest import all_vectors, brk, brute_p_ideals


def test_exception_tags(heis2u, heis3):
    assert exception_tag(rla.torus(2, 2).algebra) == "torus"
    assert exception_tag(rla.torus(1, 3).algebra) == "torus"
    assert exception_tag(rla.one_dim_nil(5).algebra) == "dim-1"
    assert exception_tag(heis2u) == "h1-char-2"
    assert exception_tag(rla.heisenberg(2, "toral_center").algebra) == "h1-char-2"
    assert exception_tag(heis3) is None
    abelian2 = rla.from_doc({"p": 2, "dim": 2, "pmap": [[0, 0], [0, 0]]})
    assert exception_tag(abelian2) is None


def test_catalog_claims_refuse_a_bad_prime(monkeypatch):
    """None means the default primes 2, 3, 5; any other p must be a prime,
    checked before any algebra of the population is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("population built before its prime was checked")

    monkeypatch.setattr("rla.harness.torus", no_build)
    monkeypatch.setattr("rla.harness.final_remark_algebra", no_build)
    for claim in ("Prop-3.1", "Remark-counterexample"):
        for p in (0, 4, 9, -3):
            with pytest.raises(PreconditionError, match="prime"):
                verify_claim(claim, p)


def test_default_dim_bound():
    assert rla.default_dim_bound(2) == 4
    assert rla.default_dim_bound(3) == 3


def test_unknown_claim():
    with pytest.raises(PreconditionError, match="unknown claim"):
        verify_claim("Thm-9.9")


def test_claim_population_guards(monkeypatch):
    with pytest.raises(PreconditionError, match="characteristic 2"):
        verify_claim("Prop-3.2", p=3)

    # an empty population is an error, not a vacuous pass, and an
    # out-of-range one is refused before anything is enumerated
    def no_enumeration(*args, **kwargs):
        raise AssertionError("population enumerated before its bounds were checked")

    monkeypatch.setattr("rla.harness.enumerate_nilpotent", no_enumeration)
    for claim, p, bound in (("Thm-3.3", 2, 0), ("Prop-2.4", 2, 5),
                            ("Thm-3.3", 3, 4), ("Thm-3.3", 5, 2)):
        with pytest.raises(PreconditionError, match="dim bound"):
            verify_claim(claim, p, bound)
    # fixed populations take no dim bound at all
    for claim, p, bound in (("Prop-3.1", 2, 0), ("Prop-3.1", None, 3),
                            ("Prop-3.2", None, 0), ("Prop-3.2", 2, 3),
                            ("Remark-counterexample", None, 1)):
        with pytest.raises(PreconditionError, match="fixed population"):
            verify_claim(claim, p, bound)


def test_main_theorem_small_populations():
    rep = verify_claim("Thm-3.3", 2, 3)
    assert rep.summary == {"pass": 354, "fail": 0, "exception": 184,
                           "budget": 0, "total": 538}
    assert rep.clean
    assert rep.population["count"] == 538
    tags = {r.verdict for r in rep.instances if r.verdict.startswith("exception:")}
    assert tags == {"exception:torus", "exception:dim-1", "exception:h1-char-2"}
    rep3 = verify_claim("Thm-3.3", 3, 2)
    assert rep3.summary == {"pass": 33, "fail": 0, "exception": 51,
                            "budget": 0, "total": 84}


def test_passing_instances_carry_witnesses():
    rep = verify_claim("Thm-3.3", 2, 2)
    for r in rep.instances:
        if r.verdict == "pass":
            assert r.witness is not None and len(r.witness) == 2
            assert set(r.invariants) >= {"dim", "torus_dim", "h1_adjoint_dim"}
        else:
            assert r.witness is None


def test_budget_produces_budget_verdicts():
    # a search cap of 4 stops exactly the 2^4- and 2^3-candidate scans that
    # certify absence on the char-2 Heisenberg structures
    rep = verify_claim("Thm-3.3", 2, 3, config=Config(search_budget=4))
    assert rep.summary == {"pass": 354, "fail": 0, "exception": 176,
                           "budget": 8, "total": 538}
    assert not rep.clean
    bud = [r for r in rep.instances if r.verdict == "budget"]
    assert all("-heis-" in r.algebra_id for r in bud)
    assert all(r.invariants["needed"] > r.invariants["budget"] for r in bud)
    # every checker reports a search over budget the same way
    rep = verify_claim("Prop-3.2", config=Config(search_budget=1))
    assert rep.summary["budget"] == 8 and rep.summary["total"] == 8
    assert all(r.invariants["needed"] > r.invariants["budget"] == 1
               for r in rep.instances)


def test_prop24_scan_certified_without_assert(monkeypatch):
    # a greedy ideal that the scan cannot meet (the center is not maximal)
    monkeypatch.setattr(rla.harness, "maximal_abelian_p_ideal", rla.center)
    with pytest.raises(rla.CertificationError):
        verify_claim("Prop-2.4", 2, 3)


def test_lem26_scan_on_zero_dim_algebra():
    # GF(p)^0 has no proper subspace, so the scan has no groups
    L = rla.RestrictedLieAlgebra(2, np.zeros((0, 0, 0), dtype=np.int64),
                                 np.zeros((0, 0), dtype=np.int64))
    r = rla.harness._check("Lem-2.6", L, "zero", 1)
    assert r.verdict == "pass" and r.invariants["maximal_p_ideal_count"] == 0


def _space_dim(s, p):
    dim = 0
    while p ** dim < len(s):
        dim += 1
    return dim


def _maximal(sets):
    return [s for s in sets if not any(s < t for t in sets)]


def _tables(p, dims, nonabelian):
    return {e.name: e.algebra for d in dims for e in rla.enumerate_nilpotent(p, d)
            if not (nonabelian and rla.is_abelian(e.algebra))}


def _brute_lem26_count(L):
    ideals, _, torus = brute_p_ideals(L)
    return len(_maximal([s for s, _ in ideals if torus <= s]))


def test_p_ideal_invariants_match_brute_force():
    """Prop-2.4's and Lem-2.6's recorded invariants against brute_p_ideals,
    which shares no code with the subspace scan."""
    budget = Config().search_budget
    for p, bound in ((2, 4), (3, 3)):
        tables = _tables(p, range(1, bound + 1), nonabelian=True)
        rep = verify_claim("Prop-2.4", p, bound)
        assert [r.algebra_id for r in rep.instances] == list(tables)
        for r in rep.instances:
            L = tables[r.algebra_id]
            ideals, zen, _ = brute_p_ideals(L)
            top = _maximal([s for s, abelian in ideals if abelian])
            assert r.invariants == {
                "dim": L.dim, "maximal_abelian_p_ideal_count": len(top),
                "maximal_abelian_p_ideal_dims": sorted({_space_dim(s, p) for s in top}),
                "center_dim": _space_dim(zen, p)}, r.algebra_id
            lem = rla.harness._check("Lem-2.6", L, r.algebra_id, budget)
            assert lem.invariants["maximal_p_ideal_count"] == _brute_lem26_count(L)
    for p, bound in ((2, 3), (3, 2)):
        tables = _tables(p, range(1, bound + 1), nonabelian=False)
        rep = verify_claim("Lem-2.6", p, bound)
        assert [r.algebra_id for r in rep.instances] == list(tables)
        for r in rep.instances:
            assert r.invariants["maximal_p_ideal_count"] == _brute_lem26_count(
                tables[r.algebra_id]), r.algebra_id


def test_bracket_scan_masks_match_brute_force():
    """The per-bracket masks (ideal, abelian, and Prop-2.4's self-centralizing
    and properly-over-the-center) on every non-abelian template, by sets. On
    those templates every abelian ideal over the center is self-centralizing,
    so the filiform algebra over GF(3) (where <x2, x3> is not) is added."""
    from rla.harness import _bracket_scan, _self_centralizing

    heisline = next(e.algebra for e in rla.enumerate_nilpotent(2, 4)
                    if not rla.is_abelian(e.algebra))
    filiform = rla.from_brackets(3, 4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]},
                                 np.zeros((4, 4), dtype=np.int64))
    for L in (rla.heisenberg(2).algebra, rla.heisenberg(3).algebra, heisline,
              filiform):
        p, vecs = L.p, all_vectors(L.dim, L.p)
        basis = np.eye(L.dim, dtype=np.int64)

        def span(rows):
            return {tuple(int(x) for x in sum((c * r for c, r in zip(cs, rows)),
                                              np.zeros(L.dim, dtype=np.int64)) % p)
                    for cs in itertools.product(range(p), repeat=len(rows))}

        def centralizer(rows):
            return {tuple(int(x) for x in v) for v in vecs
                    if not any(brk(L, v, r).any() for r in rows)}

        zen = centralizer(basis)
        for (k, bases, _, ideal, abelian), good in zip(_bracket_scan(L),
                                                       _self_centralizing(L)):
            for s, rows in enumerate(bases):
                sub = span(rows)
                is_ideal = all(tuple(int(x) for x in brk(L, x, np.array(v))) in sub
                               for x in basis for v in sub)
                is_abelian = not any(brk(L, a, b).any() for a in rows for b in rows)
                assert (bool(ideal[s]), bool(abelian[s])) == (is_ideal, is_abelian)
                assert bool(good[s]) == (is_ideal and is_abelian
                                         and centralizer(rows) == sub and zen < sub)


# sha256 of verify_claim(*args).to_json(): a speed-up of the subspace scans,
# the enumerator, the p-power or a layer below them must leave the report
# bytes as they are
_REPORT_DIGESTS = [
    (("Prop-2.4", 2, 4), "497979368726cf76b8f592e9a799219a142ff5886b71163344b92be912844b0f"),
    (("Prop-2.4", 2, 3), "37b8631310040cbf6e2f62107e10b8a455c67a6527758edf3265f7ebce692926"),
    (("Lem-2.6", 2, 3), "e30447d5619382a01881328c2224a2b79c65c31b1e8117fe92dddcbbd2baf656"),
    (("Lem-2.6", 3, 2), "e8170d191688e0936f60a5cfe51c03c318f370aa83c6b71f304a098b08449532"),
    (("Prop-3.2",), "7f6d02cd43b36f2f3450edb3a6cb323c54303bf791b551ae6b0157c701186286"),
    (("Thm-3.3", 2, 3), "f5ff8207fe1c0ee680862d93a3c125656ae21140e14e63279be2239af09ffca1"),
    (("Cor-3.4", 2, 3), "773a2eef722929e44402e85a3faf410ef483799c8b599021c709288e5d6197f1"),
    (("Prop-2.5-dimformula", 2, 3), "cccc21f67c2aacd4b6a8f8b4fb8f77c8acaa67a1187aa467c37632ca4fbb7865"),
    (("Thm-3.6", 2, 3), "e81793963764a3228413aa0b966f570aeec3e9d0bd73619965a2aed4c792600d"),
]


@pytest.mark.parametrize("args,digest", [
    pytest.param(args, digest, id="-".join(map(str, args)))
    for args, digest in _REPORT_DIGESTS])
def test_report_digests_pinned(args, digest):
    text = verify_claim(*args).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_other_claims_small_populations():
    assert verify_claim("Cor-3.4", 2, 3).summary == {
        "pass": 354, "fail": 0, "exception": 184, "budget": 0, "total": 538}
    assert verify_claim("Thm-3.6", 2, 3).summary == {
        "pass": 538, "fail": 0, "exception": 0, "budget": 0, "total": 538}
    assert verify_claim("Prop-2.4", 2, 3).summary == {
        "pass": 8, "fail": 0, "exception": 0, "budget": 0, "total": 8}
    assert verify_claim("Prop-2.5-dimformula", 2, 3).summary == {
        "pass": 538, "fail": 0, "exception": 0, "budget": 0, "total": 538}
    assert verify_claim("Lem-2.6", 2, 3).summary == {
        "pass": 538, "fail": 0, "exception": 0, "budget": 0, "total": 538}


def test_catalog_claims():
    rep = verify_claim("Prop-3.1")
    assert rep.summary["total"] == 9 and rep.clean
    assert rep.population["names"][0] == "torus1-gf2"
    assert verify_claim("Prop-3.2").summary == {
        "pass": 8, "fail": 0, "exception": 0, "budget": 0, "total": 8}
    rep = verify_claim("Remark-counterexample")
    assert rep.summary == {"pass": 3, "fail": 0, "exception": 0,
                           "budget": 0, "total": 3}


def test_wrappers_delegate():
    # verify_claim is the one entry point; each claim id names its report
    a = verify_claim("Thm-3.3", 3, 2)
    assert a.claim == "Thm-3.3" and a.summary == {
        "pass": 33, "fail": 0, "exception": 51, "budget": 0, "total": 84}
    for claim in ("Cor-3.4", "Thm-3.6", "Lem-2.6"):
        rep = verify_claim(claim, 3, 2)
        assert rep.claim == claim and rep.clean


def test_reports_deterministic_and_round_trip(tmp_path):
    a = verify_claim("Thm-3.3", 2, 2).to_json()
    b = verify_claim("Thm-3.3", 2, 2).to_json()
    assert a == b
    back = TheoremReport.from_json(a)
    assert back.to_json() == a
    parsed = json.loads(a)
    assert sorted(parsed) == ["claim", "instances", "population", "summary"]


def test_to_json_matches_whole_tree_encoding():
    with_witnesses = verify_claim("Thm-3.3", 2, 2)
    assert any(r.witness is not None for r in with_witnesses.instances)
    empty = TheoremReport(claim="Thm-3.3", population={"count": 0},
                          instances=[], summary=summarize([]))
    for rep in (with_witnesses, empty):
        assert rep.to_json() == json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def test_workers_match_serial():
    serial = verify_claim("Thm-3.3", 3, 2, config=Config(workers=1))
    par = verify_claim("Thm-3.3", 3, 2, config=Config(workers=2))
    assert serial.to_dict() == par.to_dict()


_OPTIMIZED_RUNS = [("Thm-3.3", 3, 2), ("Prop-2.4", 2, 3),
                   ("Prop-2.5-dimformula", 3, 2)]


def test_reports_identical_under_python_O():
    """python -O strips assert statements, so every certification must be an
    explicit check: the reports are the same bytes with and without -O."""
    script = ("import json, sys, rla\n"
              "if __debug__: sys.exit('assert statements are live')\n"
              f"runs = {_OPTIMIZED_RUNS!r}\n"
              "json.dump([rla.verify_claim(*r).to_json() for r in runs], sys.stdout)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rla.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    assert optimized == [verify_claim(*r).to_json() for r in _OPTIMIZED_RUNS]


def test_no_assert_statements_in_the_library():
    """The static side of the -O test above: no certification in src/rla
    may rest on an assert statement."""
    pkg = os.path.dirname(os.path.abspath(rla.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# sha256 of export_csv(verify_claim(*args)): the CSV encodes witnesses and
# invariants apart from to_json
_CSV_DIGESTS = [
    (("Thm-3.3", 2, 3), "1db368ff0f3716340a229ae8e899bf2daa1ed868b8ca3ef1f8313f115526f748"),
    (("Prop-2.5-dimformula", 2, 3), "89a549aa5516f7c188d825a4a7efe031c61145465628e673d03a5e82525d345b"),
]


@pytest.mark.parametrize("args,digest", [
    pytest.param(args, digest, id="-".join(map(str, args)))
    for args, digest in _CSV_DIGESTS])
def test_csv_digests_pinned(args, digest):
    text = export_csv(verify_claim(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_no_unused_imports_in_the_library():
    """A module-level import in src/rla that its module never reads is a
    leftover of a deletion; names in quoted annotations count as reads.
    __init__.py imports to re-export."""
    pkg = os.path.dirname(os.path.abspath(rla.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "annotations":  # from __future__
                        bound = alias.asname or alias.name.split(".")[0]
                        imported[bound] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        annotations = [a for node in ast.walk(tree) for a in (
            [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
            else [node.returns] if isinstance(node, ast.FunctionDef) else []) if a]
        for ann in annotations:  # quoted ones such as "Subspace"
            for node in ast.walk(ann):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name)}
        found += [f"{name}:{line}: {bound}" for bound, line in imported.items()
                  if bound not in read]
    assert found == []


def test_export_csv():
    rep = verify_claim("Prop-3.1")
    text = export_csv(rep)
    lines = text.splitlines()
    assert lines[0] == "claim,algebra_id,verdict,witness,invariants"
    assert len(lines) == rep.summary["total"] + 1
    assert all(line.startswith("Prop-3.1,") for line in lines[1:])
    assert export_csv(verify_claim("Prop-3.1")) == text


def test_summarize_counts():
    rows = [InstanceResult("a", "pass"), InstanceResult("b", "fail"),
            InstanceResult("c", "exception:torus"),
            InstanceResult("d", "exception:dim-1"),
            InstanceResult("e", "budget"), InstanceResult("f", "pass")]
    assert summarize(rows) == {"pass": 2, "fail": 1, "exception": 2,
                               "budget": 1, "total": 6}
