import json

import numpy as np
import pytest

import rla
from rla import (RestrictedLieAlgebra, Subspace, direct_product, from_brackets,
                 from_doc, quotient, to_doc, twist_pmap)

from conftest import all_vectors, brk, gl_algebra


def test_bracket_vec_hand_values(heis2u):
    # [x + z, y] = z
    got = heis2u.bracket_vec(np.array([1, 0, 1]), np.array([0, 1, 0]))
    assert got.tolist() == [0, 0, 1]
    # [y, x] = -z = z over GF(2)
    assert heis2u.bracket_vec(np.array([0, 1, 0]), np.array([1, 0, 0])).tolist() == [0, 0, 1]


def test_antisymmetry_violation_named():
    sc = np.zeros((3, 3, 3), dtype=np.int64)
    sc[0, 1] = [0, 0, 1]  # missing the (1, 0) mirror
    with pytest.raises(rla.AntisymmetryError) as exc:
        RestrictedLieAlgebra(2, sc, np.zeros((3, 3), dtype=np.int64))
    assert "(0, 1)" in str(exc.value)


def test_jacobi_violation_named():
    with pytest.raises(rla.JacobiError) as exc:
        from_brackets(2, 3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]},
                      pmap=np.zeros((3, 3), dtype=np.int64))
    assert "(0, 1, 2)" in str(exc.value)


def test_pmap_violation_named():
    pmap = np.zeros((3, 3), dtype=np.int64)
    pmap[0, 0] = 1  # x^[2] = x, but (ad x)^2 = 0 while ad(x) != 0
    with pytest.raises(rla.PMapCompatibilityError) as exc:
        from_brackets(2, 3, {(0, 1): [0, 0, 1]}, pmap=pmap)
    assert "0" in str(exc.value)


def test_from_brackets_rejects_bad_entries():
    pmap = np.zeros((3, 3), dtype=np.int64)
    for brackets in ({(1, 0): [0, 0, 1]}, {(0, 3): [0, 0, 1]},
                     {(0, 1): [1]}, {(0, 1): [0, 1]}, {(0, 1): [0, 0, 0, 1]}):
        with pytest.raises(ValueError, match="0 <= i < j < dim"):
            from_brackets(2, 3, brackets, pmap=pmap)


def test_diagonal_brackets_rejected():
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0] = [0, 1]
    with pytest.raises(rla.AntisymmetryError):
        RestrictedLieAlgebra(2, sc, np.zeros((2, 2), dtype=np.int64))


def test_ppow_jacobson_correction(heis2u, heis2t):
    # (x + y)^[2] = x^[2] + y^[2] + [x, y] = z under the zero p-map
    assert heis2u.ppow_vec(np.array([1, 1, 0])).tolist() == [0, 0, 1]
    assert heis2t.ppow_vec(np.array([1, 1, 0])).tolist() == [0, 0, 1]
    # (x + y + z)^[2] adds z^[2]
    assert heis2u.ppow_vec(np.array([1, 1, 1])).tolist() == [0, 0, 1]
    assert heis2t.ppow_vec(np.array([1, 1, 1])).tolist() == [0, 0, 0]


def test_ppow_against_matrix_powers():
    # the Jacobson cross terms of every degree up to p - 1 against x^p in gl_n
    rng = np.random.default_rng(3)
    for p, n in ((2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)):
        L = gl_algebra(p, n)
        for _ in range(60):
            a = rng.integers(0, p, size=n * n)
            expect = (np.linalg.matrix_power(a.reshape(n, n), p) % p).reshape(-1)
            assert np.array_equal(L.ppow_vec(a), expect)


def test_ad_of_ppow_is_ad_power(heis3):
    for L in (heis3, gl_algebra(3)):
        for v in all_vectors(L.dim, L.p)[:40]:
            lhs = L.ad(L.ppow_vec(v))
            rhs = rla.mat_pow(L.ad(v), L.p, L.p)
            assert np.array_equal(lhs, rhs)


def test_quotient_by_center(heis2t):
    zen = rla.center(heis2t)
    q = quotient(heis2t, zen)
    assert q.algebra.dim == 2
    assert rla.is_abelian(q.algebra)
    assert not q.algebra.pmap.any()
    # projection kills the ideal, section is a right inverse
    assert not ((q.projection @ zen.basis.T) % 2).any()
    assert np.array_equal((q.projection @ q.section) % 2, np.eye(2, dtype=np.int64))


def test_quotient_requires_p_ideal(heis2u):
    line = Subspace.from_rows(np.array([[1, 0, 0]], dtype=np.int64), 2, 3)
    with pytest.raises(rla.PreconditionError):
        quotient(heis2u, line)


def test_direct_product_structure():
    a = rla.two_dim_nonabelian(3).algebra
    b = rla.torus(1, 3).algebra
    prod = direct_product(a, b)
    assert prod.dim == 3
    assert prod.labels == ("e", "f", "t0")
    # cross brackets vanish, block brackets survive
    assert prod.bracket_vec(np.eye(3, dtype=np.int64)[0],
                            np.eye(3, dtype=np.int64)[2]).tolist() == [0, 0, 0]
    assert prod.bracket_vec(np.eye(3, dtype=np.int64)[0],
                            np.eye(3, dtype=np.int64)[1]).tolist() == [0, 1, 0]
    assert rla.center(prod).dim == 1


def test_twist_pmap_spec_example(heis2t):
    a = Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64), 2, 3)
    tw = twist_pmap(heis2t, a)
    assert np.array_equal(tw.sc, heis2t.sc)
    assert not tw.pmap[1].any() and not tw.pmap[2].any()
    assert np.array_equal(tw.pmap[0], heis2t.pmap[0])
    zen = rla.center(heis2t)
    for v in all_vectors(3, 2):
        diff = (heis2t.ppow_vec(v) - tw.ppow_vec(v)) % 2
        assert zen.contains_vector(diff)
    # quotient tables by A coincide under both p-maps
    qa = quotient(heis2t, a)
    qb = quotient(tw, a)
    assert np.array_equal(qa.algebra.sc, qb.algebra.sc)
    assert np.array_equal(qa.algebra.pmap, qb.algebra.pmap)


def test_twist_pmap_zero_and_full(heis2u):
    untouched = twist_pmap(heis2u, Subspace.zero(3, 2))
    assert np.array_equal(untouched.pmap, heis2u.pmap)
    ab = rla.torus(2, 3).algebra
    flat = twist_pmap(ab, Subspace.full(2, 3))
    assert not flat.pmap.any()


def test_twist_pmap_non_unit_rows():
    # abelian p-ideals of every GF(3) dim-2 structure and of every GF(3)
    # Heisenberg structure, many with basis rows that are not unit vectors
    algs = [e.algebra for e in rla.enumerate_nilpotent(3, 2)]
    algs += [e.algebra for e in rla.enumerate_nilpotent(3, 3)
             if not rla.is_abelian(e.algebra)]
    non_unit = 0
    for L in algs:
        for a in rla.enumerate_subspaces(L.dim, 3):
            if not (rla.is_abelian_subspace(L, a) and rla.is_p_ideal(L, a)):
                continue
            non_unit += int((a.basis != 0).sum() > a.dim)
            tw = twist_pmap(L, a)
            assert np.array_equal(tw.sc, L.sc)
            for row in a.basis:
                assert not tw.ppow_vec(row).any()
            for t in a.non_pivot_indices():
                e = np.eye(L.dim, dtype=np.int64)[t]
                assert np.array_equal(tw.ppow_vec(e), L.ppow_vec(e))
    assert non_unit > 0


def test_twist_pmap_requires_abelian_p_ideal(heis2u):
    not_ideal = Subspace.from_rows(np.array([[1, 0, 0]], dtype=np.int64), 2, 3)
    with pytest.raises(rla.PreconditionError):
        twist_pmap(heis2u, not_ideal)


def test_doc_round_trip():
    for p in (2, 3, 5):
        for entry in rla.named_entries(p):
            doc = to_doc(entry.algebra)
            back = from_doc(json.loads(json.dumps(doc)))
            assert back.table_equal(entry.algebra)
            assert back.labels == entry.algebra.labels


def test_doc_rejects_malformed(heis2u):
    doc = to_doc(heis2u)
    bad = dict(doc)
    bad["extra"] = 1
    with pytest.raises(rla.DocumentError):
        from_doc(bad)
    for key in ("p", "dim", "pmap"):
        bad = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(rla.DocumentError):
            from_doc(bad)
    # brackets may be omitted entirely, giving an abelian algebra
    no_brk = {k: v for k, v in doc.items() if k != "brackets"}
    assert rla.is_abelian(from_doc(no_brk))
    bad = dict(doc)
    bad["labels"] = ["x", "y"]
    with pytest.raises(rla.DocumentError):
        from_doc(bad)
    bad = dict(doc)
    bad["brackets"] = [{"i": 1, "j": 0, "v": [0, 0, 1]}]
    with pytest.raises(rla.DocumentError):
        from_doc(bad)
    bad = dict(doc)
    bad["brackets"] = doc["brackets"] + doc["brackets"]
    with pytest.raises(rla.DocumentError):
        from_doc(bad)


def _with_bool(doc, field):
    doc = json.loads(json.dumps(doc))
    entry = doc["brackets"][0]
    if field in ("p", "dim"):
        doc[field] = True
    elif field == "i":
        entry["i"] = False
    elif field == "j":
        entry["j"] = True
    elif field == "v":
        entry["v"][2] = True
    else:
        doc["pmap"][2][2] = True
    return doc


@pytest.mark.parametrize("field", ["p", "dim", "i", "j", "v", "pmap"])
def test_doc_rejects_booleans(heis2u, field):
    # JSON true/false decode to bool, which Python counts as an int
    with pytest.raises(rla.DocumentError):
        from_doc(_with_bool(to_doc(heis2u), field))


def test_zero_dim_algebra_legal():
    L = RestrictedLieAlgebra(2, np.zeros((0, 0, 0), dtype=np.int64),
                             np.zeros((0, 0), dtype=np.int64))
    assert L.dim == 0
    assert rla.center(L).dim == 0
    zero = Subspace.zero(0, 2)
    for space in (rla.der(L), rla.der_p(L), rla.inner(L)):
        assert space == zero
    assert rla.h1_adjoint_dim(L) == 0
    m = rla.adjoint_module(L)
    assert rla.z1(L, m) == zero and rla.b1(L, m) == zero
    # a module of dimension 0 over a nonzero algebra
    T = rla.torus(2, 3).algebra
    m0 = rla.trivial_module(T, 0)
    assert rla.z1(T, m0) == Subspace.zero(0, 3) == rla.b1(T, m0)
    assert rla.h1_dim(T, m0) == 0


def test_bracket_antisymmetry_on_elements(heis3, rng):
    for _ in range(30):
        a = rng.integers(0, 3, size=3)
        b = rng.integers(0, 3, size=3)
        lhs = heis3.bracket_vec(a, b)
        rhs = (-heis3.bracket_vec(b, a)) % 3
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(lhs, brk(heis3, a, b))


# -- one shared bracket per table ---------------------------------------------


def test_equal_tables_share_bracket_invariants(heis2u, heis2t):
    again = from_brackets(2, 3, {(0, 1): [0, 0, 1]}, pmap=np.zeros((3, 3), dtype=np.int64))
    assert heis2u.bracket is heis2t.bracket is again.bracket
    assert heis2u.sc is heis2u.bracket.sc and heis2u.ad_basis is heis2u.bracket.ad_basis
    for invariant in (rla.center, rla.der, rla.inner):
        assert invariant(heis2u) is invariant(heis2t) is invariant(again)


def test_twist_keeps_the_bracket(heis3):
    A = rla.maximal_abelian_p_ideal(heis3)
    assert twist_pmap(heis3, A).bracket is heis3.bracket


def test_pmap_invariants_stay_per_algebra():
    sc = np.zeros((1, 1, 1), dtype=np.int64)
    toral = RestrictedLieAlgebra(2, sc, [[1]])
    unipotent = RestrictedLieAlgebra(2, sc, [[0]])
    assert toral.bracket is unipotent.bracket
    assert rla.maximal_torus(toral).dim == 1 and rla.der_p(toral).dim == 0
    assert rla.maximal_torus(unipotent).dim == 0 and rla.der_p(unipotent).dim == 1


def test_invalid_table_raises_on_every_construction():
    for _ in range(2):
        with pytest.raises(rla.JacobiError):
            from_brackets(2, 3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]},
                          pmap=np.zeros((3, 3), dtype=np.int64))
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 1] = [0, 1]  # missing the (1, 0) mirror
    RestrictedLieAlgebra(2, sc, np.zeros((2, 2), dtype=np.int64), validate=False)
    for _ in range(2):
        with pytest.raises(rla.AntisymmetryError):
            RestrictedLieAlgebra(2, sc, np.zeros((2, 2), dtype=np.int64))


def test_shared_tables_are_read_only(heis2u):
    with pytest.raises(ValueError):
        heis2u.sc[0, 1, 2] = 0
    with pytest.raises(ValueError):
        heis2u.ad_basis[0, 2, 1] = 0
    assert heis2u.sc[0, 1].tolist() == [0, 0, 1]


def test_bracket_axioms_checked_once_per_table(monkeypatch):
    from functools import lru_cache

    from rla import algebra

    checked = []
    check = algebra.LieBracket._check_axioms

    def counting(self):
        checked.append(self.sc.tobytes())
        return check(self)

    monkeypatch.setattr(algebra.LieBracket, "_check_axioms", counting)
    monkeypatch.setattr(algebra, "_bracket",
                        lru_cache(maxsize=8)(algebra._bracket.__wrapped__))
    entries = list(rla.enumerate_nilpotent(2, 3))
    for e in entries[:20]:
        quotient(e.algebra, rla.center(e.algebra))
    tables = {e.algebra.sc.tobytes() for e in entries}
    assert len(entries) == 520 and len(tables) == 2
    assert sorted(checked) == sorted(set(checked))
    assert tables <= set(checked)
