"""Named algebras and exhaustive enumeration of small nilpotent structures."""

import itertools
import re

import numpy as np
import pytest

import rla
from rla import (PMapCompatibilityError, PreconditionError, catalog,
                 enumerate_nilpotent, fingerprint)

from conftest import brute_admissible_pmaps, is_nilpotent_brute, jacobson_brute


def small_gl(n, p):
    mats = []
    for flat in itertools.product(range(p), repeat=n * n):
        g = np.array(flat, dtype=np.int64).reshape(n, n)
        if n == 1:
            det = g[0, 0]
        else:
            det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % p
        if det % p:
            mats.append((g, det % p))
    return mats


def inv2(g, det, p):
    adj = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=np.int64)
    return (pow(int(det), p - 2, p) * adj) % p


def similarity_class(a, p):
    keys = set()
    for g, det in small_gl(2, p):
        keys.add(((inv2(g, det, p) @ a @ g) % p).tobytes())
    return frozenset(keys)


def test_named_expected_invariants():
    for p in (2, 3, 5):
        for entry in rla.named_entries(p):
            fp = fingerprint(entry.algebra)
            for key, val in entry.expected.items():
                assert fp[key] == val, (entry.name, key)


def test_named_entry_names():
    assert rla.torus(2, 3).name == "torus2-gf3"
    assert rla.one_dim_nil(5).name == "onedimnil-gf5"
    assert rla.heisenberg(2, "toral_center").name == "heisenberg-gf2-toral_center"
    assert rla.two_dim_nonabelian(2).name == "twodim-nonabelian-gf2"
    assert rla.final_remark_algebra(3).name == "nonnilpotent-counterexample-gf3"


def test_torus_entry():
    for n, p in ((1, 2), (2, 3), (3, 5)):
        L = rla.torus(n, p).algebra
        assert rla.maximal_torus(L).dim == n
        assert rla.h1_adjoint_dim(L) == 0
    assert rla.torus(0, 2).algebra.dim == 0


def test_heisenberg_variants():
    custom = rla.heisenberg(2, [[0, 0, 1], [0, 0, 0], [0, 0, 1]])
    assert custom.name == "heisenberg-gf2-custom"
    assert np.array_equal(custom.algebra.ppow_vec([1, 0, 0]), [0, 0, 1])
    with pytest.raises(PMapCompatibilityError):
        rla.heisenberg(2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(PreconditionError):
        rla.heisenberg(2, "semisimple")
    with pytest.raises(PreconditionError):
        rla.heisenberg(3, [[0, 0], [0, 0]])


def test_final_remark_entry():
    for p in (2, 3, 5):
        L = rla.final_remark_algebra(p).algebra
        assert not rla.is_nilpotent(L)
        assert rla.center(L).dim == 1
        assert rla.h1_adjoint_dim(L) == 0


def test_enumeration_counts():
    expect = {(2, 1): 2, (2, 2): 16, (2, 3): 520,
              (3, 1): 3, (3, 2): 81, (3, 3): 19710}
    for (p, dim), count in expect.items():
        assert sum(1 for _ in enumerate_nilpotent(p, dim)) == count


def test_enumeration_breakdown_dim3():
    names = [e.name for e in enumerate_nilpotent(2, 3)]
    assert sum("-abelian-" in n for n in names) == 512
    assert sum("-heis-" in n for n in names) == 8
    pat = re.compile(r"^gf2-d3-(abelian|heis)-\d{6}$")
    assert all(pat.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_enumeration_dim4_skips_unrestrictable_template():
    # ad(x0)^2 sends x1 to x3, but every ad image lies in span(x2): the
    # filiform bracket admits no p-map in dimension 4 over GF(2)
    entries = list(enumerate_nilpotent(2, 4))
    assert len(entries) == 65792
    assert sum("-abelian-" in e.name for e in entries) == 65536
    assert sum("-heisline-" in e.name for e in entries) == 256
    assert not any("filiform4" in e.name for e in entries)


def test_filiform4_rejects_every_sample_pmap():
    brackets = {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
    samples = (np.zeros((4, 4), dtype=np.int64),
               np.eye(4, dtype=np.int64),
               np.array([[0, 0, 0, 1]] + [[0, 0, 0, 0]] * 3, dtype=np.int64))
    for pmap in samples:
        with pytest.raises(PMapCompatibilityError):
            rla.from_brackets(2, 4, brackets, pmap=pmap)


def test_enumeration_deterministic():
    a = list(enumerate_nilpotent(3, 2))
    b = list(enumerate_nilpotent(3, 2))
    assert [e.name for e in a] == [e.name for e in b]
    assert all(x.algebra.table_equal(y.algebra) for x, y in zip(a, b))


def test_enumeration_guards():
    # one rule with the claim populations: (3, 4) has 3^16 p-map tables on
    # its abelian bracket alone, so it is refused before the first one
    for p, dim in ((5, 2), (2, 5), (3, 4), (2, 0), (4, 2)):
        for dedup in (False, True):
            with pytest.raises(PreconditionError,
                               match="enumeration supports.*dim bound"):
                next(enumerate_nilpotent(p, dim, dedup=dedup))


def test_dedup_matches_similarity_classes():
    # in dimension 2 every structure is abelian, the p-map is a linear map
    # on the prime field, and base change is similarity of its matrix
    for p, want in ((2, 6), (3, 12)):
        raw = list(enumerate_nilpotent(p, 2))
        assert len(raw) == p ** 4
        classes = {}
        for e in raw:
            a = e.algebra.pmap.T % p
            key = similarity_class(a, p)
            classes.setdefault(key, set()).add(a.tobytes())
        assert len(classes) == want == p * p + p
        reps = list(enumerate_nilpotent(p, 2, dedup=True))
        assert len(reps) == want
        rep_keys = {similarity_class(e.algebra.pmap.T % p, p) for e in reps}
        assert rep_keys == set(classes)
        # orbits partition the raw population
        assert sum(len(v) for v in classes.values()) == p ** 4


def test_dedup_dim1():
    assert len(list(enumerate_nilpotent(2, 1, dedup=True))) == 2
    assert len(list(enumerate_nilpotent(3, 1, dedup=True))) == 3


def _by_template(entries):
    """Enumerated entries grouped by template slug, in enumeration order."""
    groups = {}
    for e in entries:
        groups.setdefault(e.name.rsplit("-", 1)[0], []).append(e)
    return groups


_ORACLE_TEMPLATES = [
    (2, 1, "abelian"), (2, 2, "abelian"), (2, 3, "abelian"), (2, 3, "heis"),
    (3, 1, "abelian"), (3, 2, "abelian"), (3, 3, "abelian"), (3, 3, "heis"),
    (2, 4, "heisline")]


def test_enumerated_algebras_are_valid_and_nilpotent():
    """Every table of each template passes the oracle, and the listing is the
    brute-force list of admissible tables on its bracket, in order."""
    for p, dim, slug in _ORACLE_TEMPLATES:
        entries = _by_template(enumerate_nilpotent(p, dim))[f"gf{p}-d{dim}-{slug}"]
        first = entries[0].algebra
        assert is_nilpotent_brute(first)
        for e in entries:
            L = e.algebra
            assert np.array_equal(L.sc, first.sc)
            assert jacobson_brute(L, L.pmap), e.name
        listed = [e.algebra.pmap for e in entries]
        brute = brute_admissible_pmaps(first)
        assert len(listed) == len(brute), (p, dim, slug)
        assert all(np.array_equal(a, b) for a, b in zip(listed, brute))


def test_enumeration_templates_in_order():
    for p, dim, slugs in ((2, 3, ["abelian", "heis"]),
                          (3, 3, ["abelian", "heis"])):
        assert list(_by_template(enumerate_nilpotent(p, dim))) == [
            f"gf{p}-d{dim}-{slug}" for slug in slugs]


def test_incompatible_candidate_raises_before_its_template(monkeypatch):
    """A planted non-admissible image for z in the Heisenberg template is
    caught once per template, before any of its tables is yielded."""
    real = catalog._pmap_candidates

    def planted(sc, p):
        cosets = real(sc, p)
        if sc.any():
            cosets[-1][-1] = np.array([1, 0, 0], dtype=np.int64)
        return cosets

    monkeypatch.setattr(catalog, "_pmap_candidates", planted)
    seen = []
    with pytest.raises(PMapCompatibilityError) as info:
        for e in enumerate_nilpotent(2, 3):
            seen.append(e.name)
    assert info.value.i == 2
    assert len(seen) == 512
    assert not any("-heis-" in name for name in seen)


def test_enumerated_tables_share_their_template_bracket():
    """Each table is built on the interned bracket of its own sc, the one its
    template certified, and that bracket's abelian flag reads the table."""
    from rla.algebra import _bracket

    for p, dim in ((2, 4), (3, 3)):
        seen = set()
        for e in enumerate_nilpotent(p, dim):
            L = e.algebra
            assert L.bracket is _bracket(p, L.sc.shape, L.sc.tobytes()), e.name
            assert L.bracket.sc is L.sc
            assert rla.is_abelian(L) == (not L.sc.any())
            seen.add(id(L.bracket))
        assert len(seen) == 2  # abelian and one non-abelian template


def test_constructor_checks_a_given_bracket_against_the_pmap():
    heis = rla.heisenberg(2).algebra
    L = rla.RestrictedLieAlgebra(2, heis.bracket, heis.pmap)
    assert L.bracket is heis.bracket and L.table_equal(heis)
    with pytest.raises(ValueError, match="GF"):
        rla.RestrictedLieAlgebra(3, heis.bracket, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="do not match"):
        rla.RestrictedLieAlgebra(2, heis.bracket, np.zeros((2, 2), dtype=np.int64))
    # a bracket given in place of sc is still validated unless told otherwise
    with pytest.raises(PMapCompatibilityError):
        rla.RestrictedLieAlgebra(2, heis.bracket, np.eye(3, dtype=np.int64))
