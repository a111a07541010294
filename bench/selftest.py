"""Self-tests of the benchmark's oracles: each oracle is fed a planted bad
value and must reject it, and the matching good value and must accept it.

Run alone with ``python3 bench/selftest.py``; ``run.py`` runs them before
every measurement.
"""

from __future__ import annotations

import sys
from typing import List, Tuple

import numpy as np

import oracles


def _heisenberg(p: int, z_power: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """[x, y] = z with x^[p] = z_power * z and y^[p] = z^[p] = 0."""
    sc = np.zeros((3, 3, 3), dtype=np.int64)
    sc[0, 1, 2], sc[1, 0, 2] = 1, p - 1
    pmap = np.zeros((3, 3), dtype=np.int64)
    pmap[0, 2] = z_power
    return sc, pmap


def _cases() -> List[Tuple[str, bool, bool]]:
    """(name, rejected when bad, accepted when good)."""
    out = []

    # closed-form counts: a Thm-3.3 summary that lost one pass
    good = oracles.expected_summary("Thm-3.3", 3, 3)
    bad = dict(good, **{"pass": good["pass"] - 1, "total": good["total"] - 1})
    out.append(("closed-form count rejects a wrong count",
                bool(oracles.summary_faults("Thm-3.3", 3, 3, bad)),
                not oracles.summary_faults("Thm-3.3", 3, 3, good)))

    # witness re-certifier: ad(x) is restricted and square-zero but inner;
    # y -> x is outer
    sc, pmap = _heisenberg(3)
    inner = oracles.ad_matrices(sc)[0]
    outer = np.zeros((3, 3), dtype=np.int64)
    outer[0, 1] = 1
    out.append(("re-certifier rejects an inner derivation",
                oracles.derivation_faults(sc, pmap, inner, 3, True) == ["inner"],
                not oracles.derivation_faults(sc, pmap, outer, 3, True)))

    # re-certifier: on the abelian plane with x^[3] = y, the map y -> x obeys
    # Leibniz, squares to zero and is outer, but D(x^[3]) = x != 0
    sc2 = np.zeros((2, 2, 2), dtype=np.int64)
    pmap2 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    unrestricted = np.array([[0, 1], [0, 0]], dtype=np.int64)
    restricted = np.array([[0, 0], [1, 0]], dtype=np.int64)
    out.append(("re-certifier rejects a Leibniz derivation that is not restricted",
                oracles.derivation_faults(sc2, pmap2, unrestricted, 3, True) == ["restricted"],
                not oracles.derivation_faults(sc2, pmap2, restricted, 3, True)))

    # class-2 p-power: in the char-2 Heisenberg algebra with zero p-map,
    # (x + y)^[2] = [x, y] = z, so span(x + y) is not p-closed; span(x + y, z) is
    sc, pmap = _heisenberg(2)
    line = np.array([[1, 1, 0]], dtype=np.int64)
    plane = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    out.append(("p-power rejects a subspace that is not p-closed",
                "p-closed" in oracles.complement_faults(sc, pmap, line, 2, 1),
                not oracles.complement_faults(sc, pmap, plane, 2, 2)))

    # abelian invariants: gf3-d2-abelian-000009 has x^[3] = y, y^[3] = 0, so
    # rank 1, h1 = 2 and no torus
    good_inst = {"algebra_id": "gf3-d2-abelian-000009", "verdict": "pass",
                 "witness": [[0, 0], [1, 0]],
                 "invariants": {"dim": 2, "exceptional": None,
                                "h1_adjoint_dim": 2, "torus_dim": 0}}
    bad_inst = dict(good_inst, invariants=dict(good_inst["invariants"], h1_adjoint_dim=3))
    out.append(("abelian invariants reject a wrong h1 dimension",
                bool(oracles.instance_faults("Thm-3.3", bad_inst)),
                not oracles.instance_faults("Thm-3.3", good_inst)))
    return out


def run() -> List[str]:
    """Names of the self-tests that failed."""
    return [name for name, rejects, accepts in _cases() if not (rejects and accepts)]


if __name__ == "__main__":
    cases = _cases()
    for name, rejects, accepts in cases:
        print(f"{'ok  ' if rejects and accepts else 'FAIL'} {name}")
    sys.exit(0 if all(rejects and accepts for _, rejects, accepts in cases) else 1)
