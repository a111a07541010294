"""Per-layer spans and counts for rla, recorded from outside the package.

``install`` replaces public functions of rla with timing wrappers in every rla
module that binds them, and on the classes that own traced methods, so a call
is traced however the calling module looks the function up. A span's self time
is its duration minus the time its traced child spans cover. A call made while
a span of the same metric is open belongs to that outer span: ``kernel``
calling ``Subspace.from_rows`` is one elimination, not two.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix -> (owner, attribute) of the traced callables; an owner is a
# module, or "module:Class" for a method
SPANS: List[Tuple[str, str, str]] = [
    ("harness.self", "rla.harness", "verify_claim"),
    ("harness.report_json", "rla.harness:TheoremReport", "to_json"),
    ("algebra.validate", "rla.algebra:RestrictedLieAlgebra", "validate"),
    ("algebra.ppow_vec", "rla.algebra:RestrictedLieAlgebra", "ppow_vec"),
    ("algebra.quotient", "rla.algebra", "quotient"),
    ("algebra.twist_pmap", "rla.algebra", "twist_pmap"),
    ("linalg.elim", "rla.linalg", "kernel"),
    ("linalg.elim", "rla.linalg", "solve"),
    ("linalg.elim", "rla.linalg", "rref"),
    ("linalg.elim", "rla.linalg:Subspace", "from_rows"),
    ("linalg.mat_pow", "rla.linalg", "mat_pow"),
    ("structure.center", "rla.structure", "center"),
    ("structure.maximal_torus", "rla.structure", "maximal_torus"),
    ("structure.maximal_abelian_p_ideal", "rla.structure", "maximal_abelian_p_ideal"),
    ("structure.codim1_max_p_ideals", "rla.structure", "codim1_max_p_ideals"),
    ("structure.is_p_ideal", "rla.structure", "is_p_ideal"),
    ("derivations.der_p", "rla.derivations", "der_p"),
    ("derivations.find_nilpotent_outer", "rla.derivations", "find_nilpotent_outer"),
    ("cohomology.find_p_complement", "rla.cohomology", "find_p_complement"),
    ("cohomology.induced_module", "rla.cohomology", "induced_module"),
    ("cohomology.is_free_over_unipotent", "rla.cohomology", "is_free_over_unipotent"),
    ("cohomology.gamma_nontrivial", "rla.cohomology", "gamma_nontrivial"),
    ("cohomology.lift_cocycle", "rla.cohomology", "lift_cocycle"),
]

ROUTES = ("case", "lifted_cocycle", "exhaustive", "h1_zero")
ROUTE_MARKS = {"cohomology.lift_cocycle": "lifted_cocycle"}


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = []     # open spans: [metric, child seconds]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.marks: Optional[set] = None  # routes seen in the open square-zero search

    def snapshot(self) -> Dict[str, float]:
        out = {f"{k}_s": v for k, v in self.self_s.items()}
        out.update({f"{k}_calls": v for k, v in self.calls.items()})
        out.update(self.counts)
        return out

    def _timed(self, key: str, call: Callable[[], object]):
        stack = self.stack
        if stack and stack[-1][0] == key:
            return call()
        frame = [key, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return call()
        finally:
            dur = perf_counter() - t0
            stack.pop()
            self.self_s[key] += dur - frame[1]
            self.calls[key] += 1
            if stack:
                stack[-1][1] += dur

    def span(self, key: str, fn: Callable) -> Callable:
        mark = ROUTE_MARKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if mark:
                self._mark(mark)
            return self._timed(key, lambda: fn(*args, **kwargs))
        return wrapper

    def _mark(self, route: str) -> None:
        if self.marks is not None:
            self.marks.add(route)

    def square_zero_search(self, fn: Callable) -> Callable:
        """find_square_zero_outer: a span that also files the call under the
        first route, in ROUTES order, that ran inside it."""
        key = "derivations.find_square_zero_outer"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self.marks = self.marks, set()
            try:
                result = self._timed(key, lambda: fn(*args, **kwargs))
                if result is None:
                    self.marks.add("h1_zero")
                    self.counts["derivations.square_zero_absent"] += 1
                route = next((r for r in ROUTES if r in self.marks), "unrouted")
                self.counts[f"derivations.route.{route}"] += 1
                return result
            finally:
                self.marks = outer
        return wrapper

    def case_construction(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._mark("case")
            return fn(*args, **kwargs)
        return wrapper

    def enumeration(self, fn: Callable) -> Callable:
        """enumerate_nilpotent: each step of the generator is a span."""
        key = "catalog.enumerate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    entry = self._timed(key, lambda: next(it))
                except StopIteration:
                    return
                self.counts["catalog.instances"] += 1
                yield entry
        return wrapper

    def yield_counter(self, counter: str, rows: bool, mark: Optional[str] = None
                      ) -> Callable[[Callable], Callable]:
        """Count what a generator yields (items, or rows of yielded blocks)."""
        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.counts[counter] += len(item) if rows else 1
                    if mark:
                        self._mark(mark)
                    yield item
            return wrapper
        return decorate


def _rebind(original: Callable, wrapped: Callable, modules=None) -> None:
    """Bind wrapped wherever an rla module binds original."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "rla" or name.startswith("rla.")):
            continue
        if modules is not None and name not in modules:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap rla's public functions; call once, after ``import rla``."""
    for key, owner, attr in SPANS:
        module, _, cls = owner.partition(":")
        if cls:
            klass = getattr(sys.modules[module], cls)
            raw = klass.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(klass, attr, classmethod(tracer.span(key, raw.__func__)))
            else:
                setattr(klass, attr, tracer.span(key, raw))
        else:
            fn = getattr(sys.modules[module], attr)
            _rebind(fn, tracer.span(key, fn))
    derivations = sys.modules["rla.derivations"]
    linalg = sys.modules["rla.linalg"]
    fn = derivations.find_square_zero_outer
    _rebind(fn, tracer.square_zero_search(fn))
    fn = derivations.construct_case_derivation
    _rebind(fn, tracer.case_construction(fn))
    fn = sys.modules["rla.catalog"].enumerate_nilpotent
    _rebind(fn, tracer.enumeration(fn))
    fn = linalg.complements
    _rebind(fn, tracer.yield_counter("linalg.complements_yielded", rows=False)(fn))
    # only the derivation scans count as candidates: codim1_max_p_ideals also
    # walks coeff_blocks, through its own import from rla.linalg
    fn = linalg.coeff_blocks
    _rebind(fn, tracer.yield_counter("derivations.candidates_scanned", rows=True,
                                     mark="exhaustive")(fn),
            modules={"rla.derivations"})
