"""Command-line surface: validate algebra documents, inspect invariants,
compute derivation and cohomology data, run claim suites, enumerate.

Exit codes: 0 success, 1 input/usage error, 2 validation failure,
3 budget exceeded, 4 claim failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

import numpy as np

from .algebra import RestrictedLieAlgebra, from_doc, to_doc
from .catalog import enumerate_nilpotent, named_entries
from .cohomology import adjoint_module, b1, z1
from .config import Config, from_env
from .derivations import (Derivation, der, der_p, find_nilpotent_outer,
                          find_square_zero_outer, h1_adjoint_dim, inner)
from .errors import (BudgetExceededError, CertificationError, ConfigError,
                     DocumentError, NotADerivationError, RlaError,
                     ValidationError)
from .harness import CLAIM_DESCRIPTIONS, export_csv, verify_claim
from .structure import (center, codim1_max_p_ideals, derived, is_abelian,
                        is_nilpotent, is_p_unipotent, maximal_abelian_p_ideal,
                        maximal_torus, nilpotency_class)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_CLAIM = 4


class _Parser(argparse.ArgumentParser):
    """Usage problems are input errors (exit 1), not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type for --budget and --workers: below 1 is a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _load_algebra(path: str) -> RestrictedLieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return from_doc(doc)


def _config(args) -> Config:
    cfg = from_env()
    updates = {}
    if getattr(args, "budget", None) is not None:
        updates["search_budget"] = args.budget
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _format_matrix(mat: np.ndarray) -> str:
    return json.dumps(np.asarray(mat).tolist())


def _format_derivation(L: RestrictedLieAlgebra, mat: np.ndarray) -> List[str]:
    lines = [f"  matrix rows: {_format_matrix(mat)}"]
    for j in range(L.dim):
        terms = []
        for i in range(L.dim):
            c = int(mat[i, j])
            if c == 0:
                continue
            terms.append(L.label(i) if c == 1 else f"{c}*{L.label(i)}")
        lines.append(f"  D({L.label(j)}) = {' + '.join(terms) if terms else '0'}")
    return lines


def _print_search(name: str, L: RestrictedLieAlgebra,
                  matrix: Optional[np.ndarray]) -> None:
    if matrix is None:
        print(f"{name}: none (complete search)")
    else:
        print(f"{name}: witness")
        for line in _format_derivation(L, matrix):
            print(line)


# -- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    L = from_doc(doc)
    labels = ", ".join(L.label(i) for i in range(L.dim))
    print(f"valid: p={L.p} dim={L.dim} basis=[{labels}]")
    return EXIT_OK


def cmd_inspect(args) -> int:
    L = _load_algebra(args.file)
    nilp = is_nilpotent(L)
    torus_dim = maximal_torus(L).dim if nilp else None
    toral = torus_dim == L.dim
    info = {
        "p": L.p,
        "dim": L.dim,
        "labels": [L.label(i) for i in range(L.dim)],
        "abelian": is_abelian(L),
        "nilpotent": nilp,
        "nilpotency_class": nilpotency_class(L) if nilp else None,
        "center_dim": center(L).dim,
        "center_basis": center(L).basis.tolist(),
        "derived_dim": derived(L).dim,
        "torus_dim": torus_dim,
        "p_unipotent": is_p_unipotent(L) if nilp else None,
        "maximal_abelian_p_ideal": (maximal_abelian_p_ideal(L).basis.tolist()
                                    if nilp else None),
        "codim1_max_p_ideal_count": (len(codim1_max_p_ideals(L))
                                     if nilp and not toral else None),
    }
    if args.json:
        print(json.dumps(info, sort_keys=True, indent=2))
    else:
        for key in sorted(info):
            print(f"{key}: {json.dumps(info[key])}")
    return EXIT_OK


def cmd_derivations(args) -> int:
    L = _load_algebra(args.file)
    cfg = _config(args)
    dp, inn = der_p(L), inner(L)
    print(f"der: {der(L).dim}")
    print(f"der_p: {dp.dim}")
    print(f"inner: {inn.dim}")
    print(f"h1: {h1_adjoint_dim(L)}")
    if args.restricted:
        m = dp.basis[0].reshape(L.dim, L.dim) if dp.dim else None
        _print_search("restricted", L, m)
    if args.outer:
        m = next((row.reshape(L.dim, L.dim) for row in dp.basis
                  if not inn.contains_vector(row)), None)
        _print_search("outer restricted", L, m)
    if args.square_zero:
        w = find_square_zero_outer(L, cfg.search_budget)
        _print_search("square-zero outer restricted", L,
                      w.matrix if w is not None else None)
    if args.nilpotent:
        w = find_nilpotent_outer(L, cfg.search_budget)
        _print_search("nilpotent outer restricted", L,
                      w.matrix if w is not None else None)
    return EXIT_OK


def cmd_h1(args) -> int:
    L = _load_algebra(args.file)
    M = adjoint_module(L)
    zs, bs = z1(L, M), b1(L, M)
    zdim, bdim = zs.dim, bs.dim
    dp, inn = der_p(L).dim, inner(L).dim
    if (zdim, bdim) != (dp, inn):
        raise CertificationError(
            f"cocycle/derivation mismatch: z1={zdim} der_p={dp} b1={bdim} inner={inn}")
    # z1 and der_p come from one row builder; certify the cocycles apart
    # from it, through the Leibniz rule and the restricted condition
    for row in zs.basis:
        try:
            restricted = Derivation(L, row.reshape(L.dim, L.dim)).is_restricted
        except NotADerivationError as exc:
            raise CertificationError(
                f"z1 basis vector is not a derivation: {exc}") from exc
        if not restricted:
            raise CertificationError("z1 basis vector is not a restricted derivation")
    if not zs.contains(bs):
        raise CertificationError("b1 is not contained in z1")
    print(f"z1: {zdim}")
    print(f"b1: {bdim}")
    print(f"h1: {zdim - bdim}")
    print(f"cross-check: der_p={dp} inner={inn} ok")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config(args)
    report = verify_claim(args.claim, p=args.p, dim_bound=args.dim, config=cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(export_csv(report))
    s = report.summary
    print(f"{args.claim}: pass={s['pass']} fail={s['fail']} "
          f"exception={s['exception']} budget={s['budget']} total={s['total']}")
    if s["fail"]:
        return EXIT_CLAIM
    if s["budget"]:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_enumerate(args) -> int:
    docs = [{"name": e.name, "algebra": to_doc(e.algebra)}
            for e in enumerate_nilpotent(args.p, args.dim, dedup=args.dedup)]
    text = json.dumps(docs, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(docs)} algebras to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = [e for q in (2, 3, 5) for e in named_entries(q)]
    if args.action == "list":
        for e in entries:
            print(f"{e.name}: dim={e.algebra.dim} p={e.algebra.p}")
        return EXIT_OK
    match = next((e for e in entries if e.name == args.name), None)
    if match is None:
        known = ", ".join(e.name for e in entries)
        raise DocumentError(f"unknown catalog name {args.name!r}; known: {known}")
    text = json.dumps(to_doc(match.algebra), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- parser and entry point ------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a JSON algebra document")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_inspect = sub.add_parser("inspect", help="dump structural invariants")
    p_inspect.add_argument("file")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(func=cmd_inspect)

    p_der = sub.add_parser("derivations", help="derivation space dimensions and searches")
    p_der.add_argument("file")
    p_der.add_argument("--restricted", action="store_true")
    p_der.add_argument("--outer", action="store_true")
    p_der.add_argument("--square-zero", dest="square_zero", action="store_true")
    p_der.add_argument("--nilpotent", action="store_true")
    p_der.add_argument("--budget", type=_positive_int)
    p_der.set_defaults(func=cmd_derivations)

    p_h1 = sub.add_parser("h1", help="restricted cocycle/coboundary dimensions on the adjoint module")
    p_h1.add_argument("file")
    p_h1.set_defaults(func=cmd_h1)

    p_verify = sub.add_parser("verify", help="run a claim suite over a population")
    p_verify.add_argument("--claim", required=True, choices=sorted(CLAIM_DESCRIPTIONS))
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--dim", type=int)
    p_verify.add_argument("--out")
    p_verify.add_argument("--csv")
    p_verify.add_argument("--budget", type=_positive_int)
    p_verify.add_argument("--workers", type=_positive_int)
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="enumerate nilpotent restricted structures")
    p_enum.add_argument("--p", type=int, required=True)
    p_enum.add_argument("--dim", type=int, required=True)
    p_enum.add_argument("--dedup", action="store_true")
    p_enum.add_argument("--out")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cat = sub.add_parser("catalog", help="named example algebras")
    p_cat.add_argument("action", choices=("list", "export"))
    p_cat.add_argument("--name")
    p_cat.add_argument("--out")
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "export" and not args.name:
        parser.error("catalog export requires --name")
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, DocumentError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RlaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
