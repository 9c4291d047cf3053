"""Command-line front end.

Commands: check, split, quotient, basis, decide, axioms.

Exit codes: 0 success or positive verdict, 1 negative verdict with a
counterexample, 2 input error, 3 internal-consistency failure (a
construction self-check failed, which must never happen on valid input).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import __version__
from .decide import (SearchBound, axiom_soundness_sweep, decide_sat,
                     decide_valid, random_formula)
from .finitemodel import basis_equivalent, extract_finite_model
from .formula import (Formula, ParseError, atoms, parse, print_formula,
                      subformulas)
from .modelfile import load_model, model_to_document, save_model
from .semantics import (AXIOM_METAVARS, Evaluator, Pair,
                        find_counterexample)
from .space import (InternalError, Model, SpaceError, format_family,
                    format_set, is_topology, sort_family)
from .splitting import build_splitting, is_stable, partition


def _parse_formula(m: Model, text: str) -> Formula:
    f = parse(text)
    undeclared = atoms(f) - set(m.valuation)
    if undeclared:
        raise SpaceError(f"unknown atom {', '.join(sorted(undeclared))}")
    return f


def _parse_pair(m: Model, spec: str) -> Pair:
    point_part, _, open_part = spec.partition(":")
    if not open_part:
        raise SpaceError("--at takes POINT:NAME,NAME,... (point, then open)")
    point = m.space.index_of(point_part.strip())
    members = frozenset(m.space.index_of(n.strip())
                        for n in open_part.split(",") if n.strip())
    if members not in m.space.opens:
        raise SpaceError(f"{format_set(members, m.space.point_names)} "
                         "is not an open of the model")
    return Pair(point, members)


def _pair_str(m: Model, p: Pair) -> str:
    names = m.space.point_names
    return f"point {names[p.point]}, open {format_set(p.open, names)}"


def cmd_check(args) -> int:
    m = load_model(args.model)
    f = _parse_formula(m, args.formula)
    if args.at is not None:
        p = _parse_pair(m, args.at)
        holds = Evaluator(m).satisfies(p, f)
        print(f"{print_formula(f)} at {_pair_str(m, p)}: "
              f"{'satisfied' if holds else 'not satisfied'}")
        return 0 if holds else 1
    counter = find_counterexample(m, f)
    if counter is None:
        print("valid")
        return 0
    print(f"counterexample: {_pair_str(m, counter)}")
    return 1


def cmd_split(args) -> int:
    m = load_model(args.model)
    if not is_topology(m.space):
        raise SpaceError("not a topology")
    f = _parse_formula(m, args.formula)
    table = build_splitting(m, f)
    names = m.space.point_names
    text = {psi: print_formula(psi) for psi in table.order}
    all_stable = True
    for psi in table.order:
        sp = table.splittings[psi]
        print(f"subformula: {text[psi]}")
        print(f"  family: {format_family(sp.family, names)}")
        part = partition(sp)
        subs = set(subformulas(psi))
        inner = [phi for phi in table.order if phi in subs]
        for rep in sort_family(part.blocks):
            block = part.blocks[rep]
            verdicts = []
            for phi in inner:
                ok = is_stable(m, block, phi, table.evaluator)
                all_stable = all_stable and ok
                verdicts.append(f"{text[phi]}: {'stable' if ok else 'UNSTABLE'}")
            ext = table.extensions[psi][rep]
            print(f"  block of {format_set(rep, names)}: "
                  f"{format_family(block, names)}")
            print(f"    extension: {format_set(ext, names)}")
            print(f"    stability: {'; '.join(verdicts)}")
    if not all_stable:
        raise InternalError("unstable block in a stable splitting")
    return 0


def cmd_quotient(args) -> int:
    m = load_model(args.model)
    if not is_topology(m.space):
        raise SpaceError("not a topology")
    f = _parse_formula(m, args.formula)
    result = extract_finite_model(m, f)
    names = m.space.point_names
    qnames = result.model.space.point_names
    print(f"restricted family: {format_family(result.restricted_family, names)}")
    print(f"finite model: {len(qnames)} points, "
          f"{len(result.model.space.opens)} opens")
    print("point classes:")
    for x in sorted(m.space.universe):
        print(f"  {names[x]} -> {qnames[result.quotient.point_class[x]]}")
    print("open classes:")
    for U in result.restricted_family:
        print(f"  {format_set(U, names)} -> "
              f"{format_set(result.quotient.open_class[U], qnames)}")
    if args.out:
        save_model(result.model, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(model_to_document(result.model), indent=2))
    return 0


def cmd_basis(args) -> int:
    m = load_model(args.model)
    if not is_topology(m.space):
        raise SpaceError("not a topology")
    try:
        raw = json.loads(Path(args.basis).read_text())
    except json.JSONDecodeError as exc:
        raise SpaceError(f"{args.basis}: not valid JSON ({exc})") from exc
    if not (isinstance(raw, list) and all(isinstance(U, list) for U in raw)):
        raise SpaceError("basis file must be a JSON list of opens, "
                         "each a list of point names")
    basis = [frozenset(m.space.index_of(n) for n in member) for member in raw]
    if args.formulas:
        formulas = [_parse_formula(m, line)
                    for line in Path(args.formulas).read_text().splitlines()
                    if line.strip()]
    else:
        if args.depth < 0:
            raise SpaceError("--depth must be at least 0")
        rng = random.Random(args.seed)
        names = sorted(m.valuation)
        formulas = [random_formula(rng, names, args.depth)
                    for _ in range(args.trials)]
    if not formulas:
        raise SpaceError("no formulas to compare (see --trials, --formulas)")
    counter = basis_equivalent(m, basis, formulas)
    if counter is None:
        print(f"equivalent on {len(formulas)} formula(s)")
        return 0
    where = ("model validity" if counter.pair is None
             else _pair_str(m, counter.pair))
    print(f"disagreement on {print_formula(counter.formula)} at {where}")
    return 1


def cmd_decide(args) -> int:
    f = parse(args.formula)
    names = sorted(set(args.atoms.split(",")) - {""} | atoms(f)
                   ) if args.atoms else sorted(atoms(f))
    bound = SearchBound(args.points, tuple(names))
    if args.mode == "sat":
        verdict = decide_sat(f, bound)
    else:
        verdict = decide_valid(f, bound)
    print(verdict.kind.value.replace("_", " "))
    if verdict.model is not None:
        print(f"at {_pair_str(verdict.model, verdict.pair)}")
        if args.out:
            save_model(verdict.model, args.out)
            print(f"wrote {args.out}")
        else:
            print(json.dumps(model_to_document(verdict.model), indent=2))
    return 0 if verdict.positive else 1


def cmd_axioms(args) -> int:
    try:
        schemes = ([int(x) for x in args.schemes.split(",")]
                   if args.schemes else sorted(AXIOM_METAVARS))
    except ValueError:
        raise SpaceError(f"--schemes takes comma-separated scheme ids, "
                         f"not {args.schemes!r}") from None
    for sid in schemes:
        if sid not in AXIOM_METAVARS:
            raise SpaceError(f"unknown axiom scheme {sid}")
    if args.model:
        m = load_model(args.model)
        spaces = [m.space]
        atom_names = tuple(sorted(m.valuation)) or ("A",)
        bound = SearchBound(len(m.space.point_names), atom_names)
    elif args.enumerate:
        bound = SearchBound(args.enumerate, ("A",))
        spaces = None
        atom_names = bound.atoms
    else:
        raise SpaceError("give either a model file or --enumerate N")
    report = axiom_soundness_sweep(bound, schemes, args.trials, args.seed,
                                   spaces=spaces)
    violated = {v.scheme_id for v in report.violations}
    for sid in schemes:
        status = "VIOLATED" if sid in violated else "pass"
        print(f"scheme {sid:>2}: {status}  "
              f"({report.checked[sid]} instance checks)")
    for v in report.violations[:10]:
        print(f"  scheme {v.scheme_id}: {print_formula(v.instance)} fails at "
              f"{_pair_str(v.model, v.pair)} in model over opens "
              f"{format_family(v.model.space.opens, v.model.space.point_names)}")
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topologic",
        description="Knowledge/effort logic over finite subset spaces: "
                    "model checking, splittings, quotients, bounded decision.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--at", metavar="POINT:OPEN",
                   help="evaluate at one pair, e.g. x0:x0,x1")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("split", help="stable splitting report per subformula")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("quotient", help="extract the finite quotient model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--out", help="write the finite model to this file")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("basis", help="check basis-model equivalence")
    p.add_argument("model")
    p.add_argument("basis", help="JSON list of opens (lists of point names)")
    p.add_argument("--formulas", help="file with one formula per line")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("decide", help="bounded satisfiability/validity search")
    p.add_argument("formula")
    p.add_argument("--mode", choices=("sat", "valid"), default="valid")
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--atoms", default="",
                   help="comma-separated atom alphabet for the search")
    p.add_argument("--out", help="write the witness/counter model here")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("axioms", help="axiom-scheme soundness sweep")
    p.add_argument("model", nargs="?")
    p.add_argument("--enumerate", type=int, metavar="N",
                   help="sweep all topologies on up to N points")
    p.add_argument("--schemes", help="comma-separated scheme ids (default all)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_axioms)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SpaceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
