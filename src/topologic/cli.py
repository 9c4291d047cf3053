"""Command-line front end.

Commands: check, split, quotient, basis, decide, axioms.

Exit codes: 0 success or positive verdict, 1 negative verdict with a
counterexample, 2 input error, 3 internal-consistency failure (a
construction self-check failed, which must never happen on valid input).

`build_parser` is cached: the argparse tree is built once per process, on
the first `main` call.  Its defaults are immutable and each parse returns
a fresh namespace, so no call sees another's arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .decide import (SearchBound, axiom_soundness_sweep, decide_sat,
                     decide_valid, random_formula)
from .finitemodel import basis_equivalent, extract_finite_model
from .formula import (Formula, ParseError, atoms, is_atom_name, parse,
                      print_formula, print_formulas, subformulas)
from .modelfile import (load_model, model_to_document, read_json,
                        save_model)
from .semantics import (AXIOM_METAVARS, Evaluator, Pair,
                        find_counterexample)
from .space import (InternalError, Model, SpaceError, checked_mask,
                    format_family, format_set, is_topology)
from .splitting import build_splitting, remainder_blocks


def _parse_formula(m: Model, text: str) -> Formula:
    f = parse(text)
    undeclared = atoms(f) - m.masks.keys()
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
    names = m.space.point_names
    if checked_mask(len(names), members, "--at open") not in m.space.masks:
        raise SpaceError(f"{format_set(members, names)} is not an open of the model")
    if point not in members:
        raise SpaceError(f"point {names[point]} not in open {format_set(members, names)}")
    return Pair(point, members)


def _pair_str(m: Model, p: Pair) -> str:
    names = m.space.point_names
    return f"point {names[p.point]}, open {format_set(p.open, names)}"


def _write_model(m: Model, out: str | None) -> None:
    if out:
        save_model(m, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(model_to_document(m), indent=2))


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
    ev = table.evaluator
    names, masks = m.space.point_names, m.space.masks
    # By slot: the slots of a model's evaluator are its opens.
    label = [format_set(U, names) for U in m.space.opens]

    def listing(slots: Sequence[int]) -> str:
        return "{" + ", ".join([label[i] for i in slots]) + "}"

    order = list(table.splittings)  # post-order: operands first
    text = print_formulas(order)
    # By family: its listing, and its blocks' (slot, slots, line, verdicts).
    shown: dict[tuple[int, ...], tuple[str, list]] = {}
    all_stable = True
    for psi in order:
        inner = [*filter(set(subformulas(psi)).__contains__, order)]
        fam = table.splittings[psi].slots
        if fam not in shown:
            shown[fam] = listing(fam), [
                (r, b, f"  block of {label[r]}: {listing(b)}", {}) for r, b in
                zip(fam, remainder_blocks(masks, [masks[r] for r in fam]))]
        family, blocks = shown[fam]
        row = ev.row(psi)
        lines = [f"subformula: {text[psi]}", f"  family: {family}"]
        for r, block, head, seen in blocks:
            for phi in inner:
                if phi not in seen:
                    ok = ev.stable(block, phi)
                    all_stable = all_stable and ok
                    seen[phi] = text[phi] + (": stable" if ok else ": UNSTABLE")
            points = [names[x] for x in range(len(names)) if row[r] >> x & 1]
            lines += [head, "    extension: {" + ", ".join(points) + "}",
                      "    stability: " + "; ".join([seen[phi] for phi in inner])]
        print("\n".join(lines))
    if not all_stable:
        raise InternalError("unstable block in a stable splitting")
    return 0


def cmd_quotient(args) -> int:
    m = load_model(args.model)
    if not is_topology(m.space):
        raise SpaceError("not a topology")
    f = _parse_formula(m, args.formula)
    result = extract_finite_model(m, f)
    q = result.quotient
    restricted = result.restricted_model.space.opens
    names = m.space.point_names
    qnames = q.model.space.point_names
    print(f"restricted family: {format_family(restricted, names)}")
    print(f"finite model: {len(qnames)} points, "
          f"{len(q.model.space.opens)} opens")
    print("point classes:")
    for x in sorted(m.space.universe):
        print(f"  {names[x]} -> {qnames[q.point_class[x]]}")
    print("open classes:")
    for U in restricted:
        print(f"  {format_set(U, names)} -> "
              f"{format_set(q.open_class[U], qnames)}")
    _write_model(q.model, args.out)
    return 0


def cmd_basis(args) -> int:
    m = load_model(args.model)
    if not is_topology(m.space):
        raise SpaceError("not a topology")
    raw = read_json(args.basis)
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
        names = sorted(m.masks)
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
    listed = {name.strip() for name in args.atoms.split(",")} - {""}
    for name in sorted(listed):
        if not is_atom_name(name):
            raise SpaceError(f"--atoms: {name!r} is not an atom name")
    bound = SearchBound(args.points, tuple(sorted(listed | atoms(f))))
    if args.mode == "sat":
        verdict = decide_sat(f, bound)
    else:
        verdict = decide_valid(f, bound)
    print(verdict.kind.value.replace("_", " "))
    if verdict.model is not None:
        print(f"at {_pair_str(verdict.model, verdict.pair)}")
        _write_model(verdict.model, args.out)
    return 0 if verdict.positive else 1


def cmd_axioms(args) -> int:
    try:
        # A repeated id is swept and printed once, at its first place.
        schemes = (list(dict.fromkeys(int(x) for x in args.schemes.split(",")))
                   if args.schemes else sorted(AXIOM_METAVARS))
    except ValueError:
        raise SpaceError(f"--schemes takes comma-separated scheme ids, "
                         f"not {args.schemes!r}") from None
    if args.model:
        m = load_model(args.model)
        spaces = [m.space]
        bound = SearchBound(len(m.space.point_names),
                            tuple(sorted(m.masks)) or ("A",))
    elif args.enumerate is not None:
        bound = SearchBound(args.enumerate, ("A",))
        spaces = None
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


@functools.cache
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
                   help="comma-separated atom alphabet for the search; "
                        "time grows as 2^(points*atoms) per topology class")
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
