"""Satisfaction over subset-space models.

A pair (x, U) with x in U and U open is the unit of evaluation.  `K`
quantifies over the points of the current open, `[]` over the opens
below the current one that still contain the current point.

Evaluation labels each distinct subformula with one row of int bitmasks,
its extension at every open, filled bottom up from its operands' rows.

A row can carry many valuations of one space side by side, one lane each.
With n points a lane is n + 1 bits wide: bit v*(n+1) + x is point x under
valuation v, and the top bit of each lane is a guard that stays 0.  The
opens' masks repeat in every lane, so `~`, `&` and `[]` are the one-lane
bit operations unchanged, and an atom's row holds its set in each lane.
`K` must test a whole lane: with a = the operand's row and u = the open's,
adding 2**n - 1 per lane to u ^ a carries into a lane's guard bit exactly
when a misses a point of u there, and subtracting the carries shifted
down by n gives the mask of those lanes' points, which K clears.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor
from typing import Iterator, Mapping

from .formula import (And, Atom, Bot, Box, Diamond, Formula, Implies, Knows, L,
                      Not, Top, post_order)
from .space import InternalError, Model, PointSet, SpaceError, SubsetSpace


@dataclass(frozen=True)
class Pair:
    point: int
    open: PointSet

    def __post_init__(self) -> None:
        if self.point not in self.open:
            raise SpaceError(f"point {self.point} not in open {sorted(self.open)}")


def pairs_in_order(m: Model) -> Iterator[Pair]:
    """Deterministic pair order: opens largest first, then by members;
    points ascending.

    This is the order in which counterexamples and witnesses are reported,
    so the full open X is always inspected first.
    """
    # The opens are in `sort_family` order and sorting is stable.
    for U in sorted(m.space.opens, key=len, reverse=True):
        for x in sorted(U):
            yield Pair(x, U)


class Evaluator:
    """Extension table of one model, or of many valuations of one space,
    shared by every formula it evaluates.

    Each distinct subformula has one row: at index i, the mask of the points
    of open i that satisfy it there, in every lane.  Formulas are interned,
    so rows are keyed by node and equal subformulas of different formulas
    share a row.

    `Evaluator(m)` has one lane, valued by the model m.  `Evaluator(space,
    lanes, atoms)` has `lanes` lanes over the space, and atoms[a] is atom
    a's row: bit v*(n+1) + x is set when x is in a's set under lane v.
    `mask` returns every lane; `extension` and `satisfies` read lane 0.
    """

    def __init__(self, m: Model | SubsetSpace, lanes: int = 1,
                 atoms: Mapping[str, int] | None = None):
        if isinstance(m, Model):
            if lanes != 1 or atoms is not None:
                raise SpaceError("a model's evaluator has one lane, valued "
                                 "by the model")
            space = m.space
            atoms = {a: sum(1 << x for x in s) for a, s in m.valuation.items()}
        elif atoms is None or lanes < 1:
            raise SpaceError("an evaluator over a space needs at least one "
                             "lane and the atoms' rows")
        else:
            space = m
        self.space, self._atoms = space, atoms
        n = len(space.point_names)
        self._width = w = n + 1
        ones = ((1 << lanes * w) - 1) // ((1 << w) - 1)  # bit 0 of each lane
        self._fill, self._guard = ones * ((1 << n) - 1), ones << n
        self._index = {U: i for i, U in enumerate(space.opens)}
        self._masks = [sum(1 << x for x in U) * ones for U in space.opens]
        self._below: list[list[int]] | None = None  # sub-open indices per open
        self._rows: dict[Formula, list[int]] = {}

    def _row(self, f: Formula) -> list[int]:
        rows, masks = self._rows, self._masks
        for g in post_order(f, rows):
            t = type(g)
            if t is Not:
                row = list(map(xor, masks, rows[g.arg]))
            elif t is And:
                row = list(map(and_, rows[g.left], rows[g.right]))
            elif t is Knows:
                # A lane's guard bit in (u ^ a) + fill is set iff a misses a
                # point of u; k - (k >> n) covers the points of those lanes.
                fill, guard, n = self._fill, self._guard, self._width - 1
                row = []
                for u, a in zip(masks, rows[g.arg]):
                    k = ((u ^ a) + fill) & guard
                    row.append(u & ~(k - (k >> n)))
            elif t is Box:
                if self._below is None:
                    self._below = [[j for j, v in enumerate(masks)
                                    if v & ~u == 0] for u in masks]
                # miss[j]: the points of open j at which the operand fails.
                miss = list(map(xor, masks, rows[g.arg]))
                row = [u & ~reduce(or_, [miss[j] for j in js])
                       for u, js in zip(masks, self._below)]
            elif t is Atom:
                a = self._atoms.get(g.name)
                if a is None:
                    raise SpaceError(f"unknown atom {g.name!r}")
                row = [u & a for u in masks]
            elif t is Top:
                row = masks
            elif t is Bot:
                row = [0] * len(masks)
            else:
                raise TypeError(f"not a formula: {g!r}")
            rows[g] = row
        return rows[f]

    def mask(self, U: PointSet, f: Formula) -> int:
        """The points of the open U that satisfy f at U, as a bitmask."""
        i = self._index.get(U)
        if i is None:
            raise SpaceError(f"{sorted(U)} is not an open of the space")
        return (self._rows.get(f) or self._row(f))[i]  # rows are never empty

    def extension(self, U: PointSet, f: Formula) -> PointSet:
        bits = self.mask(U, f)
        return frozenset(x for x in U if bits >> x & 1)

    def satisfies(self, p: Pair, f: Formula) -> bool:
        return bool(self.mask(p.open, f) >> p.point & 1)

    def hits(self, f: Formula, holds: bool) -> Iterator[tuple[int, Pair]]:
        """Each lane in which the truth of f equals holds at some pair,
        ascending, with the least such pair in `pairs_in_order`."""
        row, masks, opens = self._row(f), self._masks, self.space.opens
        order = sorted(range(len(opens)), key=lambda i: -len(opens[i]))
        found = [row[i] if holds else masks[i] ^ row[i] for i in order]
        w = self._width
        points = (1 << w - 1) - 1
        left, base = reduce(or_, found), 0  # bit 0 of `left` is lane `base`
        while left:
            lane = base + ((left & -left).bit_length() - 1) // w
            shift = lane * w
            for i, bits in zip(order, found):
                bits = bits >> shift & points
                if bits:
                    yield lane, Pair((bits & -bits).bit_length() - 1, opens[i])
                    break
            left >>= (lane + 1 - base) * w
            base = lane + 1

    def first_pair(self, f: Formula, holds: bool) -> Pair | None:
        """The least pair in `pairs_in_order` at which the truth of f
        equals holds, in the least lane that has one, or None."""
        for _, p in self.hits(f, holds):
            return p
        return None


def satisfies(m: Model, p: Pair, f: Formula) -> bool:
    """The satisfaction relation at one pair."""
    return Evaluator(m).satisfies(p, f)


def extension(m: Model, U: PointSet, f: Formula) -> PointSet:
    """The set of points of U satisfying f at U."""
    return Evaluator(m).extension(U, f)


def find_counterexample(m: Model, f: Formula,
                        evaluator: Evaluator | None = None) -> Pair | None:
    """Least falsifying pair in the deterministic order, or None."""
    return (evaluator or Evaluator(m)).first_pair(f, False)


def model_valid(m: Model, f: Formula,
                evaluator: Evaluator | None = None) -> bool:
    """True iff f holds at every pair of the model."""
    return find_counterexample(m, f, evaluator) is None


class SchemeError(ValueError):
    """Bad axiom-scheme id or substitution."""


# Axiom schemes.  Scheme 1 stands in for "all propositional tautologies"
# via the representative tautology phi -> (psi -> phi).
AXIOM_METAVARS: dict[int, tuple[str, ...]] = {
    1: ("phi", "psi"),
    2: ("phi",),
    3: ("phi", "psi"),
    4: ("phi",),
    5: ("phi",),
    6: ("phi", "psi"),
    7: ("phi",),
    8: ("phi",),
    9: ("phi",),
    10: ("phi",),
    11: ("phi",),
    12: ("phi", "psi", "chi"),
}


def instantiate_axiom(scheme_id: int, substitution: dict[str, Formula]) -> Formula:
    """Instantiate one of the twelve axiom schemes.

    Scheme 2 is stated for atomic formulas only and rejects any other
    substitution for phi.
    """
    if scheme_id not in AXIOM_METAVARS:
        raise SchemeError(f"unknown axiom scheme {scheme_id}")
    missing = [v for v in AXIOM_METAVARS[scheme_id] if v not in substitution]
    if missing:
        raise SchemeError(f"scheme {scheme_id} needs substitution for {missing}")
    p = substitution.get("phi")
    q = substitution.get("psi")
    c = substitution.get("chi")
    match scheme_id:
        case 1:
            return Implies(p, Implies(q, p))
        case 2:
            if not isinstance(p, (Atom, Top, Bot)):
                raise SchemeError("scheme 2 requires an atomic substitution")
            return And(Implies(p, Box(p)), Implies(Not(p), Box(Not(p))))
        case 3:
            return Implies(Box(Implies(p, q)), Implies(Box(p), Box(q)))
        case 4:
            return Implies(Box(p), p)
        case 5:
            return Implies(Box(p), Box(Box(p)))
        case 6:
            return Implies(Knows(Implies(p, q)), Implies(Knows(p), Knows(q)))
        case 7:
            return Implies(Knows(p), p)
        case 8:
            return Implies(Knows(p), Knows(Knows(p)))
        case 9:
            return Implies(p, Knows(L(p)))
        case 10:
            return Implies(Knows(Box(p)), Box(Knows(p)))
        case 11:
            return Implies(Diamond(Box(p)), Box(Diamond(p)))
        case 12:
            return Implies(
                And(Diamond(And(Knows(p), q)), L(Diamond(And(Knows(p), c)))),
                Diamond(And(Knows(Diamond(p)), And(Diamond(q), L(Diamond(c))))))
    raise InternalError(f"scheme {scheme_id} has no construction")
